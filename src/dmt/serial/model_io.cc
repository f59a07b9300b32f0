#include "dmt/serial/model_io.h"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <streambuf>

#include "dmt/core/dynamic_model_tree.h"
#include "dmt/ensemble/adaptive_random_forest.h"
#include "dmt/ensemble/leveraging_bagging.h"
#include "dmt/linear/glm_classifier.h"
#include "dmt/trees/efdt.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/hoeffding_adaptive.h"
#include "dmt/trees/vfdt.h"

namespace dmt::serial {

namespace {

// Appends every byte written through it to a caller-owned string; no
// buffer of its own, so nothing is copied out afterwards.
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string* bytes) : bytes_(bytes) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_->append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    bytes_->push_back(traits_type::to_char_type(c));
    return c;
  }

 private:
  std::string* bytes_;
};

SerialError RetiredLearner(const char* learner) {
  std::string message = "archive holds a retired learner: ";
  message.append(learner).append("; this build cannot load it");
  return SerialError(message);
}

}  // namespace

std::unique_ptr<Classifier> LoadClassifier(std::istream& in) {
  Reader reader(in);
  const std::uint32_t tag = reader.Header();
  switch (tag) {
    case kTagDmtClassifier:
      return core::DynamicModelTree::LoadBody(reader);
    case kTagVfdt:
      return trees::Vfdt::LoadBody(reader);
    case kTagEfdt:
      return trees::Efdt::LoadBody(reader);
    case kTagHat:
      return trees::HoeffdingAdaptiveTree::LoadBody(reader);
    case kTagFimtDd:
      return trees::FimtDd::LoadBody(reader);
    case kTagGlmClassifier:
      return linear::GlmClassifier::LoadBody(reader);
    case kTagArf:
      return ensemble::AdaptiveRandomForest::LoadBody(reader);
    case kTagLevBag:
      return ensemble::LeveragingBagging::LoadBody(reader);
    case kTagGaussianNb:
      throw RetiredLearner("Gaussian naive Bayes");
    case kTagSgt:
      throw RetiredLearner("Stochastic Gradient Tree (SGT)");
    case kTagOzaBag:
      throw RetiredLearner("Online Bagging (OzaBag)");
    case kTagOzaBoost:
      throw RetiredLearner("Online Boosting (OzaBoost)");
    default:
      throw SerialError("archive tag does not name a classifier");
  }
}

std::unique_ptr<Classifier> LoadClassifierFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerialError("cannot open model archive: " + path);
  return LoadClassifier(in);
}

std::unique_ptr<trees::Vfdt> LoadMemberVfdt(Reader& reader, int num_features,
                                            int num_classes) {
  std::unique_ptr<trees::Vfdt> tree = trees::Vfdt::LoadBody(reader);
  Check(tree->config().num_features == num_features &&
            tree->config().num_classes == num_classes,
        "ensemble member tree dimensions disagree with the ensemble");
  return tree;
}

std::string SaveClassifierToString(const Classifier& model) {
  std::string bytes;
  SaveClassifierToString(model, &bytes);
  return bytes;
}

void SaveClassifierToString(const Classifier& model, std::string* bytes) {
  bytes->clear();
  StringSink sink(bytes);
  std::ostream out(&sink);
  model.Save(out);
  if (!out) throw SerialError("in-memory model archive encode failed");
}

std::unique_ptr<Classifier> LoadClassifierFromString(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return LoadClassifier(in);
}

void SaveClassifierToFile(const Classifier& model, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SerialError("cannot write model archive: " + tmp);
    model.Save(out);
    out.flush();
    if (!out) throw SerialError("model archive write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SerialError("cannot publish model archive: " + path);
  }
}

}  // namespace dmt::serial
