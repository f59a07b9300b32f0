#include "dmt/serial/model_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

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

SerialError RetiredLearner(const char* learner) {
  std::string message = "archive holds a retired learner: ";
  message.append(learner).append("; this build cannot load it");
  return SerialError(message);
}

struct LearnerArgs {
  int num_features;
  int num_classes;
  std::uint64_t seed;
  ThreadPool* pool;
  bool dmt_exact;
};

using Builder = std::unique_ptr<Classifier> (*)(const LearnerArgs&);

// A default `Config` with the dimensions, plus the seed and the borrowed
// pool where the learner has them (HT-Ada and EFDT draw no randomness).
template <typename Config>
Config Sized(const LearnerArgs& args) {
  Config config;
  config.num_features = args.num_features;
  config.num_classes = args.num_classes;
  if constexpr (requires(Config c) { c.seed; }) config.seed = args.seed;
  if constexpr (requires(Config c) { c.pool; }) config.pool = args.pool;
  return config;
}

template <typename Model, typename Config>
std::unique_ptr<Classifier> Build(const LearnerArgs& args) {
  return std::make_unique<Model>(Sized<Config>(args));
}

std::unique_ptr<Classifier> BuildDmt(const LearnerArgs& args) {
  core::DmtConfig config = Sized<core::DmtConfig>(args);
  if (args.dmt_exact) {
    config.gain_test_every = 1;
    config.gain_test_threshold = 0.0;
    config.order_buckets = 0;
    config.candidate_grad_f32 = false;
  }
  return std::make_unique<core::DynamicModelTree>(config);
}

template <trees::LeafPrediction kLeaf>
std::unique_ptr<Classifier> BuildVfdt(const LearnerArgs& args) {
  trees::VfdtConfig config = Sized<trees::VfdtConfig>(args);
  config.leaf_prediction = kLeaf;
  return std::make_unique<trees::Vfdt>(config);
}

// The registry, in Table II row order with GLM last.
constexpr std::pair<std::string_view, Builder> kLearners[] = {
    {"DMT", BuildDmt},
    {"FIMT-DD", Build<trees::FimtDd, trees::FimtDdConfig>},
    {"VFDT(MC)", BuildVfdt<trees::LeafPrediction::kMajorityClass>},
    {"VFDT(NBA)", BuildVfdt<trees::LeafPrediction::kNaiveBayesAdaptive>},
    {"HT-Ada", Build<trees::HoeffdingAdaptiveTree, trees::HatConfig>},
    {"EFDT", Build<trees::Efdt, trees::EfdtConfig>},
    {"ForestEns", Build<ensemble::AdaptiveRandomForest,
                        ensemble::AdaptiveRandomForestConfig>},
    {"BaggingEns", Build<ensemble::LeveragingBagging,
                         ensemble::LeveragingBaggingConfig>},
    {"GLM", Build<linear::GlmClassifier, linear::GlmConfig>},
};

const std::pair<std::string_view, Builder>* FindLearner(
    const std::string& name) {
  const auto* it = std::find_if(
      std::begin(kLearners), std::end(kLearners),
      [&](const auto& learner) { return learner.first == name; });
  return it == std::end(kLearners) ? nullptr : it;
}

}  // namespace

bool IsModelName(const std::string& name) {
  return FindLearner(name) != nullptr;
}

std::unique_ptr<Classifier> MakeClassifier(const std::string& name,
                                           int num_features, int num_classes,
                                           std::uint64_t seed,
                                           ThreadPool* pool, bool dmt_exact) {
  const auto* learner = FindLearner(name);
  if (learner == nullptr) {
    throw std::invalid_argument("unknown model: " + name);
  }
  return learner->second({num_features, num_classes, seed, pool, dmt_exact});
}

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
