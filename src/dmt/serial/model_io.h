// The classifier registry: learner tags, the one by-name factory and the
// whole-model archive entry points. Every learner writes the shared header
// (serial/archive.h) with its own FourCC tag; the functions here read that
// header once and dispatch to the right LoadBody. This is the one build and
// load path for classifiers; the regressors and the bare Glm /
// LinearRegressor support models keep a typed static Load.
#ifndef DMT_SERIAL_MODEL_IO_H_
#define DMT_SERIAL_MODEL_IO_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "dmt/common/classifier.h"
#include "dmt/serial/archive.h"

namespace dmt {
class ThreadPool;
}  // namespace dmt

namespace dmt::trees {
class Vfdt;
}  // namespace dmt::trees

namespace dmt::serial {

// Learner tags. Append-only: a value is never reused or renumbered, so an
// old archive always names its learner unambiguously.
inline constexpr std::uint32_t kTagDmtClassifier = FourCC('D', 'M', 'T', 'C');
inline constexpr std::uint32_t kTagDmtRegressor = FourCC('D', 'M', 'T', 'R');
inline constexpr std::uint32_t kTagVfdt = FourCC('V', 'F', 'D', 'T');
inline constexpr std::uint32_t kTagEfdt = FourCC('E', 'F', 'D', 'T');
inline constexpr std::uint32_t kTagHat = FourCC('H', 'A', 'T', 'T');
inline constexpr std::uint32_t kTagFimtDd = FourCC('F', 'I', 'M', 'T');
inline constexpr std::uint32_t kTagFimtDdRegressor =
    FourCC('F', 'I', 'M', 'R');
inline constexpr std::uint32_t kTagGlmClassifier = FourCC('G', 'L', 'M', 'C');
inline constexpr std::uint32_t kTagGlm = FourCC('G', 'L', 'M', 'M');
inline constexpr std::uint32_t kTagLinearRegressor =
    FourCC('L', 'I', 'N', 'R');
inline constexpr std::uint32_t kTagArf = FourCC('A', 'R', 'F', 'E');
inline constexpr std::uint32_t kTagLevBag = FourCC('L', 'V', 'B', 'G');

// Retired tags: the learners below were removed (none appears in the
// paper's evaluation). Each tag stays reserved, is never reused, and
// LoadClassifier refuses it with a SerialError naming the learner.
// Standalone Gaussian naive Bayes classifier.
inline constexpr std::uint32_t kTagGaussianNb = FourCC('G', 'S', 'N', 'B');
// Stochastic Gradient Tree (one-vs-rest classifier).
inline constexpr std::uint32_t kTagSgt = FourCC('S', 'G', 'T', 'C');
// Online (Oza) Bagging.
inline constexpr std::uint32_t kTagOzaBag = FourCC('O', 'Z', 'B', 'G');
// Online (Oza) Boosting.
inline constexpr std::uint32_t kTagOzaBoost = FourCC('O', 'Z', 'B', 'S');

// True when `name` is a classifier MakeClassifier builds: the paper's
// Table II rows (DMT, FIMT-DD, VFDT(MC), VFDT(NBA), HT-Ada, EFDT,
// ForestEns, BaggingEns) plus GLM. Exact and case-sensitive; the retired
// SGT, OzaBag and OzaBoost are not names.
bool IsModelName(const std::string& name);

// Builds a fresh classifier by registry name (see IsModelName) with every
// other config field at its default. A non-null `pool` is lent to the
// ensembles (ForestEns / BaggingEns) for member training and batch scoring;
// it must outlive the returned model. `dmt_exact` runs a DMT in the
// paper-exact pipeline (gain_test_every=1, gain_test_threshold=0,
// order_buckets=0, candidate_grad_f32=false); other learners ignore it.
// Throws std::invalid_argument naming an unknown model.
std::unique_ptr<Classifier> MakeClassifier(const std::string& name,
                                           int num_features, int num_classes,
                                           std::uint64_t seed,
                                           ThreadPool* pool = nullptr,
                                           bool dmt_exact = false);

// Reads one archive and reconstructs whichever Classifier it holds.
// Throws SerialError on malformed input, a non-classifier tag or a retired
// tag (the message names the retired learner).
std::unique_ptr<Classifier> LoadClassifier(std::istream& in);
std::unique_ptr<Classifier> LoadClassifierFromFile(const std::string& path);

// Atomic publish, sweep-manifest style: the archive is written to
// `path + ".tmp"` and renamed over `path`, so readers never observe a torn
// snapshot. Throws SerialError if the file cannot be written.
void SaveClassifierToFile(const Classifier& model, const std::string& path);

// In-memory round trip, for embedding archives inside larger container
// formats (the serve layer's checkpoint manifests, replication payloads):
// the returned bytes are exactly what SaveClassifierToFile publishes, and
// LoadClassifierFromString accepts exactly what LoadClassifierFromFile
// reads. Throws SerialError on encode failure / malformed bytes.
std::string SaveClassifierToString(const Classifier& model);
// The same bytes into `*bytes`, replacing its contents but keeping its
// capacity: a caller that encodes model after model through one buffer
// allocates only while the buffer grows.
void SaveClassifierToString(const Classifier& model, std::string* bytes);
std::unique_ptr<Classifier> LoadClassifierFromString(const std::string& bytes);

// Reads one embedded VFDT body record for an ensemble member and checks it
// matches the ensemble dimensions: ensemble scoring shares per-class
// scratch rows across members, so a member tree with foreign dimensions
// would index out of bounds. Throws SerialError on mismatch.
std::unique_ptr<trees::Vfdt> LoadMemberVfdt(Reader& reader, int num_features,
                                            int num_classes);

}  // namespace dmt::serial

#endif  // DMT_SERIAL_MODEL_IO_H_
