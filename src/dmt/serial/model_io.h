// Learner tags and whole-model archive entry points. Every learner writes
// the shared header (serial/archive.h) with its own FourCC tag; the
// functions here read that header once and dispatch to the right LoadBody.
// This is the one load path for classifiers; the regressors and the bare
// Glm / LinearRegressor support models keep a typed static Load.
#ifndef DMT_SERIAL_MODEL_IO_H_
#define DMT_SERIAL_MODEL_IO_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "dmt/common/classifier.h"
#include "dmt/serial/archive.h"

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
inline constexpr std::uint32_t kTagSgt = FourCC('S', 'G', 'T', 'C');
inline constexpr std::uint32_t kTagGlmClassifier = FourCC('G', 'L', 'M', 'C');
inline constexpr std::uint32_t kTagGlm = FourCC('G', 'L', 'M', 'M');
inline constexpr std::uint32_t kTagLinearRegressor =
    FourCC('L', 'I', 'N', 'R');
// Retired: the standalone Gaussian naive Bayes classifier was removed. The
// tag stays reserved and no build reads it.
inline constexpr std::uint32_t kTagGaussianNb = FourCC('G', 'S', 'N', 'B');
inline constexpr std::uint32_t kTagArf = FourCC('A', 'R', 'F', 'E');
inline constexpr std::uint32_t kTagLevBag = FourCC('L', 'V', 'B', 'G');
inline constexpr std::uint32_t kTagOzaBag = FourCC('O', 'Z', 'B', 'G');
inline constexpr std::uint32_t kTagOzaBoost = FourCC('O', 'Z', 'B', 'S');

// Reads one archive and reconstructs whichever Classifier it holds.
// Throws SerialError on malformed input or a non-classifier tag.
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
std::unique_ptr<Classifier> LoadClassifierFromString(const std::string& bytes);

// Reads one embedded VFDT body record for an ensemble member and checks it
// matches the ensemble dimensions: ensemble scoring shares per-class
// scratch rows across members, so a member tree with foreign dimensions
// would index out of bounds. Throws SerialError on mismatch.
std::unique_ptr<trees::Vfdt> LoadMemberVfdt(Reader& reader, int num_features,
                                            int num_classes);

}  // namespace dmt::serial

#endif  // DMT_SERIAL_MODEL_IO_H_
