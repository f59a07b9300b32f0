// Registry of the 13 evaluation streams of the paper (Table I).
//
// SEA, Agrawal and Hyperplane are the actual synthetic generators (with the
// paper's drift schedules and 10% perturbation). The real-world data sets
// are unavailable offline and are substituted by ConceptStream surrogates
// that preserve the Table I schema (features, classes, majority fraction)
// and each set's drift regime; see DESIGN.md Sec. 2 for the mapping.
#ifndef DMT_STREAMS_DATASETS_H_
#define DMT_STREAMS_DATASETS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dmt/streams/stream.h"

namespace dmt::streams {

struct DatasetSpec {
  std::string name;
  // Table I values (for reporting; runs may be capped below this).
  std::size_t full_samples = 0;
  std::size_t num_features = 0;
  std::size_t num_classes = 0;
  std::size_t majority_count = 0;
  // Whether the paper treats this stream as having *known* concept drift
  // (the Table VI "Pred. Performance For Known Drift" category).
  bool known_drift = false;
  // Builds the stream with `samples` observations (drift schedules scale
  // proportionally) and the given seed.
  std::function<std::unique_ptr<Stream>(std::size_t samples,
                                        std::uint64_t seed)>
      make;
};

// All 13 streams in the paper's Table I order.
std::vector<DatasetSpec> AllDatasets();

// Looks up a spec by name; aborts on unknown names.
DatasetSpec DatasetByName(const std::string& name);

// True when `name` is a built-in data set (AllDatasets), exact and
// case-sensitive. The binaries check names at parse time, so an unknown one
// is a usage error (exit 2) rather than the abort of DatasetByName.
bool IsDatasetName(const std::string& name);

// Effective sample count: full size capped at `max_samples` (0 = no cap).
std::size_t EffectiveSamples(const DatasetSpec& spec, std::size_t max_samples);

// Class priors with the given majority fraction; the remaining mass decays
// geometrically over the other classes (used to mimic Table I imbalance).
std::vector<double> ImbalancedPriors(std::size_t num_classes,
                                     double majority_fraction);

}  // namespace dmt::streams

#endif  // DMT_STREAMS_DATASETS_H_
