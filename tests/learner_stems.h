// The classifier tests name each learner by a short stem ("VFDT", "ARF"):
// the stems spell the parameterized test names and the golden archive
// files bench/goldens/<stem>.dmts, so they stay fixed while the learners
// are built through the one registry, serial::MakeClassifier.
#ifndef DMT_TESTS_LEARNER_STEMS_H_
#define DMT_TESTS_LEARNER_STEMS_H_

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dmt/serial/model_io.h"

namespace dmt::teststems {

// {stem, registry name} for every classifier, in registry order.
inline constexpr std::pair<const char*, const char*> kClassifiers[] = {
    {"DMT", "DMT"},           {"FIMT-DD", "FIMT-DD"}, {"VFDT", "VFDT(MC)"},
    {"VFDT-NBA", "VFDT(NBA)"}, {"HT-Ada", "HT-Ada"},   {"EFDT", "EFDT"},
    {"ARF", "ForestEns"},     {"LevBag", "BaggingEns"}, {"GLM", "GLM"}};

inline std::vector<const char*> AllStems() {
  std::vector<const char*> stems;
  for (const auto& [stem, name] : kClassifiers) stems.push_back(stem);
  return stems;
}

// The learner behind `stem`, every config field at its default (seed 42).
inline std::unique_ptr<Classifier> MakeStem(const std::string& stem, int m,
                                            int c) {
  for (const auto& [known, name] : kClassifiers) {
    if (stem == known) return serial::MakeClassifier(name, m, c, 42);
  }
  throw std::invalid_argument("no classifier for stem " + stem);
}

}  // namespace dmt::teststems

#endif  // DMT_TESTS_LEARNER_STEMS_H_
