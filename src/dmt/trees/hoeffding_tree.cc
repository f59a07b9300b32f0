#include "dmt/trees/hoeffding_tree.h"

#include <numeric>

namespace dmt::trees {

void CheckArchive(bool ok, const char* tree, const char* what) {
  if (!ok) {
    throw serial::SerialError(std::string(tree).append(" ").append(what));
  }
}

NodeStats::NodeStats(int num_features, int num_classes)
    : class_counts(num_classes, 0.0),
      observers(num_features, NumericObserver(num_classes)) {}

void NodeStats::Learn(std::span<const double> x, int y, int count) {
  class_counts[y] += count;
  weight_seen += count;
  for (std::size_t j = 0; j < observers.size(); ++j) {
    observers[j].Add(x[j], y, count);
  }
}

bool NodeStats::AttemptDue(double period) {
  if (weight_seen - weight_at_last_attempt < period) return false;
  weight_at_last_attempt = weight_seen;
  return true;
}

bool NodeStats::IsPure() const {
  double nonzero = 0.0;
  for (double c : class_counts) nonzero += c > 0.0 ? 1.0 : 0.0;
  return nonzero < 2.0;
}

int NodeStats::MajorityClass() const {
  return static_cast<int>(
      std::max_element(class_counts.begin(), class_counts.end()) -
      class_counts.begin());
}

void NodeStats::MajorityProbaInto(std::span<double> out) const {
  if (weight_seen <= 0.0) {
    std::fill(out.begin(), out.end(),
              1.0 / static_cast<double>(class_counts.size()));
    return;
  }
  for (std::size_t c = 0; c < class_counts.size(); ++c) {
    out[c] = class_counts[c] / weight_seen;
  }
}

void NodeStats::SaveObservers(serial::Writer& writer) const {
  writer.Size(observers.size());
  for (const NumericObserver& obs : observers) obs.Save(writer);
}

void NodeStats::LoadObservers(serial::Reader& reader, int num_features,
                              int num_classes, const char* tree) {
  const std::size_t features = static_cast<std::size_t>(num_features);
  const std::size_t count = reader.Size(features);
  CheckArchive(count == 0 || count == features, tree,
               "observer count is neither empty nor one per feature");
  observers.clear();
  for (std::size_t j = 0; j < count; ++j) {
    observers.push_back(NumericObserver::Load(reader, num_classes));
  }
}

std::vector<int>& SplitScanner::AllFeatures(int num_features) {
  features_.resize(num_features);
  std::iota(features_.begin(), features_.end(), 0);
  return features_;
}

SplitRanking SplitScanner::Rank(const NodeStats& stats,
                                std::span<const int> features,
                                int num_candidates) {
  scratch_.resize(3 * stats.class_counts.size());
  // The parent is the same for every threshold of every feature.
  const ParentTerms parent = ParentTermsOf(stats.class_counts);
  SplitRanking ranking;
  for (int j : features) {
    const SplitCandidate s = stats.observers[j].BestSplitInto(
        j, stats.class_counts, parent, num_candidates, scratch_);
    if (s.merit > ranking.best.merit) {
      ranking.second = ranking.best;
      ranking.best = s;
    } else if (s.merit > ranking.second.merit) {
      ranking.second = s;
    }
  }
  return ranking;
}

double SplitScanner::MeritOf(const NodeStats& stats, int feature,
                             double threshold) {
  const std::size_t num_classes = stats.class_counts.size();
  scratch_.resize(3 * num_classes);
  const std::span<double> sd(scratch_.data(), num_classes);
  const std::span<double> left(scratch_.data() + num_classes, num_classes);
  const std::span<double> right(scratch_.data() + 2 * num_classes,
                                num_classes);
  const NumericObserver& observer = stats.observers[feature];
  observer.StdDevsInto(sd);
  observer.CountsBelowInto(threshold, sd, left);
  for (std::size_t c = 0; c < num_classes; ++c) {
    right[c] = std::max(0.0, stats.class_counts[c] - left[c]);
  }
  return InfoGain(stats.class_counts, left, right);
}

}  // namespace dmt::trees
