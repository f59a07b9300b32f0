#include "dmt/trees/split_criteria.h"

#include <cmath>

namespace dmt::trees {

double HoeffdingBound(double range, double delta, double n) {
  if (n <= 0.0) return range;
  return std::sqrt(range * range * std::log(1.0 / delta) / (2.0 * n));
}

double Entropy(std::span<const double> class_counts) {
  double total = 0.0;
  for (double c : class_counts) total += c;
  if (total <= 0.0) return 0.0;
  double entropy = 0.0;
  for (double c : class_counts) {
    if (c <= 0.0) continue;
    const double p = c / total;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

double InfoGain(std::span<const double> parent, std::span<const double> left,
                std::span<const double> right) {
  double n_parent = 0.0;
  double n_left = 0.0;
  double n_right = 0.0;
  for (double c : parent) n_parent += c;
  for (double c : left) n_left += c;
  for (double c : right) n_right += c;
  if (n_parent <= 0.0) return 0.0;
  return Entropy(parent) - (n_left / n_parent) * Entropy(left) -
         (n_right / n_parent) * Entropy(right);
}

double TargetStats::StdDev() const {
  if (n <= 1.0) return 0.0;
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

}  // namespace dmt::trees
