// Split criteria shared by the Hoeffding-tree family: the Hoeffding bound,
// information gain over class distributions, and the numeric-target
// sufficient statistics behind FIMT-DD-R's standard deviation criterion.
#ifndef DMT_TREES_SPLIT_CRITERIA_H_
#define DMT_TREES_SPLIT_CRITERIA_H_

#include <span>
#include <vector>

namespace dmt::trees {

// Hoeffding bound: with probability 1-delta the true mean of a random
// variable with range R lies within epsilon of the empirical mean of n
// observations (paper Sec. I-B; Domingos & Hulten 2000).
double HoeffdingBound(double range, double delta, double n);

// Entropy of an unnormalized class-count distribution (bits).
double Entropy(std::span<const double> class_counts);

// The parent terms of information gain: the parent's total weight and
// entropy. They are fixed over a split scan, so the scan computes them once
// for every threshold of every feature.
struct ParentTerms {
  double n = 0.0;
  double entropy = 0.0;
};
ParentTerms ParentTermsOf(std::span<const double> parent);

// Information gain of a binary partition given unnormalized class counts.
double InfoGain(const ParentTerms& parent, std::span<const double> left,
                std::span<const double> right);
double InfoGain(std::span<const double> parent, std::span<const double> left,
                std::span<const double> right);

// Sufficient statistics (count, sum, sum of squares) of a numeric target.
struct TargetStats {
  double n = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;

  double StdDev() const;
};

}  // namespace dmt::trees

#endif  // DMT_TREES_SPLIT_CRITERIA_H_
