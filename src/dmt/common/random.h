// Seedable random number generator used by every stochastic component.
//
// All experiments specify a seed (the paper: "We specified a random state to
// guarantee the reproducibility of all results"), so nothing in the library
// draws from an implicit global generator.
#ifndef DMT_COMMON_RANDOM_H_
#define DMT_COMMON_RANDOM_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "dmt/common/check.h"

namespace dmt {

// SplitMix64 finalizer (Steele, Lea & Flood 2014): bijective avalanche mix
// used to turn structured seed material into well-distributed engine seeds.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Derives an independent seed from a base seed and up to two string tags
// (FNV-1a over the tag bytes, SplitMix64-finalized). The parallel sweep
// seeds every (dataset, model) cell this way -- from data identity, never
// from thread identity or scheduling order -- so results are bit-identical
// at any thread count.
inline std::uint64_t DeriveSeed(std::uint64_t base, std::string_view tag1,
                                std::string_view tag2 = {}) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ SplitMix64(base);
  auto mix = [&h](std::string_view tag) {
    for (const char c : tag) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
    h ^= tag.size();  // length-delimits the tags: ("ab","c") != ("a","bc")
    h *= 0x100000001b3ULL;
  };
  mix(tag1);
  mix(tag2);
  return SplitMix64(h);
}

// MT19937-64 (Matsumoto & Nishimura), word for word the generator of
// std::mt19937_64: the same seeding, state (312 words and the index of the
// next word to draw), twist and tempering, so every std:: distribution and
// std::shuffle draws the same values from it. The twist selects the matrix
// term without a branch, (0 - (y & 1)) & a, where libstdc++ branches on
// each random bit; a fresh engine's first draw twists all 312 words, a
// large share of what creating a model costs. Owning the state also gives
// the archive codec (serial::EngineText) a documented layout to read, and
// lets the engine count the words it hands out: a state reached by
// seed(s) and n draws is rebuilt by seed(s) and discard(n), which is how
// archives store a seeded generator (serial::Writer::Rng).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;
  static constexpr result_type default_seed = 5489u;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type value = default_seed) { seed(value); }

  void seed(result_type value) {
    words_[0] = value;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      const result_type prev = words_[i - 1];
      words_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
    index_ = kStateSize;
    draws_ = 0;
  }

  result_type operator()() {
    if (index_ >= kStateSize) Twist();
    ++draws_;
    result_type z = words_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  // Advances the state as `n` draws would, one twist per 312 words and
  // without tempering any of them.
  void discard(unsigned long long n) {
    while (n > 0) {
      if (index_ >= kStateSize) Twist();
      const std::size_t step = static_cast<std::size_t>(
          std::min<unsigned long long>(n, kStateSize - index_));
      index_ += step;
      draws_ += step;
      n -= step;
    }
  }

  // Words drawn or discarded since the last seed() or SetState().
  std::uint64_t draws() const { return draws_; }

  // The state: 312 words, then the index of the next word to draw (0..312;
  // 312 twists before the next draw). serial::EngineText writes it.
  const std::array<result_type, kStateSize>& words() const { return words_; }
  std::size_t index() const { return index_; }
  void SetState(std::span<const result_type, kStateSize> words,
                std::size_t index) {
    DMT_CHECK(index <= kStateSize);
    std::copy(words.begin(), words.end(), words_.begin());
    index_ = index;
    draws_ = 0;
  }

  // Equal engines draw equal words from here on; the draw count is
  // history, not state.
  friend bool operator==(const Mt19937_64& a, const Mt19937_64& b) {
    return a.index_ == b.index_ && a.words_ == b.words_;
  }

 private:
  void Twist() {
    constexpr std::size_t kShift = 156;  // the recurrence's middle offset
    constexpr result_type kMatrix = 0xb5026f5aa96619e9ULL;
    constexpr result_type kUpper = ~result_type{0} << 31;
    constexpr result_type kLower = ~kUpper;
    const auto next = [](result_type high, result_type low, result_type mid) {
      const result_type y = (high & kUpper) | (low & kLower);
      return mid ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrix);
    };
    std::size_t i = 0;
    for (; i < kStateSize - kShift; ++i) {
      words_[i] = next(words_[i], words_[i + 1], words_[i + kShift]);
    }
    for (; i < kStateSize - 1; ++i) {
      words_[i] =
          next(words_[i], words_[i + 1], words_[i + kShift - kStateSize]);
    }
    words_[i] = next(words_[i], words_[0], words_[kShift - 1]);
    index_ = 0;
  }

  std::array<result_type, kStateSize> words_{};
  std::size_t index_ = kStateSize;
  std::uint64_t draws_ = 0;
};

// The seeded generator of every stochastic component. It is a uniform
// random bit generator itself, so std::shuffle and the std:: distributions
// draw through it and the engine counts every word; no caller reaches the
// engine to draw around the count.
class Rng {
 public:
  using result_type = Mt19937_64::result_type;
  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }

  explicit Rng(std::uint64_t seed = 42) : engine_(seed), seed_(seed) {}

  // One raw 64-bit word.
  result_type operator()() { return engine_(); }

  // Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  int Poisson(double mean) {
    return std::poisson_distribution<int>(mean)(engine_);
  }

  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  // Samples an index according to non-negative weights (need not sum to 1).
  int Categorical(const std::vector<double>& weights) {
    return std::discrete_distribution<int>(weights.begin(), weights.end())(
        engine_);
  }

  // Derives an independent child generator; used to hand each ensemble
  // member / stream its own deterministic substream.
  Rng Fork() { return Rng(engine_()); }

  // --- Archive state (serial::Writer::Rng) ---------------------------------
  // A counted Rng is its seed and the words drawn since. One restored from
  // generator text (an archive of format 3 or older, or a text record) is
  // uncounted: its history is unknown, so only the text can store it.
  bool counted() const { return counted_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t draws() const { return engine_.draws(); }
  const Mt19937_64& engine() const { return engine_; }
  // The counted state: seeded with `seed`, then `draws` words discarded.
  void Restore(std::uint64_t seed, std::uint64_t draws) {
    engine_.seed(seed);
    engine_.discard(draws);
    seed_ = seed;
    counted_ = true;
  }
  // An engine state of unknown history; the Rng becomes uncounted.
  void Restore(const Mt19937_64& engine) {
    engine_ = engine;
    counted_ = false;
  }

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
  bool counted_ = true;
};

}  // namespace dmt

#endif  // DMT_COMMON_RANDOM_H_
