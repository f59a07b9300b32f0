// Versioned binary model archives. One format for every learner: a fixed
// header (magic + format version + learner FourCC tag) followed by a
// learner-specific record of little-endian fixed-width integers, raw
// IEEE-754 doubles and length-prefixed vectors/strings. The encoding is
// deterministic -- the same model state always produces the same bytes --
// which is what lets the conformance suite compare snapshots with memcmp.
//
// Decoding is hostile-input safe: every read is bounds-checked and every
// malformed field (bad magic, wrong version, wrong tag, truncated stream,
// out-of-range count, non-finite dimension) raises SerialError. Load never
// aborts, never invokes UB, and never allocates proportionally to an
// attacker-chosen length before the stream has actually produced the bytes.
#ifndef DMT_SERIAL_ARCHIVE_H_
#define DMT_SERIAL_ARCHIVE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace dmt::serial {

// Thrown on any malformed archive. The only failure mode of Load.
class SerialError : public std::runtime_error {
 public:
  explicit SerialError(const std::string& what) : std::runtime_error(what) {}
};

constexpr std::uint32_t FourCC(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

inline constexpr std::uint32_t kMagic = FourCC('D', 'M', 'T', 'S');
// Version history: 1 = initial format; 2 = dirty-node gain scheduler
// (per-tree gain_test_every/gain_test_threshold knobs, per-node
// samples_since_test/loss_since_test accumulators); 3 = training hot-path
// knobs (per-tree order_buckets/candidate_grad_f32) and typed candidate
// gradients (F32 rows when the store runs in float32 mode).
inline constexpr std::uint32_t kFormatVersion = 3;
// Oldest archive version this build still reads. v2 archives decode with
// the hot-path knobs defaulted off (exact order statistics, f64 candidate
// gradients), so a restored model continues training exactly as the build
// that wrote it.
inline constexpr std::uint32_t kMinReadVersion = 2;

// Shared sanity caps for decoded dimensions. Legitimate models sit far
// below these; a fuzzer-supplied count above them fails fast instead of
// attempting a multi-gigabyte allocation.
inline constexpr std::int64_t kMaxFeatures = 1 << 20;
inline constexpr std::int64_t kMaxClasses = 1 << 16;
inline constexpr std::size_t kMaxVector = std::size_t{1} << 24;
inline constexpr std::size_t kMaxTreeDepth = 10'000;

inline void Check(bool ok, const char* what) {
  if (!ok) throw SerialError(what);
}

// Range-validated pass-through for decoded counts and enum values.
inline std::int64_t CheckedRange(std::int64_t v, std::int64_t lo,
                                 std::int64_t hi, const char* what) {
  if (v < lo || v > hi) {
    throw SerialError(std::string(what) + " out of range: " +
                      std::to_string(v));
  }
  return v;
}

inline double CheckedFinite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw SerialError(std::string(what) + " is not finite");
  }
  return v;
}

// Little-endian binary writer. Throws SerialError if the underlying stream
// rejects a write (disk full, closed pipe), so a torn save never goes
// unnoticed.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void Header(std::uint32_t tag);
  void U8(std::uint8_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Size(std::size_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v);  // raw IEEE-754 bit pattern
  void F32(float v);   // raw IEEE-754 bit pattern (f32 candidate gradients)
  void Str(const std::string& s);
  void VecF64(const std::vector<double>& v);
  // std::mt19937_64 state via its textual representation (the only
  // portable exact round-trip the standard guarantees).
  void Engine(const std::mt19937_64& engine);

 private:
  void WriteExact(const void* src, std::size_t n);
  std::ostream& out_;
};

// Checked little-endian binary reader; every method throws SerialError on
// truncation or an out-of-range value.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  // Validates magic + version and returns the learner tag. Accepts any
  // version in [kMinReadVersion, kFormatVersion]; the decoded version is
  // exposed via version() so records can gate fields added in later
  // versions.
  std::uint32_t Header();
  // Validates magic + version + this exact learner tag.
  void Header(std::uint32_t expected_tag);
  // Archive format version decoded by Header() (kFormatVersion before any
  // Header call).
  std::uint32_t version() const { return version_; }
  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  // Count with an explicit upper bound -- container reads must state how
  // large is plausible.
  std::size_t Size(std::size_t max);
  bool Bool();  // strict: only 0 or 1 decode
  double F64();
  float F32();
  std::string Str(std::size_t max_len);
  std::vector<double> VecF64(std::size_t max_len = kMaxVector);
  // Like VecF64 but the archived length must equal `n` exactly.
  std::vector<double> VecF64Exact(std::size_t n);
  void Engine(std::mt19937_64* engine);

 private:
  void ReadExact(void* dst, std::size_t n);
  std::istream& in_;
  std::uint32_t version_ = kFormatVersion;
};

}  // namespace dmt::serial

#endif  // DMT_SERIAL_ARCHIVE_H_
