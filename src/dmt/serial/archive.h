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
#include <span>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "dmt/common/random.h"

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
// gradients (F32 rows when the store runs in float32 mode); 4 = seeded
// generators stored as (seed, draws) RNG records, the retired GLM and VFDT
// slots no longer written, and the DMT's structural event ring.
inline constexpr std::uint32_t kFormatVersion = 4;
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

// Canonical text of an MT19937-64 state: the 312 state words, then the
// index of the next word to draw (0..312), in decimal without sign or
// leading zeros, separated by single spaces -- byte for byte what
// libstdc++'s operator<< writes for the equal std::mt19937_64. Archives up
// to format 3 store every generator as this text; format 4 only when the
// counted form does not apply (see Writer::Rng).
std::string EngineText(const Mt19937_64& engine);
// Inverse of EngineText. Accepts only the canonical text (313 unsigned
// decimals separated by single spaces, index <= 312, nothing after it) and
// throws SerialError on anything else.
void ParseEngineText(std::string_view text, Mt19937_64* engine);

// The RNG record of format 4 opens with one of these forms.
enum class RngForm : std::uint8_t {
  kCounted = 0,  // u64 seed, u64 draws
  kText = 1,     // length-prefixed EngineText
};
// Most draws a counted record may hold (defined with the generators).
using dmt::kMaxRngDraws;

// In-memory byte streams for a Writer or Reader, neither buffering nor
// copying: StringSink appends every byte written through it to a
// caller-owned string, ViewSource reads a caller-owned byte range in place.
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string* bytes) : bytes_(bytes) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_->append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    bytes_->push_back(traits_type::to_char_type(c));
    return c;
  }

 private:
  std::string* bytes_;
};

class ViewSource : public std::streambuf {
 public:
  explicit ViewSource(std::string_view bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
  // Bytes not read yet.
  std::size_t remaining() const {
    return static_cast<std::size_t>(egptr() - gptr());
  }
};

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
  void Str(std::string_view s);
  void VecF64(const std::vector<double>& v);
  // The RNG record: RngForm::kCounted with the seed and the draw count when
  // `rng` is counted and has drawn at most kMaxRngDraws words, else
  // RngForm::kText with the engine's EngineText.
  void Rng(const dmt::Rng& rng);
  // The same record for a parked generator: counted while it holds no
  // engine, written straight from its seed and draw count.
  void Rng(const dmt::ParkedRng& rng);

 private:
  void CountedRng(std::uint64_t seed, std::uint64_t draws);
  void TextRng(const Mt19937_64& engine);
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
  // The same into `*s`, replacing its contents but keeping its capacity.
  void Str(std::size_t max_len, std::string* s);
  std::vector<double> VecF64(std::size_t max_len = kMaxVector);
  // Like VecF64 but the archived length must equal `n` exactly.
  std::vector<double> VecF64Exact(std::size_t n);
  // The same into `out`, whose size is the expected length; allocates
  // nothing.
  void VecF64Exact(std::span<double> out);
  // The RNG record into `*rng`: a counted record reseeds and discards, a
  // text record (and every generator of a format 3 or older archive, a
  // bare length-prefixed EngineText) leaves `*rng` uncounted. Throws
  // SerialError on an unknown form, draws above kMaxRngDraws or text that
  // is not canonical.
  void Rng(dmt::Rng* rng);
  // The same into a parked generator: a counted record is stored without
  // seeding, a text record parks its engine.
  void Rng(dmt::ParkedRng* rng);

 private:
  // Reads one RNG record into `generator` through its Restore overloads.
  template <typename Generator>
  void RngRecord(Generator* generator);
  void ReadExact(void* dst, std::size_t n);
  std::istream& in_;
  std::uint32_t version_ = kFormatVersion;
};

}  // namespace dmt::serial

#endif  // DMT_SERIAL_ARCHIVE_H_
