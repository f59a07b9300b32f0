#include "dmt/serial/archive.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>

#include "dmt/common/check.h"

namespace dmt::serial {

namespace {

// The text holds the 312 state words, then the index of the next word.
constexpr std::size_t kEngineWords = Mt19937_64::kStateSize + 1;

// Longest EngineText: 313 words of 20 digits and 312 spaces.
constexpr std::size_t kMaxEngineText = kEngineWords * 21 - 1;

// "00".."99" back to back: two digits per lookup.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

// Writes `chunk` (< 10^8) as exactly 8 digits, leading zeros included.
char* FormatEightDigits(std::uint32_t chunk, char* out) {
  for (int pair = 3; pair >= 0; --pair) {
    std::memcpy(out + 2 * pair, &kDigitPairs[2 * (chunk % 100)], 2);
    chunk /= 100;
  }
  return out + 8;
}

// Writes `word` in decimal at `out`. It is split at 10^16 and 10^8 so that
// all the digit arithmetic is on 32-bit values: the leading chunk goes
// through to_chars, every chunk after it is 8 digits with its leading
// zeros.
char* FormatWord(std::uint64_t word, char* out, char* end) {
  constexpr std::uint64_t k1e8 = 100'000'000;
  constexpr std::uint64_t k1e16 = k1e8 * k1e8;
  if (word < k1e8) {
    return std::to_chars(out, end, static_cast<std::uint32_t>(word)).ptr;
  }
  if (word < k1e16) {
    out = std::to_chars(out, end, static_cast<std::uint32_t>(word / k1e8)).ptr;
    return FormatEightDigits(static_cast<std::uint32_t>(word % k1e8), out);
  }
  const std::uint64_t low = word % k1e16;
  out = std::to_chars(out, end, static_cast<std::uint32_t>(word / k1e16)).ptr;
  out = FormatEightDigits(static_cast<std::uint32_t>(low / k1e8), out);
  return FormatEightDigits(static_cast<std::uint32_t>(low % k1e8), out);
}

// Writes EngineText into `buffer` (kMaxEngineText bytes); returns its
// length.
std::size_t FormatEngine(const Mt19937_64& engine, char* buffer) {
  char* const end = buffer + kMaxEngineText;
  char* out = buffer;
  for (const std::uint64_t word : engine.words()) {
    out = FormatWord(word, out, end);
    *out++ = ' ';
  }
  out = FormatWord(engine.index(), out, end);
  return static_cast<std::size_t>(out - buffer);
}

// Parses one canonical unsigned decimal (no sign, no leading zero) at
// `*pos`, advancing past it.
std::uint64_t ParseEngineWord(const char** pos, const char* end) {
  const char* p = *pos;
  Check(p < end && *p >= '0' && *p <= '9',
        "malformed RNG engine state: expected a decimal");
  Check(!(*p == '0' && p + 1 < end && p[1] >= '0' && p[1] <= '9'),
        "malformed RNG engine state: leading zero");
  std::uint64_t value = 0;
  const std::from_chars_result result = std::from_chars(p, end, value);
  Check(result.ec == std::errc(), "malformed RNG engine state: overflow");
  *pos = result.ptr;
  return value;
}

// Whether seeding with rng.seed() and discarding rng.draws() words
// reproduces the live engine: the invariant the counted record relies on.
[[maybe_unused]] bool CountedFormRebuilds(const dmt::Rng& rng) {
  Mt19937_64 rebuilt(rng.seed());
  rebuilt.discard(rng.draws());
  return rebuilt == rng.engine();
}

}  // namespace

std::string EngineText(const Mt19937_64& engine) {
  char buffer[kMaxEngineText];
  return std::string(buffer, FormatEngine(engine, buffer));
}

void ParseEngineText(std::string_view text, Mt19937_64* engine) {
  const char* pos = text.data();
  const char* const end = pos + text.size();
  std::uint64_t words[kEngineWords];
  for (std::size_t i = 0; i < kEngineWords; ++i) {
    if (i > 0) {
      Check(pos < end && *pos == ' ',
            "malformed RNG engine state: expected a single space");
      ++pos;
    }
    words[i] = ParseEngineWord(&pos, end);
  }
  Check(pos == end, "malformed RNG engine state: trailing bytes");
  Check(words[kEngineWords - 1] <= Mt19937_64::kStateSize,
        "malformed RNG engine state: index out of range");
  engine->SetState(std::span<const std::uint64_t, Mt19937_64::kStateSize>(
                       words, Mt19937_64::kStateSize),
                   words[kEngineWords - 1]);
}

void Writer::WriteExact(const void* src, std::size_t n) {
  out_.write(static_cast<const char*>(src), static_cast<std::streamsize>(n));
  if (!out_) throw SerialError("archive write failed");
}

void Writer::Header(std::uint32_t tag) {
  U32(kMagic);
  U32(kFormatVersion);
  U32(tag);
}

void Writer::U8(std::uint8_t v) { WriteExact(&v, 1); }

void Writer::U32(std::uint32_t v) {
  unsigned char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  WriteExact(buf, sizeof(buf));
}

void Writer::U64(std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  WriteExact(buf, sizeof(buf));
}

void Writer::F64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit IEEE-754");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void Writer::F32(float v) {
  std::uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v), "float must be 32-bit IEEE-754");
  std::memcpy(&bits, &v, sizeof(bits));
  U32(bits);
}

void Writer::Str(std::string_view s) {
  Size(s.size());
  if (!s.empty()) WriteExact(s.data(), s.size());
}

void Writer::VecF64(const std::vector<double>& v) {
  Size(v.size());
  for (double x : v) F64(x);
}

void Writer::Rng(const dmt::Rng& rng) {
  if (rng.counted() && rng.draws() <= kMaxRngDraws) {
    DMT_DCHECK(CountedFormRebuilds(rng));
    CountedRng(rng.seed(), rng.draws());
  } else {
    TextRng(rng.engine());
  }
}

void Writer::Rng(const dmt::ParkedRng& rng) {
  if (rng.counted()) {
    CountedRng(rng.seed(), rng.draws());
  } else {
    TextRng(*rng.engine());
  }
}

void Writer::CountedRng(std::uint64_t seed, std::uint64_t draws) {
  U8(static_cast<std::uint8_t>(RngForm::kCounted));
  U64(seed);
  U64(draws);
}

void Writer::TextRng(const Mt19937_64& engine) {
  U8(static_cast<std::uint8_t>(RngForm::kText));
  char buffer[kMaxEngineText];
  const std::size_t n = FormatEngine(engine, buffer);
  Size(n);
  WriteExact(buffer, n);
}

void Reader::ReadExact(void* dst, std::size_t n) {
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in_.gcount()) != n) {
    throw SerialError("unexpected end of archive");
  }
}

std::uint32_t Reader::Header() {
  Check(U32() == kMagic, "bad magic: not a DMT model archive");
  const std::uint32_t version = U32();
  if (version < kMinReadVersion || version > kFormatVersion) {
    throw SerialError("unsupported archive format version " +
                      std::to_string(version) + " (this build reads versions " +
                      std::to_string(kMinReadVersion) + ".." +
                      std::to_string(kFormatVersion) + ")");
  }
  version_ = version;
  return U32();
}

void Reader::Header(std::uint32_t expected_tag) {
  Check(Header() == expected_tag, "archive holds a different learner type");
}

std::uint8_t Reader::U8() {
  std::uint8_t v;
  ReadExact(&v, 1);
  return v;
}

std::uint32_t Reader::U32() {
  unsigned char buf[4];
  ReadExact(buf, sizeof(buf));
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf[i]) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::U64() {
  unsigned char buf[8];
  ReadExact(buf, sizeof(buf));
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  }
  return v;
}

std::size_t Reader::Size(std::size_t max) {
  const std::uint64_t v = U64();
  if (v > max) {
    throw SerialError("archived count " + std::to_string(v) +
                      " exceeds the plausible bound " + std::to_string(max));
  }
  return static_cast<std::size_t>(v);
}

bool Reader::Bool() {
  const std::uint8_t v = U8();
  Check(v <= 1, "archived bool is neither 0 nor 1");
  return v == 1;
}

double Reader::F64() {
  const std::uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

float Reader::F32() {
  const std::uint32_t bits = U32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::Str(std::size_t max_len) {
  std::string s;
  Str(max_len, &s);
  return s;
}

void Reader::Str(std::size_t max_len, std::string* s) {
  const std::size_t n = Size(max_len);
  // Grown chunk by chunk: a lying length prefix exhausts the stream (and
  // throws) after at most one chunk more than the bytes that exist.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  s->clear();
  while (s->size() < n) {
    const std::size_t done = s->size();
    s->resize(done + std::min(n - done, kChunk));
    ReadExact(s->data() + done, s->size() - done);
  }
}

std::vector<double> Reader::VecF64(std::size_t max_len) {
  const std::size_t n = Size(max_len);
  std::vector<double> v;
  // Capped reserve: a lying length prefix exhausts the stream (and throws)
  // after at most one small allocation, instead of reserving gigabytes.
  v.reserve(std::min<std::size_t>(n, 4096));
  for (std::size_t i = 0; i < n; ++i) v.push_back(F64());
  return v;
}

std::vector<double> Reader::VecF64Exact(std::size_t n) {
  std::vector<double> v = VecF64(std::max<std::size_t>(n, kMaxVector));
  if (v.size() != n) {
    throw SerialError("archived vector length " + std::to_string(v.size()) +
                      " does not match the expected " + std::to_string(n));
  }
  return v;
}

void Reader::VecF64Exact(std::span<double> out) {
  const std::size_t n = Size(std::max<std::size_t>(out.size(), kMaxVector));
  if (n != out.size()) {
    throw SerialError("archived vector length " + std::to_string(n) +
                      " does not match the expected " +
                      std::to_string(out.size()));
  }
  for (double& v : out) v = F64();
}

template <typename Generator>
void Reader::RngRecord(Generator* generator) {
  if (version_ >= 4) {
    const std::uint8_t form = U8();
    if (form == static_cast<std::uint8_t>(RngForm::kCounted)) {
      const std::uint64_t seed = U64();
      const std::uint64_t draws = U64();
      if (draws > kMaxRngDraws) {
        throw SerialError("RNG record draws " + std::to_string(draws) +
                          " exceed the bound " + std::to_string(kMaxRngDraws));
      }
      generator->Restore(seed, draws);
      return;
    }
    if (form != static_cast<std::uint8_t>(RngForm::kText)) {
      throw SerialError("unknown RNG record form " + std::to_string(form));
    }
  }
  char buffer[kMaxEngineText];
  const std::size_t n = Size(kMaxEngineText);
  ReadExact(buffer, n);
  Mt19937_64 engine;
  ParseEngineText(std::string_view(buffer, n), &engine);
  generator->Restore(engine);
}

void Reader::Rng(dmt::Rng* rng) { RngRecord(rng); }

void Reader::Rng(dmt::ParkedRng* rng) { RngRecord(rng); }

}  // namespace dmt::serial
