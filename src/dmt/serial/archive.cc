#include "dmt/serial/archive.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

namespace dmt::serial {

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

void Writer::Str(const std::string& s) {
  Size(s.size());
  if (!s.empty()) WriteExact(s.data(), s.size());
}

void Writer::VecF64(const std::vector<double>& v) {
  Size(v.size());
  for (double x : v) F64(x);
}

void Writer::Engine(const std::mt19937_64& engine) {
  std::ostringstream text;
  text << engine;
  Str(text.str());
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
  const std::size_t n = Size(max_len);
  std::string s(n, '\0');
  if (n > 0) ReadExact(&s[0], n);
  return s;
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

void Reader::Engine(std::mt19937_64* engine) {
  // ~6.5 KB of decimal digits for the 312-word state; 64 KB is generous.
  const std::string text = Str(std::size_t{1} << 16);
  std::istringstream parse(text);
  parse >> *engine;
  Check(!parse.fail(), "malformed RNG engine state");
}

}  // namespace dmt::serial
