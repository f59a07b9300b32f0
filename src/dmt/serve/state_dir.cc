#include "dmt/serve/state_dir.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>

#include <fcntl.h>
#include <unistd.h>

#include "dmt/robust/failpoint.h"

namespace dmt::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char kManifestPrefix[] = "manifest-";
constexpr const char kManifestSuffix[] = ".dmtm";
// Caps for decoded manifest fields; a fuzzer-supplied length fails fast.
constexpr std::size_t kMaxStreamId = 4096;
constexpr std::size_t kMaxRngText = std::size_t{1} << 16;
constexpr std::size_t kMaxArchive = std::size_t{1} << 30;
constexpr std::size_t kMaxStreams = std::size_t{1} << 24;
constexpr std::size_t kMaxModelKind = 256;

std::uint64_t Fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Parses the zero-padded sequence number out of a manifest file name;
// nullopt for anything that is not exactly prefix + digits + suffix
// (which also skips stale ".tmp" leftovers from a crashed write).
std::optional<std::uint64_t> ManifestSeqOf(const std::string& name) {
  const std::size_t prefix = sizeof(kManifestPrefix) - 1;
  const std::size_t suffix = sizeof(kManifestSuffix) - 1;
  if (name.size() <= prefix + suffix) return std::nullopt;
  if (name.compare(0, prefix, kManifestPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix, suffix, kManifestSuffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = prefix; i < name.size() - suffix; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

void EncodeHead(serial::Writer& writer, const ManifestHead& head,
                std::size_t num_streams) {
  writer.Header(kTagManifest);
  writer.U64(head.seq);
  writer.Str(head.model_kind);
  writer.I32(head.num_features);
  writer.I32(head.num_classes);
  writer.U64(head.seed);
  writer.U64(head.batch_window);
  for (const double rate : head.inject_rates) writer.F64(rate);
  const ManifestTallies& t = head.tallies;
  for (const std::uint64_t v :
       {t.requests, t.parse_errors, t.rejected, t.bad_rows, t.values_imputed,
        t.train_rows, t.score_rows, t.snapshots, t.restores, t.drops,
        t.streams_created, t.windows, t.evictions, t.warm_starts,
        t.checkpoints, t.injected_rows, t.state_errors}) {
    writer.U64(v);
  }
  writer.Size(num_streams);
}

void EncodeRecord(serial::Writer& writer, const ManifestRecord& record) {
  writer.Str(record.id);
  writer.Bool(record.resident);
  writer.U64(record.rows_trained);
  writer.U64(record.last_touch);
  writer.U64(record.last_window);
  writer.Bool(record.inject_rng != nullptr);
  if (record.inject_rng != nullptr) writer.Rng(*record.inject_rng);
  writer.Str(record.archive);
}

Manifest DecodeManifest(serial::Reader& reader) {
  Manifest manifest;
  reader.Header(kTagManifest);
  manifest.seq = reader.U64();
  manifest.model_kind = reader.Str(kMaxModelKind);
  manifest.num_features = static_cast<std::int32_t>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "manifest num_features"));
  manifest.num_classes = static_cast<std::int32_t>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "manifest num_classes"));
  manifest.seed = reader.U64();
  manifest.batch_window = reader.U64();
  serial::CheckedRange(static_cast<std::int64_t>(manifest.batch_window), 1,
                       std::int64_t{1} << 32, "manifest batch_window");
  for (double& rate : manifest.inject_rates) {
    rate = serial::CheckedFinite(reader.F64(), "manifest inject rate");
    serial::Check(rate >= 0.0 && rate <= 1.0,
                  "manifest inject rate out of [0,1]");
  }
  ManifestTallies& t = manifest.tallies;
  for (std::uint64_t* v :
       {&t.requests, &t.parse_errors, &t.rejected, &t.bad_rows,
        &t.values_imputed, &t.train_rows, &t.score_rows, &t.snapshots,
        &t.restores, &t.drops, &t.streams_created, &t.windows, &t.evictions,
        &t.warm_starts, &t.checkpoints, &t.injected_rows, &t.state_errors}) {
    *v = reader.U64();
  }
  const std::size_t count = reader.Size(kMaxStreams);
  manifest.streams.reserve(std::min<std::size_t>(count, 4096));
  for (std::size_t i = 0; i < count; ++i) {
    ManifestStream stream;
    stream.id = reader.Str(kMaxStreamId);
    serial::Check(!stream.id.empty(), "manifest stream id is empty");
    stream.resident = reader.Bool();
    stream.rows_trained = reader.U64();
    stream.last_touch = reader.U64();
    stream.last_window = reader.U64();
    if (reader.version() <= 3) {
      // Format 3 stored the generator as EngineText, "" when unused.
      const std::string text = reader.Str(kMaxRngText);
      if (!text.empty()) {
        Mt19937_64 engine;
        serial::ParseEngineText(text, &engine);
        stream.inject_rng = std::make_unique<Rng>();
        stream.inject_rng->Restore(engine);
      }
    } else if (reader.Bool()) {
      stream.inject_rng = std::make_unique<Rng>();
      reader.Rng(stream.inject_rng.get());
    }
    stream.archive = reader.Str(kMaxArchive);
    serial::Check(!stream.archive.empty(), "manifest stream archive is empty");
    manifest.streams.push_back(std::move(stream));
  }
  return manifest;
}

// Crash point `<prefix>.<n>.<point>`, with `.<index>` appended when an
// index is given: the manifest writer's `manifest.<seq>.*` (see
// WriteManifest in the header) and the park log's `park.*`. Free while no
// failpoint is armed.
constexpr std::size_t kNoIndex = ~std::size_t{0};

void CrashPoint(const char* prefix, std::uint64_t n, const char* point,
                std::size_t index = kNoIndex) {
  robust::FailpointRegistry& registry = robust::GlobalFailpoints();
  if (registry.num_armed() == 0) return;
  std::string name(prefix);
  name.append(".").append(std::to_string(n)).append(".").append(point);
  if (index != kNoIndex) name.append(".").append(std::to_string(index));
  DMT_CRASHPOINT(registry.Find(name));
}

// One eviction record: the bytes of a park log record and of a
// single-file eviction archive alike.
void EncodeEvictionRecord(serial::Writer& writer, std::string_view stream_id,
                          std::string_view archive) {
  writer.Header(kTagEviction);
  writer.Str(stream_id);
  writer.Str(archive);
}

// Decodes one eviction record into `*archive`. Throws StateError naming
// `where` when the record holds another stream, SerialError when it is
// malformed.
template <typename Where>
void DecodeEvictionRecord(serial::Reader& reader, std::string_view stream_id,
                          const Where& where, std::string* archive) {
  reader.Header(kTagEviction);
  reader.Str(kMaxStreamId, archive);  // the recorded id, checked first
  if (*archive != stream_id) {
    throw StateError(where() + " holds stream '" + *archive + "', expected '" +
                     std::string(stream_id) + "'");
  }
  reader.Str(kMaxArchive, archive);
}

// Write-to-temp + rename of one encoded payload; shared by the manifest
// and eviction-archive writers. Removes its own temp file on failure.
// `before_rename` runs once the temp file is complete.
template <typename EncodeFn, typename BeforeRenameFn>
void AtomicPublish(const std::string& path, const char* what,
                   EncodeFn&& encode, BeforeRenameFn&& before_rename) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw StateError(std::string("cannot write ") + what + ": " + tmp);
    serial::Writer writer(out);
    encode(writer);
    out.flush();
    if (!out) throw StateError(std::string(what) + " write failed: " + tmp);
  } catch (const serial::SerialError& e) {
    std::remove(tmp.c_str());
    throw StateError(std::string(what) + " write failed: " + e.what());
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  before_rename();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw StateError(std::string("cannot publish ") + what + ": " + path);
  }
}

}  // namespace

std::string ManifestFileName(std::uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%020llu%s", kManifestPrefix,
                static_cast<unsigned long long>(seq), kManifestSuffix);
  return name;
}

std::string EvictionFileName(const std::string& stream_id) {
  std::string prefix;
  for (const char c : stream_id) {
    if (prefix.size() >= 40) break;
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    prefix.push_back(safe ? c : '_');
  }
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(stream_id)));
  return prefix + "-" + hash + ".dmts";
}

void EnsureStateDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "evicted", ec);
  if (ec || !fs::is_directory(dir)) {
    throw StateError("cannot create state dir: " + dir +
                     (ec ? " (" + ec.message() + ")" : ""));
  }
}

void WriteManifest(const std::string& dir, const Manifest& manifest) {
  WriteManifest(dir, manifest, manifest.streams.size(),
                [&manifest](std::size_t i, ManifestRecord* record) {
                  const ManifestStream& stream = manifest.streams[i];
                  *record = {stream.id,          stream.resident,
                             stream.rows_trained, stream.last_touch,
                             stream.last_window,  stream.inject_rng.get(),
                             stream.archive};
                });
}

void WriteManifest(
    const std::string& dir, const ManifestHead& head, std::size_t num_streams,
    const std::function<void(std::size_t, ManifestRecord*)>& record) {
  EnsureStateDir(dir);
  const std::string path = (fs::path(dir) / ManifestFileName(head.seq)).string();
  CrashPoint("manifest", head.seq, "before_open");
  AtomicPublish(
      path, "checkpoint manifest",
      [&](serial::Writer& writer) {
        EncodeHead(writer, head, num_streams);
        ManifestRecord next;
        for (std::size_t i = 0; i < num_streams; ++i) {
          record(i, &next);
          EncodeRecord(writer, next);
          CrashPoint("manifest", head.seq, "after_record", i);
        }
      },
      [&head] { CrashPoint("manifest", head.seq, "before_rename"); });
  CrashPoint("manifest", head.seq, "before_prune");
  // Prune: keep this manifest and its predecessor (the spare covers the
  // window between two checkpoints where the newest could be the one a
  // concurrent reader -- a backup script, say -- is still copying).
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::optional<std::uint64_t> seq =
        ManifestSeqOf(entry.path().filename().string());
    if (seq && head.seq >= 2 && *seq < head.seq - 1) {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
    }
  }
}

std::optional<Manifest> LoadNewestManifest(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return std::nullopt;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw StateError("cannot scan state dir: " + dir + " (" + ec.message() +
                     ")");
  }
  std::optional<std::uint64_t> newest;
  for (const fs::directory_entry& entry : it) {
    const std::optional<std::uint64_t> seq =
        ManifestSeqOf(entry.path().filename().string());
    if (seq && (!newest || *seq > *newest)) newest = seq;
  }
  if (!newest) return std::nullopt;
  const std::string path = (fs::path(dir) / ManifestFileName(*newest)).string();
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StateError("cannot open checkpoint manifest: " + path);
  try {
    serial::Reader reader(in);
    Manifest manifest = DecodeManifest(reader);
    if (manifest.seq != *newest) {
      throw StateError("manifest " + path + " records sequence " +
                       std::to_string(manifest.seq) +
                       ", file name says " + std::to_string(*newest));
    }
    return manifest;
  } catch (const serial::SerialError& e) {
    throw StateError("corrupt checkpoint manifest " + path + ": " + e.what());
  }
}

void WriteEvictionArchive(const std::string& dir, const std::string& stream_id,
                          const std::string& archive) {
  const std::string path =
      (fs::path(dir) / "evicted" / EvictionFileName(stream_id)).string();
  AtomicPublish(
      path, "eviction archive",
      [&stream_id, &archive](serial::Writer& writer) {
        EncodeEvictionRecord(writer, stream_id, archive);
      },
      [] {});
}

std::string ReadEvictionArchive(const std::string& dir,
                                const std::string& stream_id) {
  const std::string path =
      (fs::path(dir) / "evicted" / EvictionFileName(stream_id)).string();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StateError("no eviction archive for stream '" + stream_id +
                     "': " + path);
  }
  std::string archive;
  try {
    serial::Reader reader(in);
    DecodeEvictionRecord(
        reader, stream_id, [&path] { return "eviction archive " + path; },
        &archive);
  } catch (const serial::SerialError& e) {
    throw StateError("corrupt eviction archive " + path + ": " + e.what());
  }
  return archive;
}

namespace {

// pwrite / pread of all `size` bytes, retrying short transfers; false on
// an error or (pread) the end of the file.
bool WriteAll(int fd, const char* data, std::size_t size, off_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += n;
  }
  return true;
}

bool ReadAll(int fd, char* data, std::size_t size, off_t offset) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, data, size, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += n;
  }
  return true;
}

std::string Errno() { return std::strerror(errno); }

}  // namespace

ParkLog::~ParkLog() { Close(); }

void ParkLog::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void ParkLog::Open(const std::string& dir) {
  Close();
  path_ = (fs::path(dir) / "evicted" / "parked.log").string();
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw StateError("cannot open park log " + path_ + ": " + Errno());
  }
  live_bytes_ = 0;
  dead_bytes_ = 0;
  appends_ = 0;
  compactions_ = 0;
  staged_.clear();
}

ParkSlot ParkLog::Stage(std::string_view stream_id, std::string_view archive) {
  const std::size_t begin = staged_.size();
  serial::StringSink sink(&staged_);
  std::ostream out(&sink);
  serial::Writer writer(out);
  EncodeEvictionRecord(writer, stream_id, archive);
  return {live_bytes_ + dead_bytes_ + begin, staged_.size() - begin};
}

void ParkLog::Flush() {
  const std::uint64_t end = live_bytes_ + dead_bytes_;
  const bool written =
      fd_ >= 0 && WriteAll(fd_, staged_.data(), staged_.size(),
                           static_cast<off_t>(end));
  const std::size_t size = staged_.size();
  staged_.clear();
  if (!written) {
    throw StateError("cannot append to park log " + path_ + ": " + Errno());
  }
  live_bytes_ += size;
}

ParkSlot ParkLog::Append(std::string_view stream_id, std::string_view archive) {
  const ParkSlot slot = Stage(stream_id, archive);
  Flush();
  CrashPoint("park", ++appends_, "after_append");
  return slot;
}

void ParkLog::Read(const ParkSlot& slot, std::string_view stream_id,
                   std::string* archive) {
  // Built only for an error: a warm start reads on the request path.
  const auto where = [&slot, this] {
    return "park log record at offset " + std::to_string(slot.offset) +
           " of " + path_;
  };
  record_.resize(slot.size);
  if (!ReadAll(fd_, record_.data(), record_.size(),
               static_cast<off_t>(slot.offset))) {
    throw StateError(where() + " is cut short");
  }
  serial::ViewSource source(record_);
  std::istream in(&source);
  try {
    serial::Reader reader(in);
    DecodeEvictionRecord(reader, stream_id, where, archive);
  } catch (const serial::SerialError& e) {
    throw StateError("corrupt " + where() + ": " + e.what());
  }
  if (source.remaining() != 0) {
    throw StateError(where() + " has " + std::to_string(source.remaining()) +
                     " bytes past its end");
  }
}

void ParkLog::Forget(const ParkSlot& slot) {
  live_bytes_ -= slot.size;
  dead_bytes_ += slot.size;
}

void ParkLog::Compact(std::vector<ParkSlot*> order) {
  std::sort(order.begin(), order.end(),
            [](const ParkSlot* a, const ParkSlot* b) {
              return a->offset < b->offset;
            });
  const std::string tmp = path_ + ".tmp";
  const int out = ::open(tmp.c_str(),
                         O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out < 0) {
    throw StateError("cannot compact park log: " + tmp + ": " + Errno());
  }
  // Copies the records in bounded chunks; their new offsets are applied
  // only once the rewritten log has replaced the old one.
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::vector<std::uint64_t> offsets;
  offsets.reserve(order.size());
  std::uint64_t written = 0;
  std::string failure;
  staged_.clear();
  for (const ParkSlot* slot : order) {
    offsets.push_back(written + staged_.size());
    const std::size_t at = staged_.size();
    staged_.resize(at + slot->size);
    if (!ReadAll(fd_, staged_.data() + at, slot->size,
                 static_cast<off_t>(slot->offset))) {
      failure = "record at offset " + std::to_string(slot->offset) +
                " is cut short";
      break;
    }
    if (staged_.size() >= kChunk) {
      if (!WriteAll(out, staged_.data(), staged_.size(),
                    static_cast<off_t>(written))) {
        failure = Errno();
        break;
      }
      written += staged_.size();
      staged_.clear();
    }
  }
  if (failure.empty()) {
    if (WriteAll(out, staged_.data(), staged_.size(),
                 static_cast<off_t>(written))) {
      written += staged_.size();
    } else {
      failure = Errno();
    }
  }
  staged_.clear();
  if (failure.empty()) {
    CrashPoint("park.compact", ++compactions_, "before_rename");
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) failure = Errno();
  }
  if (!failure.empty()) {
    ::close(out);
    std::remove(tmp.c_str());
    throw StateError("cannot compact park log " + path_ + ": " + failure);
  }
  Close();
  fd_ = out;
  for (std::size_t i = 0; i < order.size(); ++i) order[i]->offset = offsets[i];
  live_bytes_ = written;
  dead_bytes_ = 0;
}

}  // namespace dmt::serve
