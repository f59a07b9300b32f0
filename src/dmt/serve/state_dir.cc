#include "dmt/serve/state_dir.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

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

// Crash point `manifest.<seq>.<point>` of the manifest writer, with
// `.<record>` appended when a record index is given (see WriteManifest in
// the header); free while no failpoint is armed.
constexpr std::size_t kNoRecord = ~std::size_t{0};

void ManifestCrashPoint(std::uint64_t seq, const char* point,
                        std::size_t record = kNoRecord) {
  robust::FailpointRegistry& registry = robust::GlobalFailpoints();
  if (registry.num_armed() == 0) return;
  std::string name = "manifest." + std::to_string(seq) + ".";
  name.append(point);
  if (record != kNoRecord) name.append(".").append(std::to_string(record));
  DMT_CRASHPOINT(registry.Find(name));
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
  ManifestCrashPoint(head.seq, "before_open");
  AtomicPublish(
      path, "checkpoint manifest",
      [&](serial::Writer& writer) {
        EncodeHead(writer, head, num_streams);
        ManifestRecord next;
        for (std::size_t i = 0; i < num_streams; ++i) {
          record(i, &next);
          EncodeRecord(writer, next);
          ManifestCrashPoint(head.seq, "after_record", i);
        }
      },
      [&head] { ManifestCrashPoint(head.seq, "before_rename"); });
  ManifestCrashPoint(head.seq, "before_prune");
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
        writer.Header(kTagEviction);
        writer.Str(stream_id);
        writer.Str(archive);
      },
      [] {});
}

std::string ReadEvictionArchive(const std::string& dir,
                                const std::string& stream_id) {
  std::string archive;
  ReadEvictionArchive(dir, stream_id, &archive);
  return archive;
}

void ReadEvictionArchive(const std::string& dir, const std::string& stream_id,
                         std::string* archive) {
  const std::string path =
      (fs::path(dir) / "evicted" / EvictionFileName(stream_id)).string();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StateError("no eviction archive for stream '" + stream_id +
                     "': " + path);
  }
  try {
    serial::Reader reader(in);
    reader.Header(kTagEviction);
    const std::string recorded = reader.Str(kMaxStreamId);
    if (recorded != stream_id) {
      throw StateError("eviction archive " + path + " holds stream '" +
                       recorded + "', expected '" + stream_id + "'");
    }
    reader.Str(kMaxArchive, archive);
  } catch (const serial::SerialError& e) {
    throw StateError("corrupt eviction archive " + path + ": " + e.what());
  }
}

void RemoveEvictionArchive(const std::string& dir,
                           const std::string& stream_id) {
  std::error_code ec;
  fs::remove(fs::path(dir) / "evicted" / EvictionFileName(stream_id), ec);
}

}  // namespace dmt::serve
