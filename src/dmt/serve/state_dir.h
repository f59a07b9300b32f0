// Durability layer of the serving engine (DESIGN.md Sec. 15): engine-wide
// checkpoint manifests plus the park log of evicted streams, both living
// in one `--state-dir` directory.
//
// A *manifest* is a single self-contained file holding the full engine
// state at one window boundary: a config stamp (model kind, dimensions,
// seed, batch window, fault-injection rates), the routing-time tallies,
// and one entry per known stream -- resident or evicted -- with the
// stream's complete serial archive embedded as bytes. Embedding makes the
// checkpoint one atomic unit: it is written to `<name>.tmp` and renamed,
// so a manifest either exists completely or not at all, and recovery is a
// pure function of a single file's bytes. Recovery always uses the newest
// complete manifest; a crash mid-write leaves a stale `.tmp` behind and
// the previous manifest intact.
//
// The *park log* (`evicted/parked.log`) holds the models of idle streams
// that eviction took out of memory: one append-only file, one *eviction
// record* per parked stream. A record wraps the raw serial archive with
// the stream id, which is verified on load, so a record read from the
// wrong place surfaces as a typed error instead of silently warm-starting
// the wrong model. The log is scratch space, never a recovery source: a
// restart truncates it and re-appends the parked streams of the manifest.
// The same record, alone in `evicted/<sanitized>-<fnv64>.dmts`, is the
// single-file form of older builds (WriteEvictionArchive).
//
// Every failure mode of this layer -- unreadable directory, truncated or
// bit-flipped manifest, version skew, config-stamp mismatch, foreign or
// corrupt eviction record -- raises StateError. Nothing here aborts, and
// decode hardening is inherited from serial::Reader (bounds-checked reads,
// capped counts).
#ifndef DMT_SERVE_STATE_DIR_H_
#define DMT_SERVE_STATE_DIR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dmt/common/random.h"
#include "dmt/serial/archive.h"

namespace dmt::serve {

// Typed failure of the durability layer. dmt_serve maps recovery-time
// StateError to an exit-2 diagnostic; request-time warm-start failures
// become "ERR warm_start ..." responses.
class StateError : public std::runtime_error {
 public:
  explicit StateError(const std::string& what) : std::runtime_error(what) {}
};

// Container tags (serial/archive.h FourCC space, append-only).
inline constexpr std::uint32_t kTagManifest =
    serial::FourCC('M', 'N', 'F', 'S');
inline constexpr std::uint32_t kTagEviction =
    serial::FourCC('E', 'V', 'C', 'S');

// One known stream: identity, lifecycle counters, its fault-injection
// generator (an RNG record since format 4, EngineText before), and the full
// serial archive bytes of its model (exactly what Classifier::Save
// writes).
struct ManifestStream {
  std::string id;
  bool resident = true;
  std::uint64_t rows_trained = 0;
  std::uint64_t last_touch = 0;   // request ordinal of the last touch (LRU)
  std::uint64_t last_window = 0;  // window of the last touch (TTL)
  std::unique_ptr<Rng> inject_rng;  // fault-injection generator; null = unused
  std::string archive;
};

// Routing-time tallies, restored verbatim so `stats` responses continue
// exactly where the checkpointed run left off. Field order is the wire
// order.
struct ManifestTallies {
  std::uint64_t requests = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t rejected = 0;
  std::uint64_t bad_rows = 0;
  std::uint64_t values_imputed = 0;
  std::uint64_t train_rows = 0;
  std::uint64_t score_rows = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t restores = 0;
  std::uint64_t drops = 0;
  std::uint64_t streams_created = 0;
  std::uint64_t windows = 0;
  std::uint64_t evictions = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t injected_rows = 0;
  std::uint64_t state_errors = 0;
};

// Everything of a manifest but its stream records.
struct ManifestHead {
  std::uint64_t seq = 0;
  // Config stamp: a checkpoint only restores into an engine configured
  // identically. Skew in any field is a StateError, never a silent reset
  // -- these values are part of the determinism recipe (a different model
  // kind, seed, batch window or fault schedule would diverge from the
  // checkpointed trajectory instead of continuing it).
  std::string model_kind;
  std::int32_t num_features = 0;
  std::int32_t num_classes = 0;
  std::uint64_t seed = 0;
  std::uint64_t batch_window = 0;
  // nan, inf, missing, flip, truncate rates of the --inject spec.
  std::array<double, 5> inject_rates = {0.0, 0.0, 0.0, 0.0, 0.0};
  ManifestTallies tallies;
};

struct Manifest : ManifestHead {
  std::vector<ManifestStream> streams;
};

// One stream record as the manifest writer takes it: a ManifestStream whose
// bytes stay in the caller's buffers.
struct ManifestRecord {
  std::string_view id;
  bool resident = true;
  std::uint64_t rows_trained = 0;
  std::uint64_t last_touch = 0;
  std::uint64_t last_window = 0;
  const Rng* inject_rng = nullptr;
  std::string_view archive;
};

// "manifest-<seq, 20 decimal digits>.dmtm": zero-padded so lexicographic
// and numeric order agree.
std::string ManifestFileName(std::uint64_t seq);

// Collision-resistant, filesystem-safe file name for one stream's
// single-file eviction archive: a sanitized prefix of the id plus the 16-hex-digit
// FNV-1a of the full id (ids are arbitrary request tokens and may contain
// '/', '..', etc.). The id stored *inside* the file is authoritative.
std::string EvictionFileName(const std::string& stream_id);

// Creates `dir` and its evicted/ subdirectory. Throws StateError if the
// path cannot be created or is not a directory.
void EnsureStateDir(const std::string& dir);

// Serializes `manifest` to `dir`, write-to-temp + rename, then prunes
// manifests older than seq-1 (the previous manifest is kept as a spare).
// Throws StateError on any write failure; a failed write never disturbs
// existing manifests.
void WriteManifest(const std::string& dir, const Manifest& manifest);

// WriteManifest record by record: writes `head`, then `num_streams`
// records, the i-th filled in by `record(i, &r)`. The views in `r` need to
// stay valid only until the next call, so a caller can hand every stream
// through one reused buffer and the manifest is never whole in memory.
// Anything `record` throws aborts the write: the temp file is removed and
// the exception propagates.
//
// Each step of the write is a crash point (robust/failpoint.h) named after
// the manifest's seq, armed in the process-global registry (dmt_serve
// --failpoints 'manifest.3.before_rename=1'):
//   manifest.<seq>.before_open       before the temp file opens
//   manifest.<seq>.after_record.<i>  after stream record i (0-based)
//   manifest.<seq>.before_rename     between the write and the rename
//   manifest.<seq>.before_prune      after the rename, before pruning
void WriteManifest(
    const std::string& dir, const ManifestHead& head, std::size_t num_streams,
    const std::function<void(std::size_t, ManifestRecord*)>& record);

// Scans `dir` for the newest complete manifest ("manifest-*.dmtm"; stale
// .tmp files are ignored) and decodes it. Returns nullopt when no
// manifest exists (fresh state dir). Throws StateError on an unreadable
// directory or a malformed / version-skewed manifest -- recovery refuses
// to guess, it never silently falls back to an older checkpoint.
std::optional<Manifest> LoadNewestManifest(const std::string& dir);

// Where one parked stream's eviction record lies in the park log.
struct ParkSlot {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

// The park log: `dir/evicted/parked.log`, opened once and written only by
// appending records (pwrite at the tracked end, so bytes past it -- a torn
// append -- are simply overwritten by the next one). Taking a record back
// (warm start, drop) only marks its bytes dead; Compact rewrites the live
// records into `parked.log.tmp` and renames it over the log. Not
// thread-safe: the serving engine calls it from its routing thread only.
//
// Two crash points (robust/failpoint.h), armed like the manifest's:
//   park.<k>.after_append            after the k-th Append (1-based)
//   park.compact.<k>.before_rename   between the k-th compaction's write
//                                    and its rename
class ParkLog {
 public:
  ParkLog() = default;
  ~ParkLog();
  ParkLog(const ParkLog&) = delete;
  ParkLog& operator=(const ParkLog&) = delete;

  // Opens dir/evicted/parked.log truncated to empty (creating it), closing
  // any log opened before. Throws StateError.
  void Open(const std::string& dir);

  // Queues one record in memory and returns where it will lie; Flush
  // writes every queued record with one write. Recovery rebuilds the log
  // this way. Throws StateError when the write fails; the queued slots
  // are then void and the log is as before.
  ParkSlot Stage(std::string_view stream_id, std::string_view archive);
  void Flush();
  // Stage + Flush of one record.
  ParkSlot Append(std::string_view stream_id, std::string_view archive);

  // Reads the record at `slot` back into `*archive`, replacing its
  // contents but keeping its capacity. Throws StateError when the record
  // is cut short, malformed, longer than `slot`, or holds another stream.
  void Read(const ParkSlot& slot, std::string_view stream_id,
            std::string* archive);

  // Marks the record at `slot` dead; its bytes stay until a compaction.
  void Forget(const ParkSlot& slot);

  // Dead bytes exceed live ones: a compaction would at least halve the log.
  bool NeedsCompaction() const { return dead_bytes_ > live_bytes_; }
  // Rewrites the records at `live` (every live slot, in any order) back to
  // back in log order and moves each slot to its new offset. Throws
  // StateError on failure, leaving the log and every slot unchanged.
  void Compact(std::vector<ParkSlot*> live);

  std::uint64_t live_bytes() const { return live_bytes_; }
  std::uint64_t dead_bytes() const { return dead_bytes_; }

 private:
  void Close();

  std::string path_;
  int fd_ = -1;
  // The log's length is live_bytes_ + dead_bytes_: every byte written is
  // one or the other.
  std::uint64_t live_bytes_ = 0;
  std::uint64_t dead_bytes_ = 0;
  std::uint64_t appends_ = 0;      // Append calls since Open (crash points)
  std::uint64_t compactions_ = 0;  // Compact calls since Open
  std::string staged_;             // queued records; compaction output
  std::string record_;             // one record read back
};

// Single-file form of one eviction record, `dir/evicted/` +
// EvictionFileName(stream_id), written to temp + renamed. Older builds
// parked every stream this way; the serving engine no longer calls these,
// and only the benchmark probe (perfbench/trace.cc) still times them.
// Throws StateError on write failure.
void WriteEvictionArchive(const std::string& dir, const std::string& stream_id,
                          const std::string& archive);

// Loads a single-file eviction archive back, verifying the id recorded
// inside the file. Throws StateError if the file is missing, malformed,
// or holds a different stream.
std::string ReadEvictionArchive(const std::string& dir,
                                const std::string& stream_id);

}  // namespace dmt::serve

#endif  // DMT_SERVE_STATE_DIR_H_
