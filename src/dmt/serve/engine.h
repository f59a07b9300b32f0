// Multi-tenant stream-serving engine (DESIGN.md Sec. 14): one long-lived
// process owning N independent per-stream learner instances (the
// "millions of users" story of ROADMAP -- many small models, not one big
// one), keyed by stream id and sharded across the existing work-stealing
// ThreadPool.
//
// Execution model: requests are consumed in *windows* of at most
// `batch_window` lines. The routing thread parses each line, creates
// missing streams, applies the bad-input policy, and appends the request
// to its stream's shard queue; when the window is full (or input ends, or
// a `drop` forces a boundary) every shard with work runs as one pool task,
// and a barrier precedes response emission. Responses always come out in
// request order, one line per request.
//
// Determinism contract: the same request script and seed produce
// byte-identical responses at ANY shard count. Three properties make this
// hold:
//  * per-stream models are seeded DeriveSeed(seed, stream_id) -- never
//    from shard identity or scheduling order;
//  * window boundaries depend only on the global request sequence;
//  * inside a shard, requests are regrouped PER STREAM (each stream's own
//    subsequence order is preserved; streams are mutually independent), so
//    consecutive same-verb runs of one stream coalesce into the same
//    PartialFit / PredictBatch batches no matter how many other streams
//    share the shard.
// Back-pressure is the one deliberate exception: a full shard queue
// rejects with "ERR retry-after..." and queue occupancy is per shard, so
// scripts that hit the bound are only comparable at a fixed shard count
// (the default capacity, one full window, can never be hit).
#ifndef DMT_SERVE_ENGINE_H_
#define DMT_SERVE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dmt/common/classifier.h"
#include "dmt/common/random.h"
#include "dmt/common/sanitize.h"
#include "dmt/common/thread_pool.h"
#include "dmt/robust/faulty_stream.h"
#include "dmt/serve/exporter.h"
#include "dmt/serve/request.h"
#include "dmt/serve/shard.h"
#include "dmt/serve/state_dir.h"

namespace dmt::serve {

// Builds the learner for a newly observed stream id. `seed` is already
// derived from the engine seed and the stream id; the factory must not
// fold in any other entropy (clocks, addresses) or the determinism
// contract breaks. dmt_serve wires this to bench::MakeModel, so any of the
// serializable learners can serve.
using ModelFactory = std::function<std::unique_ptr<Classifier>(
    const std::string& stream_id, std::uint64_t seed)>;

struct ServeConfig {
  int num_features = 0;  // required: arity of every csv-row
  int num_classes = 0;   // required: restored models must match
  std::size_t num_shards = 1;
  std::uint64_t seed = 42;
  // Max requests routed before the window barrier (>= 1). Larger windows
  // coalesce more rows per PartialFit/PredictBatch call; window boundaries
  // are part of the deterministic batch structure, so runs that should
  // produce byte-identical snapshots must agree on this value.
  std::size_t batch_window = 64;
  // Per-shard bound on requests queued within one window; requests beyond
  // it are rejected with "ERR retry-after=1 ..." (explicit back-pressure).
  // 0 means batch_window, which a single shard can never exceed.
  std::size_t queue_capacity = 0;
  // Non-finite features / out-of-range labels: kSkip drops the row
  // ("OK ... dropped"), kImputeMidpoint imputes features with 0.0 (serve
  // rows are unscaled; there is no running scaler), kThrow rejects the
  // request ("ERR bad_row ...") -- a server must not abort on bad input.
  BadInputPolicy bad_input_policy = BadInputPolicy::kSkip;
  ModelFactory factory;
  // Optional caller-owned telemetry sink: one JSONL record per shard every
  // `export_every` windows (0 = only the final flush) and at Finish().
  JsonlExporter* exporter = nullptr;
  std::size_t export_every = 0;

  // --- Durability and lifecycle (DESIGN.md Sec. 15) ---
  // Directory for checkpoint manifests and the park log; "" disables
  // the whole durability layer. When set, the constructor recovers from
  // the newest complete manifest (throwing StateError on corruption or a
  // config-stamp mismatch) and Finish() writes a final checkpoint.
  std::string state_dir;
  // Config-stamp label recorded in every manifest (dmt_serve passes the
  // --model name); a manifest written under a different label refuses to
  // restore. "" matches only "".
  std::string model_kind;
  // Write a checkpoint manifest every N windows (0 = only at Finish).
  // Requires state_dir.
  std::size_t checkpoint_every = 0;
  // Resident-stream bound: after each window, least-recently-touched
  // resident streams are evicted (appended to the park log and dropped
  // from memory) until at most this many remain. 0 = unbounded. Requires
  // state_dir.
  std::size_t max_streams = 0;
  // TTL: after each window, resident streams untouched for more than this
  // many windows are evicted to the park log. 0 = no TTL. Requires
  // state_dir.
  std::size_t idle_windows = 0;
  // Deterministic fault injection on the request path: train/score rows
  // are corrupted at these rates by a per-stream Rng seeded
  // DeriveSeed(seed, stream_id, "inject") -- never from shard or timing --
  // so the fault trace is part of the determinism contract (identical at
  // any shard count, and checkpoint/restore preserves the generator
  // state). Serve has no "stream end", so truncate is reinterpreted: a
  // random suffix of the row's features becomes NaN.
  robust::FaultSpec inject;
};

class ServeEngine {
 public:
  // Throws StateError when eviction is configured without a state dir, or
  // when config.state_dir holds a manifest that is corrupt, version-skewed
  // or stamped with a different configuration -- recovery refuses to
  // guess. A clean or empty state dir starts fresh.
  explicit ServeEngine(ServeConfig config);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // Routes one request line; may emit buffered responses to `out` when the
  // line completes a window (or forces a boundary). Exactly one response
  // line per request, in request order, once Finish() has run.
  void ServeLine(std::string_view line, std::ostream& out);

  // Processes the pending partial window and emits its responses.
  void Flush(std::ostream& out);

  // Flush + final telemetry export. Idempotent; the engine accepts further
  // requests afterwards (the exporter then flushes again on the next
  // Finish).
  void Finish(std::ostream& out);

  // Convenience driver: ServeLine for every line of `in`, then Finish.
  void RunScript(std::istream& in, std::ostream& out);

  std::size_t num_streams() const { return streams_.size(); }
  // Streams whose model is in memory (num_streams minus parked streams).
  std::size_t resident_streams() const { return resident_; }
  std::size_t num_shards() const { return shards_.size(); }
  const Shard& shard(std::size_t i) const { return *shards_[i]; }
  // The parked streams' records (closed when there is no state dir).
  const ParkLog& park_log() const { return park_log_; }
  std::uint64_t windows() const { return windows_; }
  std::uint64_t checkpoints() const { return checkpoints_; }

 private:
  struct StreamState {
    std::string id;
    std::size_t shard = 0;
    // Null while the stream is parked (evicted); warm-started
    // transparently on the next touch from its park log record.
    std::unique_ptr<Classifier> model;
    ParkSlot parked;  // the park log record; meaningful while model is null
    std::uint64_t rows_trained = 0;  // accepted rows, counted at routing
    std::uint64_t last_touch = 0;    // global request ordinal (LRU key)
    std::uint64_t last_window = 0;   // window of the last touch (TTL key)
    // Neighbours on the engine's LRU list, which holds exactly the
    // resident streams in last_touch order (head = least recent).
    StreamState* lru_prev = nullptr;
    StreamState* lru_next = nullptr;
    // Lazily created on the first injected draw; survives eviction in
    // memory and checkpoints as an RNG record, (seed, draws) while it is
    // counted (serial/archive.h).
    std::unique_ptr<Rng> inject_rng;
    // ProcessShard's per-stream grouping: `group` is valid while
    // `group_tag` equals the current window's tag. Only the stream's own
    // shard task touches them, so no synchronization is needed.
    std::uint64_t group_tag = 0;
    std::size_t group = 0;
  };

  // One routed request waiting for its shard task.
  struct Routed {
    Verb verb = Verb::kTrain;
    StreamState* stream = nullptr;
    std::size_t slot = 0;            // response index within the window
    // train: F features + label; score: F -- at this offset of row_arena_
    std::size_t values = 0;
    std::string path;                // snapshot / restore
    std::uint64_t ordinal = 0;       // train: rows_trained after this row
  };

  // Returns the (possibly just created or warm-started) stream, or nullptr
  // when a parked stream's archive cannot be loaded -- `*error` then holds
  // the diagnostic and the stream stays parked.
  StreamState* FindOrCreateStream(const std::string& id, std::string* error);
  bool WarmStart(StreamState* stream, std::string* error);
  void InjectFaults(Request* request, StreamState* stream);
  void RouteRequest(std::size_t slot);
  void ProcessShard(Shard* shard, const std::vector<Routed>& items,
                    std::uint64_t tag);
  void LruPushBack(StreamState* stream);
  void LruUnlink(StreamState* stream);
  void EvictAtBoundary();
  bool EvictStream(StreamState* stream);
  void CompactParkLog();
  void WriteCheckpoint();
  void RecoverFromStateDir();
  void ExportTelemetry();
  void AppendStatsLine(std::string* line) const;

  ServeConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;  // only when num_shards > 1
  std::unordered_map<std::string, StreamState> streams_;

  // The request being served; its buffers are reused line after line.
  Request request_;
  std::string parse_error_;

  // Current window: per-request response slots plus per-shard queues. All
  // of it is grow-only: the first num_responses_ strings are the window's
  // responses, and every string keeps its capacity for later windows.
  std::vector<std::string> responses_;
  std::size_t num_responses_ = 0;
  std::vector<std::vector<Routed>> shard_queues_;
  // Rows of the window's train/score requests, back to back; read-only
  // while the shard tasks run.
  std::vector<double> row_arena_;

  // Routing-time tallies (main thread only). AppendStatsLine reports
  // these, so `stats` responses are shard-count-independent by
  // construction.
  std::uint64_t requests_ = 0;
  std::uint64_t parse_errors_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t bad_rows_ = 0;
  std::uint64_t values_imputed_ = 0;
  std::uint64_t train_rows_ = 0;   // accepted at routing
  std::uint64_t score_rows_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t restores_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t streams_created_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t exporter_flushes_ = 0;

  // Durability layer (main thread only; shards never touch it).
  std::size_t resident_ = 0;           // streams with a model in memory
  // Intrusive LRU list of the resident streams (StreamState::lru_prev /
  // lru_next): a touch moves a stream to the tail, eviction and drop
  // unlink it, so both eviction policies pop victims from the head.
  StreamState* lru_head_ = nullptr;
  StreamState* lru_tail_ = nullptr;
  std::uint64_t next_checkpoint_seq_ = 1;
  // Parked streams' models, opened (truncated) at startup when there is a
  // state dir and compacted after a window's evictions once its dead bytes
  // exceed its live ones.
  ParkLog park_log_;
  // One model archive at a time: eviction encodes into it, and warm starts
  // and checkpoints read parked ones back through it. Grow-only.
  std::string archive_buffer_;
  std::uint64_t evictions_ = 0;
  std::uint64_t warm_starts_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t injected_rows_ = 0;
  std::uint64_t state_errors_ = 0;     // non-fatal durability failures
};

}  // namespace dmt::serve

#endif  // DMT_SERVE_ENGINE_H_
