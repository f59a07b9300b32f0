// Per-shard serving state (DESIGN.md Sec. 14). The engine assigns every
// stream to one shard by a stable hash of its id; a shard is the unit of
// serving parallelism, so everything here is touched by exactly one thread
// at a time (the shard's worker task during a window, the engine's routing
// thread between windows -- the window barrier separates the two).
//
// The shard owns grow-only reusable scratch (the per-stream regrouping
// buffers, one Batch for coalesced train/score runs, one ProbaMatrix for
// batch scoring) and the shard's TelemetryRegistry, which
// aggregates serve.* counters and the model-level counters of every stream
// homed on the shard (models are attached to it at creation).
#ifndef DMT_SERVE_SHARD_H_
#define DMT_SERVE_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dmt/common/types.h"
#include "dmt/obs/telemetry.h"

namespace dmt::serve {

struct Shard {
  Shard();
  // The registry hands out stable pointers; a Shard therefore never moves
  // (the engine stores unique_ptr<Shard>).
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  obs::TelemetryRegistry telemetry;

  // Cached counter/gauge pointers into `telemetry` (stable for the shard's
  // lifetime), bumped on the shard worker or, for routing-time events
  // (rejections, bad rows), by the engine between windows.
  std::uint64_t* train_rows = nullptr;   // serve.train_rows
  std::uint64_t* score_rows = nullptr;   // serve.score_rows
  std::uint64_t* snapshots = nullptr;    // serve.snapshots
  std::uint64_t* restores = nullptr;     // serve.restores
  std::uint64_t* rejected = nullptr;     // serve.rejected (back-pressure)
  std::uint64_t* bad_rows = nullptr;     // serve.bad_rows (non-finite/label)
  std::uint64_t* evictions = nullptr;    // serve.evictions (parked to disk)
  std::uint64_t* warm_starts = nullptr;  // serve.warm_starts (un-parked)
  double* last_bad_value = nullptr;      // serve.last_bad_value gauge; holds
                                         // the offending value verbatim
                                         // (possibly NaN/Inf -- the JSON
                                         // writer must survive it)
  double* resident_streams = nullptr;    // serve.resident_streams gauge;
                                         // mirrors num_streams

  // Streams currently resident (model in memory) on this shard; parked
  // streams are not counted. Kept by the engine, mirrored into the
  // resident_streams gauge.
  std::size_t num_streams = 0;

  // Grow-only scratch reused across windows: the per-stream regrouping of
  // the shard's queue (a counting sort by first appearance: per-stream
  // group offsets, then the queue indices in grouped order) and the
  // coalesced request runs handed to the models. With the engine's own
  // grow-only window buffers, a train or score request on an existing
  // stream makes no heap allocation outside the model once the buffers
  // are warm (tests/allocation_test.cc pins 0 per request for a GLM
  // engine).
  std::vector<std::size_t> group_offsets;
  std::vector<std::size_t> grouped;
  Batch scratch_batch;
  ProbaMatrix scratch_proba;

  // One JSONL exporter record for this shard: a single-line JSON object
  // embedding the compacted telemetry document plus the shard identity.
  std::string ExportLine(std::size_t shard_index,
                         std::uint64_t flush_sequence) const;
};

}  // namespace dmt::serve

#endif  // DMT_SERVE_SHARD_H_
