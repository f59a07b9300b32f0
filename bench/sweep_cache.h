// The prequential sweep's one store: one record per finished cell.
//
// A cell is keyed by (dataset, model, samples, seed) plus RowOptionsHash,
// a hash of every option that can change the printed row, so a faulted,
// exact or telemetry run can never poison a clean one, and a filtered run
// (--datasets/--models) can never poison a later full one: a missing cell
// is simply computed and added. Each record lives in its own file under
// `<root>/cells/` and holds the cell's table row, its status (`ok` or
// `failed`) and, last, its error flattened to one field:
//
//   dataset,model,f1_mean,...,time_std,status,error
//   SEA,GLM,0.731...,...,ok,
//   checksum,<16 hex digits over the two lines above>
//
// Every finished cell is published as one record: written to a temp file
// named after the writer (pid, counter) and renamed into place, so pool
// workers and concurrent sweeps may publish at once, and a SIGKILL leaves
// each cell either recorded in full or not at all. That is what --resume
// relies on.
//
// A record that is cut, garbled, written by an older build or filed under
// another cell's name is a miss, never numbers: the reader requires the
// header, the exact field count, numbers that std::from_chars consumes
// whole, an `ok`/`failed` status, the key's dataset and model, and a
// matching checksum. The cell is then recomputed.
#ifndef DMT_BENCH_SWEEP_CACHE_H_
#define DMT_BENCH_SWEEP_CACHE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "harness.h"

namespace dmt::bench {

struct CellKey {
  std::string dataset;
  std::string model;
  std::size_t samples = 0;  // the --samples cap, 0 = full Table I sizes
  std::uint64_t seed = 0;
  std::uint64_t row_options = 0;  // RowOptionsHash of the run
};

// Hash of every option that can change a cell's printed row: --dmt-exact,
// --member-parallel, --inject, --bad-input, --failpoints and --telemetry
// (its timers run inside the timed region, so they move Table V).
std::uint64_t RowOptionsHash(const Options& options);

class SweepCache {
 public:
  explicit SweepCache(std::string root);

  // The cell's record; nullopt when it is missing or not intact. A loaded
  // cell carries the row, status and error, never series or telemetry.
  std::optional<CellResult> Load(const CellKey& key) const;

  // Publishes `cell`'s record under `key` (temp file + atomic rename).
  // False, with nothing left behind, when the write or rename fails.
  bool Store(const CellKey& key, const CellResult& cell);

  // Relative file name of a cell's record, e.g.
  // cells/Agrawal__VFDT_MC___s50000_r42_h<16 hex digits>.csv (a hash of
  // the raw names and the row options keeps sanitized names distinct).
  static std::string CellFileName(const CellKey& key);

  // The record's bytes, and their inverse: nullopt unless `text` is one
  // intact record of `key`'s dataset and model.
  static std::string FormatRecord(const CellResult& cell);
  static std::optional<CellResult> ParseRecord(std::string_view text,
                                               const CellKey& key);

 private:
  std::string root_;
  std::atomic<std::uint64_t> temp_counter_{0};
};

}  // namespace dmt::bench

#endif  // DMT_BENCH_SWEEP_CACHE_H_
