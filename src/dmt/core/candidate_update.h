// The per-node training engine of the Dynamic Model Tree core
// (model_tree.h): Algorithm 1 lines 1-11 over the SoA CandidateStore,
// allocation-free in steady state.
//
// Since the dirty-node gain scheduler the engine is two-phase. Every batch
// runs the accumulate-only fast path; the expensive evaluation half runs
// only when the caller's scheduler declares the node due (see
// dynamic_model_tree.h, DmtConfig::gain_test_every / gain_test_threshold):
//
//  AccumulateNodeStatistics -- always, one call per (node, batch):
//   0. The node's rows are GATHERED into a contiguous row-major tile
//      (features plus labels/targets). Every later pass of this (node,
//      batch) update walks the tile, not the strided batch: the model SGD
//      step streams it front to back, the loss/gradient pass batches four
//      rows per weight-vector traversal (kernels::DotBatch4), and the
//      scatter phases index per-sample statistics by tile position. The
//      gather copies doubles verbatim and every pass preserves per-sample
//      order, so results are bit-identical to the ungathered path.
//   1. SGD step of the node's simple model on the tile (Eq. 1).
//   2. One loss/gradient evaluation per sample at the updated parameters
//      via the tiled kernels ("compute the sample gradient once").
//   3. Node statistics increment (Algorithm 1, lines 1-3).
//
//  ScatterAndPropose -- evaluation batches only (and the whole story in
//  exact mode, gain_test_every = 1). Two proposal engines share the entry
//  point, selected by CandidateUpdateParams::order_buckets:
//
//   Exact (order_buckets = 0): per feature, a prefix scan over the node's
//   rows in ascending feature-value order (the shared FeatureOrder cache
//   filtered through the node's membership). The running (loss, gradient,
//   count) prefix is scattered into every stored candidate row whose
//   threshold the scan passes, and each value boundary becomes a fresh
//   proposal whose batch-local gain estimate uses the fused norm kernels
//   (Eqs. 6-7). O(n log n) per feature per batch via the shared sort.
//
//   Bucketed (order_buckets = B > 0, the library default): the per-batch
//   sort is replaced by a deterministic radix binning of the scaled [0, 1]
//   feature range into B fixed-width buckets, O(n + B) per feature.
//   Scanning the occupied buckets in ascending index IS ascending value
//   order across buckets, so the same prefix-statistics recurrence runs
//   over bucket aggregates; each occupied bucket proposes its MAXIMUM
//   observed value (an actual data point, so the accumulated left-side
//   statistics for "x <= threshold" are exact -- only the choice of which
//   boundaries to propose is quantized; within-bucket boundaries are not
//   proposed). Stored candidates are scattered by the ScatterStoredOnly
//   bucketing below, which is exact for any threshold. The binning is
//   deterministic (first-touch bitmap, ascending scan), just not
//   bit-identical to the sort path -- which is why --dmt-exact pins
//   order_buckets = 0.
//
//   Both engines feed ReplaceCandidates (Sec. V-D): proposals in
//   descending estimated gain, at most replacement_rate * max_candidates
//   replacements per step, each evicting the currently-worst stored row.
//
//  ScatterStoredOnly -- skipped batches (and the stored-candidate scatter
//  of the bucketed evaluation path): the stored candidates still receive
//  this batch's statistics (their windows must stay aligned with the
//  node's own tallies), but no fresh proposals are made and no sort is
//  needed. Each stored candidate with threshold t owes exactly the sum
//  over rows with value <= t -- the same quantity the prefix scan
//  scatters -- so the rows are bucketed against the (few) stored
//  thresholds by binary search and the buckets prefix-accumulated, at
//  O(rows * log(candidates per feature)) instead of a batch sort.
//  Features with no stored candidate are not touched at all.
//
// The ascending-value order per feature is NOT re-sorted per node: the
// caller resets the per-batch order cache once per PartialFit
// (BeginFeatureOrders), and FeatureOrder sorts a feature's whole-batch
// order with the deterministic key (value, row index) the first time an
// evaluating node asks for it -- batches where every node is skipped (or
// every node evaluates through buckets) never sort anything. Each node
// filters that shared order through its membership map: a node's rows are
// a subset of the batch, so the filtered sequence is exactly the
// node-local ascending order.
//
// All intermediate state lives in TrainScratch, which is reused across
// nodes, batches and trees: the phases run strictly post-order (the
// recursion of UpdateNode finishes both children before touching the
// parent's statistics), so one shared instance is safe; only the row
// partitions of the recursion itself need one buffer per tree depth. The
// tree core keeps one instance per training thread (ModelTree::FitClean),
// so every buffer sizes itself from the current node's own need -- never
// from another buffer's size, which a wider or narrower tree trained
// before on the same thread has set.
#ifndef DMT_CORE_CANDIDATE_UPDATE_H_
#define DMT_CORE_CANDIDATE_UPDATE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "dmt/common/check.h"
#include "dmt/common/kernels.h"
#include "dmt/core/candidate.h"
#include "dmt/obs/telemetry.h"

namespace dmt::core {

// The ModelTreeConfig fields the engine needs.
struct CandidateUpdateParams {
  int num_features = 0;
  std::size_t max_candidates = 0;
  double replacement_rate = 0.5;
  std::size_t max_proposals_per_feature = 0;
  double gradient_step_size = 0.2;
  // Fixed-width radix buckets per feature for the evaluation-batch order
  // statistics; 0 selects the exact sort-based scan (--dmt-exact, legacy
  // behavior, and the default for direct engine callers).
  std::size_t order_buckets = 0;
  // Optional telemetry destinations (null = not recorded): fresh proposals
  // evaluated, proposals appended to a non-full store, stored candidates
  // evicted by a better proposal, evaluation batches routed through the
  // bucketed engine, and proposals it produced.
  std::uint64_t* proposals_counter = nullptr;
  std::uint64_t* appends_counter = nullptr;
  std::uint64_t* evictions_counter = nullptr;
  std::uint64_t* bucket_evals_counter = nullptr;
  std::uint64_t* bucket_proposals_counter = nullptr;
};

// Grow-only SoA buffer of fresh-candidate proposals (one batch's worth);
// the gradient rows live in one contiguous matrix like the store's. A
// proposal's gradient is written into the open row (OpenRow), then Commit
// adds its left-side statistics; its est_gain is set later by
// ScoreProposals, four rows at a time. Every vector sizes itself from its
// own need: the buffer is shared across trees of any width.
class ProposalBuffer {
 public:
  void Init(std::size_t num_params) { num_params_ = num_params; }
  std::size_t size() const { return size_; }
  void Clear() {
    size_ = 0;
    scored_ = 0;
  }
  // Rows [scored(), size()) still wait for their est_gain.
  std::size_t scored() const { return scored_; }

  int feature(std::size_t i) const { return feature_[i]; }
  double value(std::size_t i) const { return value_[i]; }
  double est_gain(std::size_t i) const { return est_gain_[i]; }
  double loss(std::size_t i) const { return loss_[i]; }
  double count(std::size_t i) const { return count_[i]; }
  std::span<const double> grad(std::size_t i) const {
    return {grad_.data() + i * num_params_, num_params_};
  }
  // Sets the est_gain of row scored(), the first waiting one.
  void ScoreNext(double est_gain) { est_gain_[scored_++] = est_gain; }

  // Gradient row size(), the one the next Commit makes a proposal; valid
  // until the next OpenRow (which may grow the matrix).
  double* OpenRow() {
    const std::size_t need = (size_ + 1) * num_params_;
    if (grad_.size() < need) grad_.resize(need);
    return grad_.data() + size_ * num_params_;
  }
  // Makes the open row a proposal with these left-side statistics.
  void Commit(int feature, double value, double loss, double count) {
    const std::size_t i = size_++;
    if (feature_.size() < size_) {
      feature_.resize(size_);
      value_.resize(size_);
      est_gain_.resize(size_);
      loss_.resize(size_);
      count_.resize(size_);
    }
    feature_[i] = feature;
    value_[i] = value;
    loss_[i] = loss;
    count_[i] = count;
  }
  void Push(int feature, double value, double loss,
            std::span<const double> grad, double count) {
    std::copy(grad.begin(), grad.end(), OpenRow());
    Commit(feature, value, loss, count);
  }

 private:
  std::size_t num_params_ = 0;
  std::size_t size_ = 0;
  std::size_t scored_ = 0;
  std::vector<int> feature_;
  std::vector<double> value_;
  std::vector<double> est_gain_;
  std::vector<double> loss_;
  std::vector<double> count_;
  std::vector<double> grad_;  // row-major size_ x num_params_, plus open row
};

// Every buffer the batch update needs; all grow-only.
struct TrainScratch {
  // Whole-batch ascending-value sort orders, row-major [feature][pos],
  // sorted lazily per feature per PartialFit (key: value, then row index);
  // order_ready flags which features have been sorted for this batch.
  std::vector<std::uint32_t> feature_order;
  std::vector<char> order_ready;
  std::size_t order_size = 0;  // rows per feature of the current batch

  // Root row list of the current batch (identity permutation).
  std::vector<std::size_t> root_rows;

  // Gathered leaf tile of the current (node, batch) update: the node's
  // rows copied contiguous row-major (n x num_features) plus the parallel
  // labels/targets. Per-node buffers, reused across nodes (strictly
  // post-order use).
  std::vector<double> tile_x;
  std::vector<int> tile_label;      // classification gather
  std::vector<double> tile_target;  // regression gather
  // Row-major tile base of the current (node, batch): tile_x.data() after
  // a gather, or the batch storage itself when the node owns every row
  // (identity tile, zero-copy). Set by AccumulateNodeStatistics; valid
  // only until the next node's accumulate.
  const double* tile = nullptr;

  std::vector<double> sample_loss;  // [tile pos]
  std::vector<double> sample_grad;  // [tile pos][param], row-major
  std::vector<double> batch_grad;   // num_params
  // Running gradient prefix of the exact scan and the stored scatter
  // (num_params); the bucket scan keeps its prefix in the proposal buffer.
  std::vector<double> prefix_grad;
  // Batch row -> tile position of the current node (-1 = not in node);
  // doubles as the membership mask of the FeatureOrder filter.
  std::vector<std::int32_t> tile_pos;
  std::vector<std::uint32_t> node_order;  // filtered order, current feature
  ProposalBuffer proposals;
  std::vector<double> stored_gain;
  std::vector<std::uint32_t> proposal_order;

  // Bucket accumulators of ScatterStoredOnly: one slot per stored
  // candidate of the feature group being scattered (skip-path scratch).
  std::vector<double> bucket_loss;
  std::vector<double> bucket_count;
  std::vector<double> bucket_grad;  // row-major [bucket][param]

  // Radix-bucket accumulators of ProposeFromBuckets. Occupied buckets are
  // assigned COMPACT slots in first-touch order, so the aggregates live in
  // a dense occupied x k block (cache-resident even for wide models)
  // instead of a sparse order_buckets x k matrix; the bucket -> slot map
  // is epoch-tagged, so nothing is ever bulk-cleared.
  std::vector<std::uint32_t> radix_slot;   // [bucket] -> slot (epoch-gated)
  std::vector<std::uint64_t> radix_epoch;  // [bucket] last-touch epoch
  std::uint64_t radix_cur_epoch = 0;
  std::vector<std::uint32_t> slot_bucket;  // [slot] -> bucket index
  std::vector<std::uint32_t> slot_order;   // slots by ascending bucket
  std::vector<double> slot_loss;
  std::vector<double> slot_count;
  std::vector<double> slot_max;   // per-slot max observed value
  // A slot that holds one row reads its gradient straight from
  // sample_grad at slot_row; slot_grad is written only once a second row
  // lands (the copy is exact, so skipping it changes no bits).
  std::vector<std::uint32_t> slot_row;
  std::vector<double> slot_grad;  // row-major [slot][param]

  // Recursion scratch of UpdateNode: row partitions indexed by depth. The
  // outer vectors grow when the tree deepens; the inner buffers keep their
  // capacity, and spans into them survive outer-vector reallocation
  // because vector moves preserve the heap buffer.
  std::vector<std::vector<std::size_t>> left_rows;
  std::vector<std::vector<std::size_t>> right_rows;
};

// Label (classification) or target (regression) of batch row `i`.
template <typename BatchT>
auto TargetOf(const BatchT& batch, std::size_t i) {
  if constexpr (requires { batch.label(i); }) {
    return batch.label(i);
  } else {
    return batch.target(i);
  }
}

// Invalidates the per-batch feature-order cache; call once per PartialFit
// before any FeatureOrder use. Allocation-free once the buffers are warm.
template <typename BatchT>
void BeginFeatureOrders(const BatchT& batch, int num_features,
                        TrainScratch* scratch) {
  scratch->order_size = batch.size();
  scratch->feature_order.resize(static_cast<std::size_t>(num_features) *
                                batch.size());
  scratch->order_ready.assign(static_cast<std::size_t>(num_features), 0);
}

// The whole-batch ascending-value row order of feature `j`, sorted on
// first use this batch and memoized (key: value, then row index -- fully
// deterministic, so lazy and eager sorting agree bit-for-bit).
template <typename BatchT>
const std::uint32_t* FeatureOrder(const BatchT& batch, int j,
                                  TrainScratch* scratch) {
  const std::size_t n = scratch->order_size;
  std::uint32_t* order =
      scratch->feature_order.data() + static_cast<std::size_t>(j) * n;
  if (!scratch->order_ready[static_cast<std::size_t>(j)]) {
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(order, order + n, [&](std::uint32_t a, std::uint32_t b) {
      const double va = batch.row(a)[j];
      const double vb = batch.row(b)[j];
      return va < vb || (va == vb && a < b);
    });
    scratch->order_ready[static_cast<std::size_t>(j)] = 1;
  }
  return order;
}

// Eagerly sorts every feature's order (the pre-scheduler behavior; handy
// for tests and callers that know every feature will be consumed).
template <typename BatchT>
void ComputeFeatureOrders(const BatchT& batch, int num_features,
                          TrainScratch* scratch) {
  BeginFeatureOrders(batch, num_features, scratch);
  for (int j = 0; j < num_features; ++j) {
    (void)FeatureOrder(batch, j, scratch);
  }
}

// Phase 1 (every batch): leaf-tile gather (or zero-copy aliasing when the
// node owns the whole batch), model SGD step, per-sample losses/gradients,
// node tallies. Returns the batch loss at the updated parameters and
// leaves tile / sample_loss / sample_grad / batch_grad in the scratch, all
// indexed by TILE position (position i = rows[i]), for the scatter phase
// of the SAME (node, batch) -- the scatter calls below must follow before
// the next node's accumulate.
template <typename Model, typename BatchT>
double AccumulateNodeStatistics(const BatchT& batch,
                                std::span<const std::size_t> rows,
                                Model* model, double* loss_sum,
                                std::span<double> grad_sum, double* count,
                                TrainScratch* scratch) {
  const std::size_t n = rows.size();
  const std::size_t m = static_cast<std::size_t>(model->num_features());
  const std::size_t k = static_cast<std::size_t>(model->num_params());
  constexpr bool kClassification =
      requires { batch.label(std::size_t{0}); };

  // 0. Point the tile at the node's rows. A node that owns the whole batch
  //    (the root, and every node of a single-leaf tree) uses the batch
  //    storage in place -- rows is the identity permutation and both batch
  //    types are contiguous row-major, so no copy is needed. Other nodes
  //    gather their rows into a contiguous row-major tile. Either way the
  //    tile holds the exact same doubles, so everything computed from it
  //    matches the strided-batch path bit for bit.
  const bool identity = n > 0 && n == batch.size();
  const int* labels = nullptr;
  const double* targets = nullptr;
  if (identity) {
    scratch->tile = batch.row(0).data();
    if constexpr (kClassification) {
      labels = batch.labels().data();
    } else {
      targets = batch.targets().data();
    }
  } else {
    scratch->tile_x.resize(n * m);
    if constexpr (kClassification) {
      scratch->tile_label.resize(n);
    } else {
      scratch->tile_target.resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = rows[i];
      const std::span<const double> x = batch.row(r);
      std::copy(x.begin(), x.end(),
                scratch->tile_x.begin() + static_cast<std::ptrdiff_t>(i * m));
      if constexpr (kClassification) {
        scratch->tile_label[i] = batch.label(r);
      } else {
        scratch->tile_target[i] = batch.target(r);
      }
    }
    scratch->tile = scratch->tile_x.data();
    if constexpr (kClassification) {
      labels = scratch->tile_label.data();
    } else {
      targets = scratch->tile_target.data();
    }
  }

  // 1. SGD update of the simple model (Eq. 1 via gradient descent), in
  //    tile order = stream order.
  // 2. Per-sample loss and gradient at the updated parameters, four rows
  //    per weight traversal (kernels::DotBatch4 inside the tiled kernel).
  scratch->sample_loss.resize(n);
  scratch->sample_grad.resize(n * k);
  if constexpr (kClassification) {
    model->FitTile(scratch->tile, labels, n);
    model->LossAndGradientTile(scratch->tile, labels, n,
                               scratch->sample_loss.data(),
                               scratch->sample_grad.data());
  } else {
    model->FitTile(scratch->tile, targets, n);
    model->LossAndGradientTile(scratch->tile, targets, n,
                               scratch->sample_loss.data(),
                               scratch->sample_grad.data());
  }

  scratch->batch_grad.resize(k);
  scratch->prefix_grad.resize(k);
  std::fill(scratch->batch_grad.begin(), scratch->batch_grad.end(), 0.0);
  double batch_loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    batch_loss += scratch->sample_loss[i];
    kernels::Add(scratch->batch_grad.data(),
                 scratch->sample_grad.data() + i * k, k);
  }

  // 3. Increment node statistics (Algorithm 1, lines 1-3).
  *loss_sum += batch_loss;
  kernels::Add(grad_sum, scratch->batch_grad);
  *count += static_cast<double>(n);
  return batch_loss;
}

// Estimated gain of a proposal from this batch alone (Eq. 3 with Eq. 7
// losses): the left side holds run_loss over run_count of the batch's n
// rows with squared gradient norm norm_sq; diff_sq is the squared norm of
// the batch gradient minus the left one. Both proposal engines use these
// exact expressions.
inline double EstimatedGain(double batch_loss, std::size_t n, double run_loss,
                            double run_count, double norm_sq, double diff_sq,
                            double lambda) {
  const double left_hat =
      run_count <= 0.0 ? 0.0 : run_loss - (lambda / run_count) * norm_sq;
  const double right_count = static_cast<double>(n) - run_count;
  const double right_hat =
      (batch_loss - run_loss) -
      (right_count > 0.0 ? lambda / right_count * diff_sq : 0.0);
  return batch_loss - left_hat - right_hat;
}

// Scores the proposals still waiting for their est_gain. The engines call
// it with `all` false after each push: once four rows wait, they take one
// pass over the batch gradient (kernels::SquaredNormsBatch4) while they are
// still in cache, so the last pushed rows act as a four-row ring. With
// `all` true it also scores the (at most three) rows left at the end
// through the one-row kernels, which give the same bits.
inline void ScoreProposals(double lambda, double batch_loss, std::size_t n,
                           bool all, TrainScratch* scratch) {
  ProposalBuffer& proposals = scratch->proposals;
  const double* batch_grad = scratch->batch_grad.data();
  const std::size_t k = scratch->batch_grad.size();
  while (proposals.size() - proposals.scored() >= 4) {
    const std::size_t p = proposals.scored();
    double norm[4];
    double diff[4];
    kernels::SquaredNormsBatch4(proposals.grad(p).data(), k, batch_grad, k,
                                norm, diff);
    for (std::size_t t = 0; t < 4; ++t) {
      proposals.ScoreNext(EstimatedGain(batch_loss, n, proposals.loss(p + t),
                                        proposals.count(p + t), norm[t],
                                        diff[t], lambda));
    }
  }
  if (!all) return;
  while (proposals.scored() < proposals.size()) {
    const std::size_t p = proposals.scored();
    const double* g = proposals.grad(p).data();
    proposals.ScoreNext(EstimatedGain(
        batch_loss, n, proposals.loss(p), proposals.count(p),
        kernels::SquaredNorm(g, k), kernels::SquaredNormDiff(batch_grad, g, k),
        lambda));
  }
}

// Step 5 (both proposal engines): candidate replacement keeping the store
// bounded at max_candidates, allowing at most replacement_rate of it to
// turn over per step. Proposals are visited in descending estimated gain
// (row index breaks ties deterministically). loss_sum / grad_sum / count
// are the node tallies AFTER this batch's accumulate.
inline void ReplaceCandidates(const CandidateUpdateParams& params,
                              double loss_sum,
                              std::span<const double> grad_sum, double count,
                              CandidateStore* store, TrainScratch* scratch) {
  const double lambda = params.gradient_step_size;
  const ProposalBuffer& proposals = scratch->proposals;
  DMT_TELEMETRY_ADD(params.proposals_counter, proposals.size());
  scratch->proposal_order.resize(proposals.size());
  for (std::size_t i = 0; i < proposals.size(); ++i) {
    scratch->proposal_order[i] = static_cast<std::uint32_t>(i);
  }
  // Max-heap keyed (est_gain descending, index ascending) -- the key is a
  // total order, so repeated pops replay exactly the fully-sorted sequence;
  // but the loop below usually breaks after a handful of proposals, so the
  // heap only pays for what it consumes instead of a full O(P log P) sort.
  const auto heap_less = [&](std::uint32_t a, std::uint32_t b) {
    return proposals.est_gain(a) < proposals.est_gain(b) ||
           (proposals.est_gain(a) == proposals.est_gain(b) && a > b);
  };
  std::make_heap(scratch->proposal_order.begin(),
                 scratch->proposal_order.end(), heap_less);
  std::size_t budget = static_cast<std::size_t>(
      params.replacement_rate * static_cast<double>(params.max_candidates));
  // Gain estimates of the stored candidates, computed once per step and
  // maintained across replacements (recomputing per proposal would make
  // the update quadratic in the store size).
  scratch->stored_gain.resize(store->size());
  CandidateGains(*store, 0, loss_sum, grad_sum, count, loss_sum, lambda,
                 scratch->stored_gain);
  int worst = -1;  // argmin of stored_gain, recomputed after replacements
  std::size_t heap_size = scratch->proposal_order.size();
  while (heap_size > 0) {
    std::pop_heap(scratch->proposal_order.begin(),
                  scratch->proposal_order.begin() +
                      static_cast<std::ptrdiff_t>(heap_size),
                  heap_less);
    const std::uint32_t p = scratch->proposal_order[--heap_size];
    if (store->Contains(proposals.feature(p), proposals.value(p))) continue;
    if (store->size() < params.max_candidates) {
      const std::size_t c =
          store->Append(proposals.feature(p), proposals.value(p));
      store->loss(c) = proposals.loss(p);
      store->count(c) = proposals.count(p);
      store->SetGradFrom(c, proposals.grad(p));
      scratch->stored_gain.push_back(CandidateGain(
          *store, c, loss_sum, grad_sum, count, loss_sum, lambda));
      DMT_TELEMETRY_COUNT(params.appends_counter);
      continue;
    }
    if (budget == 0) break;
    // Replace the stored candidate with the lowest current gain estimate,
    // if the newcomer looks strictly better.
    if (worst < 0) {
      worst = static_cast<int>(std::min_element(scratch->stored_gain.begin(),
                                                scratch->stored_gain.end()) -
                               scratch->stored_gain.begin());
    }
    if (proposals.est_gain(p) <= scratch->stored_gain[worst]) {
      // Proposals are gain-descending and a failed comparison leaves the
      // store -- and with it the minimum -- unchanged, so every later
      // proposal fails the same test.
      break;
    }
    DMT_TELEMETRY_COUNT(params.evictions_counter);
    store->Reset(static_cast<std::size_t>(worst), proposals.feature(p),
                 proposals.value(p));
    store->loss(static_cast<std::size_t>(worst)) = proposals.loss(p);
    store->count(static_cast<std::size_t>(worst)) = proposals.count(p);
    store->SetGradFrom(static_cast<std::size_t>(worst), proposals.grad(p));
    scratch->stored_gain[static_cast<std::size_t>(worst)] = CandidateGain(
        *store, static_cast<std::size_t>(worst), loss_sum, grad_sum, count,
        loss_sum, lambda);
    worst = -1;
    --budget;
  }
}

// Bucketed proposal engine: deterministic fixed-width radix binning of
// each feature over the scaled [0, 1] range, O(n + order_buckets) per
// feature instead of a sort. Reads the tile state of
// AccumulateNodeStatistics; fills scratch->proposals. Values outside
// [0, 1] clamp into the edge buckets (ordering within an edge bucket is
// absorbed into its aggregate, which only coarsens proposal placement --
// the accumulated statistics stay exact sums of actual sample terms).
inline void ProposeFromBuckets(const CandidateUpdateParams& params,
                               std::size_t n, double batch_loss,
                               std::size_t num_params,
                               TrainScratch* scratch) {
  const std::size_t m = static_cast<std::size_t>(params.num_features);
  const std::size_t k = num_params;
  const std::size_t buckets = params.order_buckets;
  const double lambda = params.gradient_step_size;
  const double scale = static_cast<double>(buckets);

  scratch->proposals.Init(k);
  scratch->proposals.Clear();
  if (n < 2) return;  // a single row yields no boundary (full batch)

  scratch->radix_slot.resize(buckets);
  scratch->radix_epoch.resize(buckets, 0u);
  const std::size_t max_slots = std::min(n, buckets);
  scratch->slot_bucket.resize(max_slots);
  scratch->slot_order.resize(max_slots);
  scratch->slot_loss.resize(max_slots);
  scratch->slot_count.resize(max_slots);
  scratch->slot_max.resize(max_slots);
  scratch->slot_row.resize(max_slots);
  scratch->slot_grad.resize(max_slots * k);

  for (int j = 0; j < params.num_features; ++j) {
    // Bin every row. An occupied bucket gets a compact slot on first touch
    // (epoch tag marks it live this pass), so the aggregates stay dense no
    // matter how sparse the occupancy.
    const std::uint64_t epoch = ++scratch->radix_cur_epoch;
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = scratch->tile[i * m + j];
      const double scaled = v * scale;
      std::size_t b;
      if (scaled >= scale - 1.0) {
        b = buckets - 1;
      } else if (scaled > 0.0) {
        b = static_cast<std::size_t>(scaled);
      } else {
        b = 0;  // negatives (and non-finite comparisons) clamp low
      }
      if (scratch->radix_epoch[b] != epoch) {
        scratch->radix_epoch[b] = epoch;
        const std::size_t s = occupied++;
        scratch->radix_slot[b] = static_cast<std::uint32_t>(s);
        scratch->slot_bucket[s] = static_cast<std::uint32_t>(b);
        scratch->slot_loss[s] = scratch->sample_loss[i];
        scratch->slot_count[s] = 1.0;
        scratch->slot_max[s] = v;
        scratch->slot_row[s] = static_cast<std::uint32_t>(i);
      } else {
        const std::size_t s = scratch->radix_slot[b];
        double* slot_grad = scratch->slot_grad.data() + s * k;
        if (scratch->slot_count[s] == 1.0) {
          const double* first =
              scratch->sample_grad.data() + scratch->slot_row[s] * k;
          std::copy(first, first + k, slot_grad);
        }
        scratch->slot_loss[s] += scratch->sample_loss[i];
        scratch->slot_count[s] += 1.0;
        if (v > scratch->slot_max[s]) scratch->slot_max[s] = v;
        kernels::Add(slot_grad, scratch->sample_grad.data() + i * k, k);
      }
    }
    if (occupied < 2) continue;  // one bucket = no proposable boundary

    // Proposal budget: the user's per-feature cap, additionally bounded by
    // the bucket resolution (order_buckets / 8; at least 8). Boundary
    // placement is already quantized to bucket granularity, so spending a
    // full gain evaluation on every occupied bucket buys little -- the
    // store persists the best candidates across evaluations, and the
    // strided boundaries wander with the occupancy pattern batch to batch.
    // Ceil division ENFORCES the cap (the exact path's floor stride only
    // thins beyond twice the cap).
    std::size_t budget = std::max<std::size_t>(8, buckets / 8);
    if (params.max_proposals_per_feature > 0 &&
        params.max_proposals_per_feature < budget) {
      budget = params.max_proposals_per_feature;
    }
    std::size_t proposal_stride = 1;
    if (occupied - 1 > budget) {
      proposal_stride = (occupied - 1 + budget - 1) / budget;
    }

    // Ascending bucket index is ascending value order across buckets, so
    // the prefix recurrence of the exact scan runs over the slots sorted
    // by bucket (same visit order and per-bucket sums as a bitmap scan,
    // hence bit-identical to it).
    for (std::size_t s = 0; s < occupied; ++s) {
      scratch->slot_order[s] = static_cast<std::uint32_t>(s);
    }
    std::sort(scratch->slot_order.begin(),
              scratch->slot_order.begin() +
                  static_cast<std::ptrdiff_t>(occupied),
              [&](std::uint32_t a, std::uint32_t b) {
                return scratch->slot_bucket[a] < scratch->slot_bucket[b];
              });

    // The running gradient prefix lives in the proposal buffer's open row,
    // so a proposal needs no copy: the first slot after a commit writes
    // row p = row p-1 + slot, the other slots add in place -- the adds of
    // the plain running sum, so the same bits. The last slot completes the
    // full batch, which is no split, so the scan stops before it.
    double run_loss = 0.0;
    double run_count = 0.0;
    double* prefix = scratch->proposals.OpenRow();
    std::fill(prefix, prefix + k, 0.0);
    const double* committed = nullptr;  // row the open row continues
    for (std::size_t seen = 1; seen < occupied; ++seen) {
      const std::size_t s = scratch->slot_order[seen - 1];
      run_loss += scratch->slot_loss[s];
      const double* slot_grad =
          scratch->slot_count[s] == 1.0
              ? scratch->sample_grad.data() + scratch->slot_row[s] * k
              : scratch->slot_grad.data() + s * k;
      if (committed != nullptr) {
        kernels::Sum(committed, slot_grad, prefix, k);
        committed = nullptr;
      } else {
        kernels::Add(prefix, slot_grad, k);
      }
      run_count += scratch->slot_count[s];
      if (seen % proposal_stride != 0) continue;

      // The bucket prefix is a proposal; its gain estimate uses the same
      // expressions as the exact scan (EstimatedGain).
      scratch->proposals.Commit(j, scratch->slot_max[s], run_loss, run_count);
      ScoreProposals(lambda, batch_loss, n, false, scratch);
      prefix = scratch->proposals.OpenRow();
      committed = scratch->proposals.grad(scratch->proposals.size() - 1).data();
    }
  }
  ScoreProposals(lambda, batch_loss, n, true, scratch);
}

// Phase 2, skip path (and the stored-candidate scatter of the bucketed
// evaluation path): scatter this batch into the stored candidates without
// sorting the batch or proposing anything. Each stored candidate with
// threshold t owes the sum over this node's rows with value <= t (exactly
// what the prefix scan delivers), so the rows are bucketed against the
// sorted stored thresholds by binary search and the buckets
// prefix-accumulated. Requires the tile state of AccumulateNodeStatistics
// for the same (node, batch). The bucket sums necessarily associate
// additions in a different order than the value-sorted prefix scan, which
// is why exact mode never routes a batch through here.
template <typename BatchT>
void ScatterStoredOnly(const BatchT& batch, std::span<const std::size_t> rows,
                       CandidateStore* store, TrainScratch* scratch) {
  const std::size_t total = store->size();
  if (total == 0) return;
  const std::size_t k = store->num_params();
  const std::size_t m = batch.num_features();

  // Keys are immutable during the scatter (only loss/grad/count mutate),
  // so the store's maintained order stays valid throughout.
  const std::span<const std::uint32_t> stored = store->SortedByFeatureValue();

  std::size_t group_begin = 0;
  while (group_begin < total) {
    const int j = store->feature(stored[group_begin]);
    std::size_t group_end = group_begin + 1;
    while (group_end < total && store->feature(stored[group_end]) == j) {
      ++group_end;
    }
    const std::size_t buckets = group_end - group_begin;

    scratch->bucket_loss.resize(buckets);
    scratch->bucket_count.resize(buckets);
    scratch->bucket_grad.resize(buckets * k);
    std::fill(scratch->bucket_loss.begin(),
              scratch->bucket_loss.begin() +
                  static_cast<std::ptrdiff_t>(buckets), 0.0);
    std::fill(scratch->bucket_count.begin(),
              scratch->bucket_count.begin() +
                  static_cast<std::ptrdiff_t>(buckets), 0.0);
    std::fill(scratch->bucket_grad.begin(),
              scratch->bucket_grad.begin() +
                  static_cast<std::ptrdiff_t>(buckets * k), 0.0);

    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double value = scratch->tile[i * m + j];
      // First stored threshold >= value: the smallest left side that
      // includes this observation (rows above every threshold contribute
      // to no candidate of this feature).
      std::size_t lo = group_begin;
      std::size_t hi = group_end;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (store->value(stored[mid]) < value) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == group_end) continue;
      const std::size_t b = lo - group_begin;
      scratch->bucket_loss[b] += scratch->sample_loss[i];
      kernels::Add(scratch->bucket_grad.data() + b * k,
                   scratch->sample_grad.data() + i * k, k);
      scratch->bucket_count[b] += 1.0;
    }

    // Ascending thresholds: candidate i owes buckets 0..i.
    double run_loss = 0.0;
    std::fill(scratch->prefix_grad.begin(), scratch->prefix_grad.end(), 0.0);
    double run_count = 0.0;
    for (std::size_t g = group_begin; g < group_end; ++g) {
      const std::size_t b = g - group_begin;
      run_loss += scratch->bucket_loss[b];
      kernels::Add(scratch->prefix_grad.data(),
                   scratch->bucket_grad.data() + b * k, k);
      run_count += scratch->bucket_count[b];
      const std::size_t c = stored[g];
      store->loss(c) += run_loss;
      store->AccumulateGrad(c, scratch->prefix_grad);
      store->count(c) += run_count;
    }
    group_begin = group_end;
  }
}

// Phase 2, evaluation path (Algorithm 1 lines 6-11; Sec. V-D): scatter
// into the stored candidates plus fresh proposals and bounded replacement,
// through the exact sorted scan (order_buckets = 0) or the radix-bucket
// engine. Requires the tile state of AccumulateNodeStatistics for the same
// (node, batch); loss_sum / grad_sum / count are the node tallies AFTER
// that accumulate.
template <typename BatchT>
void ScatterAndPropose(const CandidateUpdateParams& params,
                       const BatchT& batch, std::span<const std::size_t> rows,
                       double batch_loss, double loss_sum,
                       std::span<const double> grad_sum, double count,
                       CandidateStore* store, TrainScratch* scratch) {
  const std::size_t n = rows.size();
  const std::size_t batch_rows = batch.size();
  const std::size_t m = static_cast<std::size_t>(params.num_features);
  const std::size_t k = store->num_params();
  const double lambda = params.gradient_step_size;

  if (params.order_buckets > 0) {
    // Bucketed engine: the stored scatter reuses the skip-path bucketing
    // (exact for any threshold), the proposals come from radix buckets.
    DMT_TELEMETRY_COUNT(params.bucket_evals_counter);
    ScatterStoredOnly(batch, rows, store, scratch);
    ProposeFromBuckets(params, n, batch_loss, k, scratch);
    DMT_TELEMETRY_ADD(params.bucket_proposals_counter,
                      scratch->proposals.size());
    ReplaceCandidates(params, loss_sum, grad_sum, count, store, scratch);
    return;
  }

  // 4. Exact engine: per-feature prefix scan in ascending value order --
  //    stored-candidate scatter plus fresh proposals.
  scratch->tile_pos.resize(batch_rows);
  std::fill(scratch->tile_pos.begin(), scratch->tile_pos.end(),
            std::int32_t{-1});
  for (std::size_t i = 0; i < n; ++i) {
    scratch->tile_pos[rows[i]] = static_cast<std::int32_t>(i);
  }
  scratch->node_order.resize(n);
  scratch->proposals.Init(k);
  scratch->proposals.Clear();

  std::size_t proposal_stride = 1;
  if (params.max_proposals_per_feature > 0 &&
      n > params.max_proposals_per_feature) {
    proposal_stride = n / params.max_proposals_per_feature;
  }

  // Stored candidates grouped by feature in ascending threshold order; the
  // store's keys don't change during the scan (ReplaceCandidates runs
  // after it), so its maintained order serves every feature's group.
  const std::span<const std::uint32_t> stored = store->SortedByFeatureValue();
  std::size_t group_begin = 0;

  for (int j = 0; j < params.num_features; ++j) {
    // Node-local ascending order = batch order filtered by membership,
    // re-expressed as tile positions so the scan walks the gathered tile.
    const std::uint32_t* batch_order = FeatureOrder(batch, j, scratch);
    std::size_t filled = 0;
    for (std::size_t pos = 0; pos < scratch->order_size; ++pos) {
      const std::int32_t tp = scratch->tile_pos[batch_order[pos]];
      if (tp >= 0) {
        scratch->node_order[filled++] = static_cast<std::uint32_t>(tp);
      }
    }
    DMT_DCHECK(filled == n);

    // This feature's stored group [group_begin, group_end).
    std::size_t group_end = group_begin;
    while (group_end < stored.size() && store->feature(stored[group_end]) == j) {
      ++group_end;
    }

    double run_loss = 0.0;
    std::fill(scratch->prefix_grad.begin(), scratch->prefix_grad.end(), 0.0);
    double run_count = 0.0;
    std::size_t stored_pos = group_begin;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t tp = scratch->node_order[i];
      const double value = scratch->tile[tp * m + j];
      // Stored candidates strictly below this value receive the prefix
      // accumulated so far (their left side excludes this observation).
      while (stored_pos < group_end &&
             store->value(stored[stored_pos]) < value) {
        const std::size_t c = stored[stored_pos];
        store->loss(c) += run_loss;
        store->AccumulateGrad(c, scratch->prefix_grad);
        store->count(c) += run_count;
        ++stored_pos;
      }
      run_loss += scratch->sample_loss[tp];
      kernels::Add(scratch->prefix_grad.data(),
                   scratch->sample_grad.data() + tp * k, k);
      run_count += 1.0;

      // Value boundary: the split "x_j <= value" is a candidate.
      const bool boundary =
          i + 1 == n ||
          scratch->tile[scratch->node_order[i + 1] * m + j] > value;
      if (!boundary || i + 1 == n) continue;  // the full batch is no split
      if ((i + 1) % proposal_stride != 0) continue;

      scratch->proposals.Push(j, value, run_loss, scratch->prefix_grad,
                              run_count);
      ScoreProposals(lambda, batch_loss, n, false, scratch);
    }
    // Remaining stored candidates (threshold >= max value) absorb the full
    // batch on their left side.
    while (stored_pos < group_end) {
      const std::size_t c = stored[stored_pos];
      store->loss(c) += batch_loss;
      store->AccumulateGrad(c, scratch->batch_grad);
      store->count(c) += static_cast<double>(n);
      ++stored_pos;
    }
    group_begin = group_end;
  }
  ScoreProposals(lambda, batch_loss, n, true, scratch);

  // 5. Bounded candidate replacement.
  ReplaceCandidates(params, loss_sum, grad_sum, count, store, scratch);
}

}  // namespace dmt::core

#endif  // DMT_CORE_CANDIDATE_UPDATE_H_
