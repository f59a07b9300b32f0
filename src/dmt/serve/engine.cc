#include "dmt/serve/engine.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <future>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "dmt/serial/model_io.h"
#include "dmt/serve/state_dir.h"

namespace dmt::serve {

namespace {

// Stable stream-id -> shard hash (FNV-1a, SplitMix64-finalized). Must not
// depend on anything but the id bytes: a stream's model identity survives
// process restarts and shard-count changes only because its *seed* comes
// from DeriveSeed(engine seed, id), but its shard home may legitimately
// move when num_shards changes.
std::size_t ShardOf(const std::string& id, std::size_t num_shards) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : id) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(SplitMix64(h) % num_shards);
}

// Appends `value` in decimal, exactly as std::to_string spells it.
template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buffer[24];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

}  // namespace

ServeEngine::ServeEngine(ServeConfig config) : config_(std::move(config)) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  if (config_.batch_window == 0) config_.batch_window = 1;
  if (config_.queue_capacity == 0) {
    config_.queue_capacity = config_.batch_window;
  }
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->scratch_batch =
        Batch(static_cast<std::size_t>(config_.num_features));
    shards_.push_back(std::move(shard));
  }
  shard_queues_.resize(config_.num_shards);
  if (config_.num_shards > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_shards);
  }
  if (config_.state_dir.empty()) {
    if (config_.max_streams > 0 || config_.idle_windows > 0) {
      throw StateError(
          "stream eviction (max_streams / idle_windows) requires a state "
          "dir to park models in");
    }
    if (config_.checkpoint_every > 0) {
      throw StateError("checkpoint_every requires a state dir");
    }
  } else {
    EnsureStateDir(config_.state_dir);
    RecoverFromStateDir();
  }
}

ServeEngine::~ServeEngine() = default;

ServeEngine::StreamState* ServeEngine::FindOrCreateStream(
    const std::string& id, std::string* error) {
  const auto it = streams_.find(id);
  if (it != streams_.end()) {
    StreamState* stream = &it->second;
    if (stream->model == nullptr && !WarmStart(stream, error)) return nullptr;
    return stream;
  }
  StreamState state;
  state.id = id;
  state.shard = ShardOf(id, shards_.size());
  // Seeded from the stream identity alone: the same id always gets the
  // same model no matter which shard hosts it or when it first appeared.
  state.model = config_.factory(id, DeriveSeed(config_.seed, id));
  Shard* shard = shards_[state.shard].get();
  state.model->AttachTelemetry(&shard->telemetry);
  ++shard->num_streams;
  *shard->resident_streams = static_cast<double>(shard->num_streams);
  ++resident_;
  ++streams_created_;
  StreamState* created = &streams_.emplace(id, std::move(state)).first->second;
  LruPushBack(created);
  return created;
}

bool ServeEngine::WarmStart(StreamState* stream, std::string* error) {
  try {
    park_log_.Read(stream->parked, stream->id, &archive_buffer_);
    std::unique_ptr<Classifier> model =
        serial::LoadClassifierFromString(archive_buffer_);
    if (model->num_classes() != config_.num_classes) {
      throw StateError("parked archive has " +
                       std::to_string(model->num_classes()) +
                       " classes, engine " +
                       std::to_string(config_.num_classes));
    }
    Shard* shard = shards_[stream->shard].get();
    model->AttachTelemetry(&shard->telemetry);
    stream->model = std::move(model);
    LruPushBack(stream);
    // The parked record is now stale (the resident model trains on); the
    // next eviction or checkpoint re-serializes from memory.
    park_log_.Forget(stream->parked);
    ++shard->num_streams;
    *shard->resident_streams = static_cast<double>(shard->num_streams);
    *shard->warm_starts += 1;
    ++resident_;
    ++warm_starts_;
    return true;
  } catch (const std::exception& e) {
    ++state_errors_;
    *error = e.what();
    return false;
  }
}

void ServeEngine::InjectFaults(Request* request, StreamState* stream) {
  const robust::FaultSpec& spec = config_.inject;
  if (stream->inject_rng == nullptr) {
    // Seeded from the stream identity alone, like the model itself, and
    // advanced once per train/score request of this stream: the fault
    // trace is a pure function of the stream's request subsequence.
    stream->inject_rng = std::make_unique<Rng>(
        DeriveSeed(config_.seed, stream->id, "inject"));
  }
  Rng& rng = *stream->inject_rng;
  const int features = config_.num_features;
  bool injected = false;
  // Draw order mirrors robust::FaultyStream: truncate, nan, inf, missing,
  // flip. Serve rows have no "stream end", so truncate becomes a truncated
  // *row*: a random suffix of the features is lost (NaN).
  if (spec.truncate_rate > 0.0 && features > 0 &&
      rng.Bernoulli(spec.truncate_rate)) {
    const int start = rng.UniformInt(0, features - 1);
    for (int i = start; i < features; ++i) {
      request->values[static_cast<std::size_t>(i)] =
          std::numeric_limits<double>::quiet_NaN();
    }
    injected = true;
  }
  if (spec.nan_rate > 0.0 && features > 0 && rng.Bernoulli(spec.nan_rate)) {
    request->values[static_cast<std::size_t>(rng.UniformInt(0, features - 1))] =
        std::numeric_limits<double>::quiet_NaN();
    injected = true;
  }
  if (spec.inf_rate > 0.0 && features > 0 && rng.Bernoulli(spec.inf_rate)) {
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    request->values[static_cast<std::size_t>(rng.UniformInt(0, features - 1))] =
        sign * std::numeric_limits<double>::infinity();
    injected = true;
  }
  if (spec.missing_rate > 0.0) {
    for (int i = 0; i < features; ++i) {
      if (rng.Bernoulli(spec.missing_rate)) {
        request->values[static_cast<std::size_t>(i)] =
            std::numeric_limits<double>::quiet_NaN();
        injected = true;
      }
    }
  }
  if (request->verb == Verb::kTrain && spec.flip_rate > 0.0 &&
      config_.num_classes > 1 && rng.Bernoulli(spec.flip_rate)) {
    double& label = request->values[static_cast<std::size_t>(features)];
    if (std::isfinite(label) && label == std::floor(label) && label >= 0.0 &&
        label < static_cast<double>(config_.num_classes)) {
      // Uniform over the other classes: draw r in [0, c-2], shift past y.
      int r = rng.UniformInt(0, config_.num_classes - 2);
      if (r >= static_cast<int>(label)) ++r;
      label = static_cast<double>(r);
      injected = true;
    }
  }
  if (injected) ++injected_rows_;
}

void ServeEngine::RouteRequest(std::size_t slot) {
  Request& request = request_;
  std::string& response = responses_[slot];
  if (request.verb == Verb::kStats) {
    AppendStatsLine(&response);
    return;
  }
  if (request.verb == Verb::kSnapshot && !streams_.count(request.stream_id)) {
    response.append("ERR unknown_stream ").append(request.stream_id);
    return;
  }
  std::string warm_error;
  StreamState* stream = FindOrCreateStream(request.stream_id, &warm_error);
  if (stream == nullptr) {
    response.append("ERR warm_start ")
        .append(request.stream_id)
        .append(" ")
        .append(warm_error);
    return;
  }
  // Touch bookkeeping for LRU/TTL eviction: the request ordinal is unique,
  // so the LRU order is total and eviction picks the same victims at any
  // shard count.
  stream->last_touch = requests_;
  stream->last_window = windows_;
  if (stream != lru_tail_) {
    LruUnlink(stream);
    LruPushBack(stream);
  }
  Shard* shard = shards_[stream->shard].get();

  if (config_.inject.any() &&
      (request.verb == Verb::kTrain || request.verb == Verb::kScore)) {
    InjectFaults(&request, stream);
  }

  // Bad-input policy, applied at routing so every request's response is
  // fully determined by the request sequence. Train rows carry the label
  // as the last value; a bad label can never be imputed.
  if (request.verb == Verb::kTrain || request.verb == Verb::kScore) {
    const std::size_t features = static_cast<std::size_t>(
        config_.num_features);
    double bad_value = 0.0;
    bool row_bad = false;
    for (std::size_t i = 0; i < features; ++i) {
      if (!std::isfinite(request.values[i])) {
        bad_value = request.values[i];
        row_bad = true;
        if (config_.bad_input_policy == BadInputPolicy::kImputeMidpoint) {
          request.values[i] = 0.0;
          ++values_imputed_;
        }
      }
    }
    bool label_bad = false;
    if (request.verb == Verb::kTrain) {
      const double label = request.values.back();
      label_bad = !std::isfinite(label) || label != std::floor(label) ||
                  label < 0.0 ||
                  label >= static_cast<double>(config_.num_classes);
    }
    if (row_bad || label_bad) {
      ++bad_rows_;
      *shard->bad_rows += 1;
      // The gauge holds the offending value verbatim -- possibly NaN/Inf;
      // the JSON exporter must render it as null, not as bare `nan`.
      *shard->last_bad_value = label_bad ? request.values.back() : bad_value;
    }
    const bool drop_row =
        label_bad || (row_bad && config_.bad_input_policy !=
                                     BadInputPolicy::kImputeMidpoint);
    if (drop_row) {
      const char* what = request.verb == Verb::kTrain ? "train" : "score";
      if (config_.bad_input_policy == BadInputPolicy::kThrow) {
        response.append("ERR bad_row ")
            .append(what)
            .append(" ")
            .append(request.stream_id);
      } else {
        response.append("OK ")
            .append(what)
            .append(" ")
            .append(request.stream_id)
            .append(" dropped");
      }
      return;
    }
  }

  // Explicit back-pressure: a full shard queue rejects instead of growing
  // without bound; the client owns the retry (next window is one barrier
  // away, hence retry-after=1).
  std::vector<Routed>& queue = shard_queues_[stream->shard];
  if (queue.size() >= config_.queue_capacity) {
    ++rejected_;
    *shard->rejected += 1;
    response.append("ERR retry-after=1 ")
        .append(request.stream_id)
        .append(" shard=");
    AppendInt(&response, stream->shard);
    response.append(" queue_full");
    return;
  }

  Routed routed;
  routed.verb = request.verb;
  routed.stream = stream;
  routed.slot = slot;
  routed.values = row_arena_.size();
  row_arena_.insert(row_arena_.end(), request.values.begin(),
                    request.values.end());
  routed.path = request.path;
  switch (request.verb) {
    case Verb::kTrain:
      routed.ordinal = ++stream->rows_trained;
      ++train_rows_;
      break;
    case Verb::kScore:
      ++score_rows_;
      break;
    case Verb::kSnapshot:
      ++snapshots_;
      break;
    case Verb::kRestore:
      ++restores_;
      break;
    default:
      break;
  }
  queue.push_back(std::move(routed));
}

void ServeEngine::ServeLine(std::string_view line, std::ostream& out) {
  ++requests_;
  const bool parsed =
      ParseRequestLine(line, config_.num_features, &request_, &parse_error_);
  if (parsed && request_.verb == Verb::kDrop) {
    // A drop is a window boundary: everything routed so far (possibly
    // including requests for this stream) executes first, then the stream
    // is destroyed on the routing thread while no shard task is running.
    // Its response is emitted directly -- still in request order, right
    // after the flushed window's responses.
    Flush(out);
    const auto it = streams_.find(request_.stream_id);
    if (it == streams_.end()) {
      out << "ERR unknown_stream " << request_.stream_id << '\n';
    } else {
      StreamState& state = it->second;
      if (state.model != nullptr) {
        LruUnlink(&state);
        Shard* shard = shards_[state.shard].get();
        --shard->num_streams;
        *shard->resident_streams = static_cast<double>(shard->num_streams);
        --resident_;
      } else {
        // Nothing refers to the parked record any more, so a recreated
        // stream of this id starts fresh.
        park_log_.Forget(state.parked);
      }
      streams_.erase(it);
      ++drops_;
      out << "OK drop " << request_.stream_id << '\n';
    }
    return;
  }
  const std::size_t slot = num_responses_++;
  if (slot == responses_.size()) responses_.emplace_back();
  responses_[slot].clear();
  if (!parsed) {
    ++parse_errors_;
    responses_[slot].append("ERR parse ").append(parse_error_);
  } else {
    RouteRequest(slot);
  }
  if (num_responses_ >= config_.batch_window) Flush(out);
}

void ServeEngine::Flush(std::ostream& out) {
  // An empty flush (bridge idle tick, drop at a window start, double
  // Finish) is a no-op: it must not advance the window clock, evict, or
  // checkpoint, or interactive serving would diverge from batch replay.
  if (num_responses_ == 0) return;
  // Unique per window: tags ProcessShard's per-stream grouping.
  const std::uint64_t tag = windows_ + 1;
  bool any = false;
  for (const std::vector<Routed>& queue : shard_queues_) {
    if (!queue.empty()) any = true;
  }
  if (any) {
    if (pool_ != nullptr) {
      std::vector<std::future<void>> futures;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (shard_queues_[s].empty()) continue;
        Shard* shard = shards_[s].get();
        const std::vector<Routed>* items = &shard_queues_[s];
        futures.push_back(pool_->Submit(
            [this, shard, items, tag]() { ProcessShard(shard, *items, tag); }));
      }
      for (std::future<void>& future : futures) {
        GetHelping(pool_.get(), &future);
      }
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (!shard_queues_[s].empty()) {
          ProcessShard(shards_[s].get(), shard_queues_[s], tag);
        }
      }
    }
    for (std::vector<Routed>& queue : shard_queues_) queue.clear();
    row_arena_.clear();
  }
  for (std::size_t i = 0; i < num_responses_; ++i) {
    out.write(responses_[i].data(),
              static_cast<std::streamsize>(responses_[i].size()));
    out.put('\n');
  }
  out.flush();
  num_responses_ = 0;
  ++windows_;
  EvictAtBoundary();
  if (!config_.state_dir.empty() && config_.checkpoint_every > 0 &&
      windows_ % config_.checkpoint_every == 0) {
    WriteCheckpoint();
  }
  if (config_.exporter != nullptr && config_.export_every > 0 &&
      windows_ % config_.export_every == 0) {
    ExportTelemetry();
  }
}

void ServeEngine::LruPushBack(StreamState* stream) {
  stream->lru_prev = lru_tail_;
  stream->lru_next = nullptr;
  (lru_tail_ != nullptr ? lru_tail_->lru_next : lru_head_) = stream;
  lru_tail_ = stream;
}

void ServeEngine::LruUnlink(StreamState* stream) {
  (stream->lru_prev != nullptr ? stream->lru_prev->lru_next : lru_head_) =
      stream->lru_next;
  (stream->lru_next != nullptr ? stream->lru_next->lru_prev : lru_tail_) =
      stream->lru_prev;
  stream->lru_prev = nullptr;
  stream->lru_next = nullptr;
}

void ServeEngine::EvictAtBoundary() {
  // Runs on the routing thread between windows, so eviction timing is a
  // pure function of the request sequence -- never of shard scheduling.
  // The LRU list is in last_touch order and last_window grows with
  // last_touch, so each policy's victims are a prefix of the list, evicted
  // least recent first. A stream that cannot be parked stays linked and
  // the walk moves past it.
  StreamState* next = nullptr;
  if (config_.idle_windows > 0) {
    for (StreamState* stream = lru_head_;
         stream != nullptr &&
         windows_ - stream->last_window > config_.idle_windows;
         stream = next) {
      next = stream->lru_next;
      EvictStream(stream);
    }
  }
  if (config_.max_streams > 0) {
    for (StreamState* stream = lru_head_;
         stream != nullptr && resident_ > config_.max_streams;
         stream = next) {
      next = stream->lru_next;
      EvictStream(stream);
    }
  }
  if (park_log_.NeedsCompaction()) CompactParkLog();
}

void ServeEngine::CompactParkLog() {
  std::vector<ParkSlot*> live;
  for (auto& [id, state] : streams_) {
    if (state.model == nullptr) live.push_back(&state.parked);
  }
  try {
    park_log_.Compact(std::move(live));
  } catch (const StateError& e) {
    // The old log stays in use; the next window tries again.
    ++state_errors_;
    std::fprintf(stderr, "dmt_serve: %s\n", e.what());
  }
}

bool ServeEngine::EvictStream(StreamState* stream) {
  try {
    serial::SaveClassifierToString(*stream->model, &archive_buffer_);
    stream->parked = park_log_.Append(stream->id, archive_buffer_);
  } catch (const std::exception& e) {
    // Never silently lose state: a stream that cannot be parked stays
    // resident and serving continues.
    ++state_errors_;
    std::fprintf(stderr, "dmt_serve: cannot evict stream '%s': %s\n",
                 stream->id.c_str(), e.what());
    return false;
  }
  stream->model.reset();
  LruUnlink(stream);
  Shard* shard = shards_[stream->shard].get();
  --shard->num_streams;
  *shard->resident_streams = static_cast<double>(shard->num_streams);
  *shard->evictions += 1;
  --resident_;
  ++evictions_;
  return true;
}

void ServeEngine::WriteCheckpoint() {
  ManifestHead head;
  head.seq = next_checkpoint_seq_;
  head.model_kind = config_.model_kind;
  head.num_features = config_.num_features;
  head.num_classes = config_.num_classes;
  head.seed = config_.seed;
  head.batch_window = config_.batch_window;
  head.inject_rates = {config_.inject.nan_rate, config_.inject.inf_rate,
                       config_.inject.missing_rate, config_.inject.flip_rate,
                       config_.inject.truncate_rate};
  ManifestTallies& t = head.tallies;
  t.requests = requests_;
  t.parse_errors = parse_errors_;
  t.rejected = rejected_;
  t.bad_rows = bad_rows_;
  t.values_imputed = values_imputed_;
  t.train_rows = train_rows_;
  t.score_rows = score_rows_;
  t.snapshots = snapshots_;
  t.restores = restores_;
  t.drops = drops_;
  t.streams_created = streams_created_;
  t.windows = windows_;
  t.evictions = evictions_;
  t.warm_starts = warm_starts_;
  // The checkpoint counts itself: a run recovered from it must report the
  // same `checkpoints` tally as the run that wrote it.
  t.checkpoints = checkpoints_ + 1;
  t.injected_rows = injected_rows_;
  t.state_errors = state_errors_;

  std::vector<const StreamState*> order;
  order.reserve(streams_.size());
  for (const auto& [id, state] : streams_) order.push_back(&state);
  std::sort(order.begin(), order.end(),
            [](const StreamState* a, const StreamState* b) {
              return a->id < b->id;
            });
  // Each record is written as soon as it is built: a resident model is
  // encoded into archive_buffer_, a parked one is copied from the park log
  // through the same buffer, so the checkpoint holds one archive at a time.
  try {
    WriteManifest(
        config_.state_dir, head, order.size(),
        [&](std::size_t i, ManifestRecord* record) {
          const StreamState& state = *order[i];
          record->id = state.id;
          record->resident = state.model != nullptr;
          record->rows_trained = state.rows_trained;
          record->last_touch = state.last_touch;
          record->last_window = state.last_window;
          // The generator itself, so a stream's fault-injection trace
          // continues bit-identically across a checkpoint/recover cycle.
          record->inject_rng = state.inject_rng.get();
          if (record->resident) {
            serial::SaveClassifierToString(*state.model, &archive_buffer_);
          } else {
            park_log_.Read(state.parked, state.id, &archive_buffer_);
          }
          record->archive = archive_buffer_;
        });
  } catch (const std::exception& e) {
    // A failed checkpoint never interrupts serving; the previous manifest
    // stays the recovery point.
    ++state_errors_;
    std::fprintf(stderr, "dmt_serve: checkpoint %llu failed: %s\n",
                 static_cast<unsigned long long>(head.seq), e.what());
    return;
  }
  ++checkpoints_;
  ++next_checkpoint_seq_;
}

void ServeEngine::RecoverFromStateDir() {
  std::optional<Manifest> loaded = LoadNewestManifest(config_.state_dir);
  if (!loaded.has_value()) {  // fresh state dir
    park_log_.Open(config_.state_dir);
    return;
  }
  Manifest& m = *loaded;
  // Config-stamp verification: every field below is part of the
  // determinism recipe, so skew is a typed refusal, never a silent reset.
  if (m.model_kind != config_.model_kind) {
    throw StateError("checkpoint was written by model kind '" +
                     m.model_kind + "', engine runs '" + config_.model_kind +
                     "'");
  }
  if (m.num_features != config_.num_features ||
      m.num_classes != config_.num_classes) {
    throw StateError(
        "checkpoint dimensions " + std::to_string(m.num_features) + "x" +
        std::to_string(m.num_classes) + " do not match engine " +
        std::to_string(config_.num_features) + "x" +
        std::to_string(config_.num_classes));
  }
  if (m.seed != config_.seed) {
    throw StateError("checkpoint seed " + std::to_string(m.seed) +
                     " does not match engine seed " +
                     std::to_string(config_.seed));
  }
  if (m.batch_window != config_.batch_window) {
    throw StateError("checkpoint batch_window " +
                     std::to_string(m.batch_window) +
                     " does not match engine batch_window " +
                     std::to_string(config_.batch_window));
  }
  const std::array<double, 5> rates = {
      config_.inject.nan_rate, config_.inject.inf_rate,
      config_.inject.missing_rate, config_.inject.flip_rate,
      config_.inject.truncate_rate};
  if (m.inject_rates != rates) {
    throw StateError(
        "checkpoint fault-injection rates do not match the engine's "
        "--inject spec");
  }

  const ManifestTallies& t = m.tallies;
  requests_ = t.requests;
  parse_errors_ = t.parse_errors;
  rejected_ = t.rejected;
  bad_rows_ = t.bad_rows;
  values_imputed_ = t.values_imputed;
  train_rows_ = t.train_rows;
  score_rows_ = t.score_rows;
  snapshots_ = t.snapshots;
  restores_ = t.restores;
  drops_ = t.drops;
  streams_created_ = t.streams_created;
  windows_ = t.windows;
  evictions_ = t.evictions;
  warm_starts_ = t.warm_starts;
  checkpoints_ = t.checkpoints;
  injected_rows_ = t.injected_rows;
  state_errors_ = t.state_errors;
  next_checkpoint_seq_ = m.seq + 1;

  // The manifest is the only authority: whatever log a crashed run left
  // (torn, stale, or per-stream files of an older build) is never read.
  // Its parked streams are re-appended to a truncated log in one write.
  park_log_.Open(config_.state_dir);
  std::vector<StreamState*> resident;
  for (ManifestStream& entry : m.streams) {
    StreamState state;
    state.id = entry.id;
    state.shard = ShardOf(entry.id, shards_.size());
    state.rows_trained = entry.rows_trained;
    state.last_touch = entry.last_touch;
    state.last_window = entry.last_window;
    state.inject_rng = std::move(entry.inject_rng);
    if (entry.resident) {
      std::unique_ptr<Classifier> model;
      try {
        model = serial::LoadClassifierFromString(entry.archive);
      } catch (const serial::SerialError& e) {
        throw StateError("corrupt model archive for stream '" + entry.id +
                         "': " + e.what());
      }
      if (model->num_classes() != config_.num_classes) {
        throw StateError("stream '" + entry.id + "' archive has " +
                         std::to_string(model->num_classes()) +
                         " classes, engine " +
                         std::to_string(config_.num_classes));
      }
      Shard* shard = shards_[state.shard].get();
      model->AttachTelemetry(&shard->telemetry);
      state.model = std::move(model);
      ++shard->num_streams;
      *shard->resident_streams = static_cast<double>(shard->num_streams);
      ++resident_;
    } else {
      state.parked = park_log_.Stage(entry.id, entry.archive);
    }
    const auto [it, inserted] = streams_.emplace(entry.id, std::move(state));
    if (!inserted) {
      throw StateError("checkpoint manifest lists stream '" + entry.id +
                       "' twice");
    }
    if (it->second.model != nullptr) resident.push_back(&it->second);
  }
  // The manifest lists streams by id; the LRU list wants last_touch order.
  // Touch ordinals are unique, so only a hand-edited manifest has ties, and
  // those keep id order.
  std::stable_sort(resident.begin(), resident.end(),
                   [](const StreamState* a, const StreamState* b) {
                     return a->last_touch < b->last_touch;
                   });
  for (StreamState* stream : resident) LruPushBack(stream);
  park_log_.Flush();
}

void ServeEngine::ProcessShard(Shard* shard, const std::vector<Routed>& items,
                               std::uint64_t tag) {
  // Regroup per stream, preserving each stream's own request order but
  // ignoring interleaving by other streams: streams are independent, so
  // this is semantically equivalent to global order -- and it makes run
  // coalescing identical at any shard count (see the header contract).
  // A stable counting sort by first appearance: number the streams and
  // count their requests, turn the counts into group offsets, then place
  // each request's queue index at its group's next position.
  std::vector<std::size_t>& offsets = shard->group_offsets;
  offsets.clear();
  for (const Routed& item : items) {
    StreamState* stream = item.stream;
    if (stream->group_tag != tag) {
      stream->group_tag = tag;
      stream->group = offsets.size();
      offsets.push_back(0);
    }
    ++offsets[stream->group];
  }
  std::size_t next = 0;
  for (std::size_t& offset : offsets) {
    const std::size_t count = offset;
    offset = next;
    next += count;
  }
  std::vector<std::size_t>& grouped = shard->grouped;
  grouped.resize(items.size());
  for (std::size_t k = 0; k < items.size(); ++k) {
    grouped[offsets[items[k].stream->group]++] = k;
  }

  const std::size_t features = static_cast<std::size_t>(config_.num_features);
  std::size_t i = 0;
  while (i < grouped.size()) {
    const Routed& head = items[grouped[i]];
    StreamState* stream = head.stream;
    if (head.verb == Verb::kTrain || head.verb == Verb::kScore) {
      // Maximal same-verb run of this stream -> one batched model call.
      std::size_t end = i + 1;
      while (end < grouped.size() && items[grouped[end]].stream == stream &&
             items[grouped[end]].verb == head.verb) {
        ++end;
      }
      Batch& batch = shard->scratch_batch;
      batch.clear();
      for (std::size_t j = i; j < end; ++j) {
        const double* row = row_arena_.data() + items[grouped[j]].values;
        batch.Add(std::span<const double>(row, features),
                  head.verb == Verb::kTrain ? static_cast<int>(row[features])
                                            : 0);
      }
      if (head.verb == Verb::kTrain) {
        try {
          stream->model->PartialFit(batch);
          *shard->train_rows += batch.size();
          for (std::size_t j = i; j < end; ++j) {
            const Routed& item = items[grouped[j]];
            std::string& response = responses_[item.slot];
            response.assign("OK train ").append(stream->id).append(" n=");
            AppendInt(&response, item.ordinal);
          }
        } catch (const std::exception& e) {
          for (std::size_t j = i; j < end; ++j) {
            responses_[items[grouped[j]].slot].assign("ERR train ").append(
                e.what());
          }
        }
      } else {
        try {
          stream->model->PredictBatch(batch, &shard->scratch_proba);
          *shard->score_rows += batch.size();
          for (std::size_t j = i; j < end; ++j) {
            const std::span<const double> proba =
                shard->scratch_proba.row(j - i);
            std::string& response = responses_[items[grouped[j]].slot];
            response.assign("OK score ").append(stream->id).append(" pred=");
            AppendInt(&response, ArgMax(proba));
            response.append(" p=");
            for (std::size_t c = 0; c < proba.size(); ++c) {
              if (c > 0) response.push_back(',');
              AppendResponseDouble(&response, proba[c]);
            }
          }
        } catch (const std::exception& e) {
          for (std::size_t j = i; j < end; ++j) {
            responses_[items[grouped[j]].slot].assign("ERR score ").append(
                e.what());
          }
        }
      }
      i = end;
      continue;
    }
    std::string& response = responses_[head.slot];
    if (head.verb == Verb::kSnapshot) {
      try {
        serial::SaveClassifierToFile(*stream->model, head.path);
        *shard->snapshots += 1;
        response.assign("OK snapshot ")
            .append(stream->id)
            .append(" ")
            .append(head.path);
      } catch (const std::exception& e) {
        response.assign("ERR snapshot ").append(e.what());
      }
    } else {  // kRestore: blue-green -- decode fully, then swap
      try {
        std::unique_ptr<Classifier> loaded =
            serial::LoadClassifierFromFile(head.path);
        if (loaded->num_classes() != config_.num_classes) {
          response.assign("ERR restore archive has ");
          AppendInt(&response, loaded->num_classes());
          response.append(" classes, engine ");
          AppendInt(&response, config_.num_classes);
        } else {
          loaded->AttachTelemetry(&shard->telemetry);
          stream->model = std::move(loaded);
          *shard->restores += 1;
          response.assign("OK restore ").append(stream->id);
        }
      } catch (const std::exception& e) {
        response.assign("ERR restore ").append(e.what());
      }
    }
    ++i;
  }
}

void ServeEngine::ExportTelemetry() {
  ++exporter_flushes_;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    config_.exporter->WriteLine(shards_[s]->ExportLine(s, exporter_flushes_));
  }
}

void ServeEngine::AppendStatsLine(std::string* line) const {
  // Routing-time tallies only: everything here is a pure function of the
  // request sequence, so `stats` responses match at any shard count.
  line->append("OK stats {");
  const auto field = [line](const char* name, std::uint64_t value,
                            bool first = false) {
    if (!first) line->append(", ");
    line->append("\"").append(name).append("\": ");
    AppendInt(line, value);
  };
  field("streams", streams_.size(), /*first=*/true);
  field("resident_streams", resident_);
  field("streams_created", streams_created_);
  field("requests", requests_);
  field("train_rows", train_rows_);
  field("score_rows", score_rows_);
  field("bad_rows", bad_rows_);
  field("values_imputed", values_imputed_);
  field("rejected", rejected_);
  field("parse_errors", parse_errors_);
  field("snapshots", snapshots_);
  field("restores", restores_);
  field("drops", drops_);
  field("windows", windows_);
  field("evictions", evictions_);
  field("warm_starts", warm_starts_);
  field("checkpoints", checkpoints_);
  field("injected_rows", injected_rows_);
  field("state_errors", state_errors_);
  line->append("}");
}

void ServeEngine::Finish(std::ostream& out) {
  Flush(out);
  if (!config_.state_dir.empty()) WriteCheckpoint();
  if (config_.exporter != nullptr) ExportTelemetry();
}

void ServeEngine::RunScript(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) ServeLine(line, out);
  Finish(out);
}

}  // namespace dmt::serve
