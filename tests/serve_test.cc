// Tests for the multi-tenant serving layer (src/dmt/serve): request
// grammar, the engine's determinism contract (byte-identical responses at
// any shard count), explicit back-pressure, live snapshot/restore parity
// with the offline serial archives, and JSONL telemetry validity under
// NaN traffic.
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/linear/glm_classifier.h"
#include "dmt/obs/telemetry.h"
#include "dmt/robust/faulty_stream.h"
#include "dmt/serial/model_io.h"
#include "dmt/serve/bridge.h"
#include "dmt/serve/engine.h"
#include "dmt/serve/exporter.h"
#include "dmt/serve/request.h"
#include "dmt/serve/state_dir.h"
#include "json_check.h"

namespace dmt {
namespace {

// What dmt_serve wires: the registry learner `model`, seeded per stream.
serve::ModelFactory Factory(const std::string& model, int features,
                            int classes) {
  return [=](const std::string& /*id*/, std::uint64_t seed) {
    return serial::MakeClassifier(model, features, classes, seed);
  };
}

std::string RunLines(serve::ServeEngine* engine,
                     const std::vector<std::string>& lines) {
  std::ostringstream out;
  for (const std::string& line : lines) engine->ServeLine(line, out);
  engine->Finish(out);
  return out.str();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ------------------------------------------------------- request grammar

TEST(RequestParseTest, AcceptsEveryVerb) {
  serve::Request request;
  std::string error;
  EXPECT_TRUE(
      serve::ParseRequestLine("train u1 0.5,1.5,1", 2, &request, &error));
  EXPECT_EQ(request.verb, serve::Verb::kTrain);
  EXPECT_EQ(request.stream_id, "u1");
  ASSERT_EQ(request.values.size(), 3u);
  EXPECT_DOUBLE_EQ(request.values[1], 1.5);

  EXPECT_TRUE(serve::ParseRequestLine("score u1 0.5,1.5", 2, &request, &error));
  EXPECT_EQ(request.verb, serve::Verb::kScore);
  EXPECT_EQ(request.values.size(), 2u);

  EXPECT_TRUE(
      serve::ParseRequestLine("snapshot u1 /tmp/m.dmt", 2, &request, &error));
  EXPECT_EQ(request.verb, serve::Verb::kSnapshot);
  EXPECT_EQ(request.path, "/tmp/m.dmt");

  EXPECT_TRUE(
      serve::ParseRequestLine("restore u1 /tmp/m.dmt", 2, &request, &error));
  EXPECT_EQ(request.verb, serve::Verb::kRestore);

  EXPECT_TRUE(serve::ParseRequestLine("drop u1", 2, &request, &error));
  EXPECT_EQ(request.verb, serve::Verb::kDrop);

  EXPECT_TRUE(serve::ParseRequestLine("stats", 2, &request, &error));
  EXPECT_EQ(request.verb, serve::Verb::kStats);
}

TEST(RequestParseTest, ToleratesCarriageReturnAndAcceptsNonFiniteData) {
  serve::Request request;
  std::string error;
  EXPECT_TRUE(
      serve::ParseRequestLine("score u1 0.5,1.5\r", 2, &request, &error));
  // Non-finite values are *data* (the bad-input policy decides their fate),
  // not a protocol error.
  EXPECT_TRUE(serve::ParseRequestLine("score u1 nan,inf", 2, &request, &error));
  EXPECT_TRUE(std::isnan(request.values[0]));
  EXPECT_TRUE(std::isinf(request.values[1]));
}

TEST(RequestParseTest, RejectsMalformedLines) {
  serve::Request request;
  std::string error;
  EXPECT_FALSE(serve::ParseRequestLine("", 2, &request, &error));
  EXPECT_FALSE(serve::ParseRequestLine("train", 2, &request, &error));
  EXPECT_FALSE(serve::ParseRequestLine("poke u1 0.5,1.5", 2, &request, &error));
  EXPECT_NE(error.find("unknown verb"), std::string::npos);
  EXPECT_FALSE(serve::ParseRequestLine("train u1 0.5,abc,1", 2, &request,
                                       &error));
  EXPECT_NE(error.find("bad csv value"), std::string::npos);
  // Arity is checked against the engine's feature count (+1 label for
  // train).
  EXPECT_FALSE(serve::ParseRequestLine("train u1 0.5,1", 2, &request, &error));
  EXPECT_FALSE(serve::ParseRequestLine("score u1 0.5,1.5,2.5", 2, &request,
                                       &error));
  EXPECT_FALSE(serve::ParseRequestLine("stats now", 2, &request, &error));
  EXPECT_FALSE(serve::ParseRequestLine("drop u1 extra", 2, &request, &error));
}

// -------------------------------------------------- request grammar fuzz

// The request grammar restated with a strtod number parser: the oracle the
// in-place parser (from_chars fast path, reused Request buffers) must match
// on every input.
struct ReferenceRequest {
  bool ok = false;
  serve::Verb verb = serve::Verb::kStats;
  std::string stream_id;
  std::vector<double> values;
  std::string path;
  std::string error;
};

ReferenceRequest ReferenceParse(std::string_view line, int num_features) {
  ReferenceRequest out;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : line) {
    if (c == ' ' || c == '\t') {
      if (!token.empty()) tokens.push_back(token);
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) tokens.push_back(token);

  const auto fail = [&out](const std::string& error) {
    out.error = error;
    return out;
  };
  if (tokens.empty()) return fail("empty request");
  const std::string& verb = tokens[0];
  if (verb == "stats") {
    if (tokens.size() != 1) return fail("stats takes no arguments");
    out.ok = true;
    return out;
  }
  if (tokens.size() < 2) return fail("missing stream id");
  out.stream_id = tokens[1];
  if (verb == "drop") {
    if (tokens.size() != 2) return fail("drop takes exactly one argument");
    out.verb = serve::Verb::kDrop;
    out.ok = true;
    return out;
  }
  if (tokens.size() != 3) return fail(verb + " takes exactly two arguments");
  if (verb == "train" || verb == "score") {
    out.verb = verb == "train" ? serve::Verb::kTrain : serve::Verb::kScore;
    const std::size_t expected =
        static_cast<std::size_t>(num_features) + (verb == "train" ? 1 : 0);
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = tokens[2].find(',', start);
      const std::string field = tokens[2].substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      char* end = nullptr;
      const double value = std::strtod(field.c_str(), &end);
      if (field.empty() || field[0] == ' ' || field[0] == '\t' ||
          end != field.c_str() + field.size()) {
        return fail("bad csv value '" + field + "'");
      }
      out.values.push_back(value);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (out.values.size() != expected) {
      return fail(std::string("expected ")
                      .append(std::to_string(expected))
                      .append(" csv values, got ")
                      .append(std::to_string(out.values.size())));
    }
    out.ok = true;
    return out;
  }
  if (verb == "snapshot" || verb == "restore") {
    out.verb =
        verb == "snapshot" ? serve::Verb::kSnapshot : serve::Verb::kRestore;
    out.path = tokens[2];
    out.ok = true;
    return out;
  }
  return fail("unknown verb '" + verb + "'");
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Parses `line` with the engine's parser into the shared `request` (stale
// fields from earlier lines must never leak) and with the oracle, and
// compares everything a caller can observe.
void ExpectParsesLikeReference(const std::string& line,
                               serve::Request* request) {
  constexpr int kFeatures = 2;
  std::string error;
  const bool ok = serve::ParseRequestLine(line, kFeatures, request, &error);
  const ReferenceRequest expected = ReferenceParse(line, kFeatures);
  ASSERT_EQ(ok, expected.ok) << "line '" << line << "'";
  if (!ok) {
    EXPECT_EQ(error, expected.error) << "line '" << line << "'";
    return;
  }
  EXPECT_EQ(request->verb, expected.verb) << "line '" << line << "'";
  EXPECT_EQ(request->stream_id, expected.stream_id) << "line '" << line << "'";
  EXPECT_EQ(request->path, expected.path) << "line '" << line << "'";
  ASSERT_EQ(request->values.size(), expected.values.size())
      << "line '" << line << "'";
  for (std::size_t i = 0; i < expected.values.size(); ++i) {
    EXPECT_EQ(Bits(request->values[i]), Bits(expected.values[i]))
        << "line '" << line << "' value " << i;
  }
}

TEST(RequestParseFuzzTest, TruncationsAndByteFlipsMatchStrtodReference) {
  const std::vector<std::string> corpus = {
      "train u1 0.5,1.5,1",
      "score u1 -0.25,3e-2",
      "train\tuser-42  1e3,-inf,0\r",
      "score u2 nan,+1.5",
      "score u3 0x1p3,.5",
      "train u4 4.9e-324,1e400,1",
      "snapshot u1 /tmp/m.dmts",
      "restore u1 ../models/m.dmts",
      "drop u1",
      "stats",
  };
  // Substitutions that steer a byte into the grammar's interesting
  // corners: separators, signs, exponents, hex and special-value letters.
  const std::string alphabet = std::string(" \t\r,.+-eExXpPnNiI019") + '\0';
  serve::Request request;
  std::size_t inputs = 0;
  for (const std::string& line : corpus) {
    for (std::size_t cut = 0; cut <= line.size(); ++cut) {
      ExpectParsesLikeReference(line.substr(0, cut), &request);
      ++inputs;
    }
    for (std::size_t i = 0; i < line.size(); ++i) {
      std::string mutated = line;
      for (int bit = 0; bit < 8; ++bit) {
        mutated[i] = static_cast<char>(line[i] ^ (1 << bit));
        ExpectParsesLikeReference(mutated, &request);
        ++inputs;
      }
      for (const char c : alphabet) {
        mutated[i] = c;
        ExpectParsesLikeReference(mutated, &request);
        ++inputs;
      }
    }
  }
  EXPECT_GT(inputs, 4000u);
}

TEST(RequestParseFuzzTest, HostileStreamIdsMatchStrtodReference) {
  const std::vector<std::string> ids = {
      std::string(300, 'x'), "/", "..", "../../etc/passwd", "a/b",
      "id\twith\ttabs", "cr\rinside", "trailing\r", "\xff\xfe", "-", ",",
      "0.5,1.5", "stats", "train"};
  const std::vector<std::string> tails = {"", " 0.5,1.5,1", " 0.5,1.5",
                                          " /tmp/m.dmts", " a b"};
  serve::Request request;
  for (const std::string& id : ids) {
    for (const char* verb :
         {"train", "score", "snapshot", "restore", "drop", "stats"}) {
      for (const std::string& tail : tails) {
        ExpectParsesLikeReference(std::string(verb) + " " + id + tail,
                                  &request);
      }
    }
  }
}

// ------------------------------------------------ response number format

TEST(ResponseFormatTest, MatchesPrintfG10) {
  const auto snprintf_g10 = [](double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    return std::string(buffer);
  };
  const auto formatted = [](double value) {
    std::string out = "p=";
    serve::AppendResponseDouble(&out, value);
    return out.substr(2);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                2.2250738585072009e-308,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                inf,
                                -inf,
                                nan,
                                -nan,
                                1.0 / 3.0,
                                0.99999999995,
                                0.999999999949999,
                                1e-5,
                                1e-4,
                                1e10,
                                1e9,
                                9999999999.5,
                                0.5,
                                1.0};
  // Plus probabilities and arbitrary bit patterns.
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(rng.Uniform());
    values.push_back(std::bit_cast<double>(rng()));
  }
  for (const double value : values) {
    EXPECT_EQ(formatted(value), snprintf_g10(value))
        << "bits " << std::hex << Bits(value);
  }
}

// ---------------------------------------------------------- determinism

std::vector<std::string> ManyStreamScript(std::size_t num_requests,
                                          std::size_t num_streams) {
  // Deterministic inline LCG; no global RNG state.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<std::string> lines;
  lines.reserve(num_requests + 2);
  for (std::size_t i = 0; i < num_requests; ++i) {
    const std::string id =
        std::string("s").append(std::to_string(next() % num_streams));
    const double a = static_cast<double>(next() % 1000) / 1000.0;
    const double b = static_cast<double>(next() % 1000) / 1000.0;
    std::ostringstream line;
    if (next() % 10 < 6) {
      line << "train " << id << ' ' << a << ',' << b << ',' << next() % 2;
    } else {
      line << "score " << id << ' ' << a << ',' << b;
    }
    lines.push_back(line.str());
    if (i % 997 == 0) lines.push_back("stats");
  }
  lines.push_back("stats");
  return lines;
}

TEST(ServeEngineTest, ThousandStreamsByteIdenticalAcrossShardCounts) {
  const std::vector<std::string> script = ManyStreamScript(4000, 1100);
  std::string outputs[3];
  const std::size_t shard_counts[3] = {1, 4, 7};
  for (int i = 0; i < 3; ++i) {
    serve::ServeConfig config;
    config.num_features = 2;
    config.num_classes = 2;
    config.num_shards = shard_counts[i];
    config.seed = 99;
    config.batch_window = 64;
    config.factory = Factory("GLM", 2, 2);
    serve::ServeEngine engine(config);
    outputs[i] = RunLines(&engine, script);
    EXPECT_GE(engine.num_streams(), 1000u);
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
  // Exactly one response line per request, in order.
  EXPECT_EQ(SplitLines(outputs[0]).size(), script.size());
}

TEST(ServeEngineTest, DmtModelIsAlsoShardCountInvariant) {
  const std::vector<std::string> script = ManyStreamScript(1500, 40);
  std::string outputs[2];
  const std::size_t shard_counts[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    serve::ServeConfig config;
    config.num_features = 2;
    config.num_classes = 2;
    config.num_shards = shard_counts[i];
    config.seed = 7;
    config.batch_window = 32;
    config.factory = Factory("DMT", 2, 2);
    serve::ServeEngine engine(config);
    outputs[i] = RunLines(&engine, script);
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(ServeEngineTest, SameIdGetsSameModelRegardlessOfArrivalOrder) {
  // The per-stream seed depends only on (engine seed, id): training "b"
  // first must not change what "a" learns.
  const std::vector<std::string> tail = {"train a 0.1,0.9,1", "score a 0.5,0.5"};
  std::vector<std::string> first_a = tail;
  std::vector<std::string> b_then_a = {"train b 0.8,0.2,0"};
  b_then_a.insert(b_then_a.end(), tail.begin(), tail.end());

  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine1(config);
  serve::ServeEngine engine2(config);
  const std::vector<std::string> out1 = SplitLines(RunLines(&engine1, first_a));
  const std::vector<std::string> out2 =
      SplitLines(RunLines(&engine2, b_then_a));
  ASSERT_EQ(out1.size(), 2u);
  ASSERT_EQ(out2.size(), 3u);
  EXPECT_EQ(out1[1], out2[2]);  // identical score for "a"
}

// --------------------------------------------------------- back-pressure

TEST(ServeEngineTest, FullShardQueueRejectsWithRetryAfter) {
  serve::ServeConfig config;
  config.num_features = 1;
  config.num_classes = 2;
  config.num_shards = 1;
  config.batch_window = 8;
  config.queue_capacity = 2;
  config.factory = Factory("GLM", 1, 2);
  serve::ServeEngine engine(config);
  const std::vector<std::string> lines = {
      "train u 0.1,0", "train u 0.2,1", "train u 0.3,0", "train u 0.4,1"};
  const std::vector<std::string> out = SplitLines(RunLines(&engine, lines));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "OK train u n=1");
  EXPECT_EQ(out[1], "OK train u n=2");
  EXPECT_EQ(out[2], "ERR retry-after=1 u shard=0 queue_full");
  EXPECT_EQ(out[3], "ERR retry-after=1 u shard=0 queue_full");
}

TEST(ServeEngineTest, DefaultQueueCapacityNeverRejects) {
  serve::ServeConfig config;
  config.num_features = 1;
  config.num_classes = 2;
  config.num_shards = 1;
  config.batch_window = 4;  // queue_capacity defaults to the window size
  config.factory = Factory("GLM", 1, 2);
  serve::ServeEngine engine(config);
  std::vector<std::string> lines;
  for (int i = 0; i < 20; ++i) {
    lines.push_back("train u 0." + std::to_string(i % 10) + "," +
                    std::to_string(i % 2));
  }
  const std::string out = RunLines(&engine, lines);
  EXPECT_EQ(out.find("retry-after"), std::string::npos);
}

// ----------------------------------------------------- snapshot / restore

TEST(ServeEngineTest, LiveSnapshotBitIdenticalToOfflineArchive) {
  const std::string live_path = ::testing::TempDir() + "serve_live.dmt";
  const std::string offline_path = ::testing::TempDir() + "serve_offline.dmt";
  const int kRows = 37;

  std::uint64_t state = 11;
  const auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({static_cast<double>(next() % 1000) / 1000.0,
                    static_cast<double>(next() % 1000) / 1000.0,
                    static_cast<double>(next() % 2)});
  }

  // Live: one window holds every row, so the engine performs exactly one
  // PartialFit with all 37 rows -- the same batch structure the offline
  // path uses below. batch_window is part of the determinism contract.
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.seed = 5;
  config.batch_window = 256;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  std::vector<std::string> lines;
  for (const std::vector<double>& row : rows) {
    std::ostringstream line;
    line << "train u " << row[0] << ',' << row[1] << ','
         << static_cast<int>(row[2]);
    lines.push_back(line.str());
  }
  lines.push_back("snapshot u " + live_path);
  const std::string out = RunLines(&engine, lines);
  EXPECT_NE(out.find("OK snapshot u " + live_path), std::string::npos) << out;

  // Offline: same model seed, same single batch, direct serial save.
  linear::GlmConfig glm;
  glm.num_features = 2;
  glm.num_classes = 2;
  glm.seed = DeriveSeed(5, "u");
  linear::GlmClassifier offline(glm);
  Batch batch(2);
  for (const std::vector<double>& row : rows) {
    batch.Add(std::span<const double>(row.data(), 2),
              static_cast<int>(row[2]));
  }
  offline.PartialFit(batch);
  serial::SaveClassifierToFile(offline, offline_path);

  const std::string live_bytes = ReadFileBytes(live_path);
  const std::string offline_bytes = ReadFileBytes(offline_path);
  ASSERT_FALSE(live_bytes.empty());
  EXPECT_EQ(live_bytes, offline_bytes);
}

TEST(ServeEngineTest, RestoreRollsBackToSnapshotState) {
  const std::string path = ::testing::TempDir() + "serve_rollback.dmt";
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  const std::vector<std::string> lines = {
      "train u 0.1,0.9,1", "train u 0.9,0.1,0",
      "snapshot u " + path,
      "score u 0.4,0.6",          // [3] reference prediction
      "train u 0.5,0.5,1",        // moves the live model
      "restore u " + path,
      "score u 0.4,0.6",          // [6] must match [3] exactly
  };
  const std::vector<std::string> out = SplitLines(RunLines(&engine, lines));
  ASSERT_EQ(out.size(), lines.size());
  EXPECT_EQ(out[5], "OK restore u");
  EXPECT_EQ(out[6], out[3]);
}

TEST(ServeEngineTest, SnapshotOfUnknownStreamIsAnError) {
  serve::ServeConfig config;
  config.num_features = 1;
  config.num_classes = 2;
  config.factory = Factory("GLM", 1, 2);
  serve::ServeEngine engine(config);
  const std::vector<std::string> out =
      SplitLines(RunLines(&engine, {"snapshot ghost /tmp/ghost.dmt"}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "ERR unknown_stream ghost");
}

TEST(ServeEngineTest, DropForgetsAndRecreatesFreshModel) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  const std::vector<std::string> session = {
      "train u 0.2,0.8,1", "train u 0.7,0.3,0", "score u 0.5,0.5"};
  std::vector<std::string> script = session;
  script.push_back("drop u");
  script.insert(script.end(), session.begin(), session.end());
  const std::vector<std::string> out = SplitLines(RunLines(&engine, script));
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[3], "OK drop u");
  // Same id + same engine seed -> the recreated stream relearns the exact
  // same model; train ordinals restart at 1.
  EXPECT_EQ(out[4], "OK train u n=1");
  EXPECT_EQ(out[6], out[2]);
  EXPECT_EQ(engine.num_streams(), 1u);
}

// ----------------------------------------------------- bad-input policies

TEST(ServeEngineTest, SkipPolicyDropsNonFiniteRows) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.bad_input_policy = BadInputPolicy::kSkip;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  const std::vector<std::string> out = SplitLines(RunLines(
      &engine, {"train u nan,0.5,1", "score u inf,0.5", "train u 0.1,0.2,5"}));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "OK train u dropped");
  EXPECT_EQ(out[1], "OK score u dropped");
  EXPECT_EQ(out[2], "OK train u dropped");  // out-of-range label
}

TEST(ServeEngineTest, ThrowPolicyRejectsWithoutAborting) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.bad_input_policy = BadInputPolicy::kThrow;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  const std::vector<std::string> out = SplitLines(
      RunLines(&engine, {"train u nan,0.5,1", "train u 0.1,0.5,1"}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "ERR bad_row train u");
  EXPECT_EQ(out[1], "OK train u n=1");  // the server kept serving
}

TEST(ServeEngineTest, ImputePolicyZeroFillsFeaturesButNeverLabels) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.bad_input_policy = BadInputPolicy::kImputeMidpoint;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  const std::vector<std::string> out = SplitLines(RunLines(
      &engine, {"train u nan,0.5,1", "train u 0.1,0.5,nan"}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK train u n=1");       // feature imputed, row kept
  EXPECT_EQ(out[1], "OK train u dropped");   // bad label is never imputed
}

// ------------------------------------------------------- telemetry export

TEST(CompactJsonTest, DropsOnlyLineBreaksAndTheirIndentation) {
  EXPECT_EQ(serve::CompactJson("{\n  \"a b\": 1,\n\t\"c\": [1, 2]\n}\n"),
            "{\"a b\": 1,\"c\": [1, 2]}");
  EXPECT_EQ(serve::CompactJson("{\"x\": 0}"), "{\"x\": 0}");
  obs::TelemetryRegistry registry;
  registry.Counter("serve.requests");
  *registry.Counter("serve.bad_rows") += 3;
  const std::string line = serve::CompactJson(registry.ToJson());
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_TRUE(testjson::IsValidJson(line)) << line;
  EXPECT_NE(line.find("\"serve.bad_rows\": 3"), std::string::npos) << line;
}

TEST(JsonlExporterTest, CountsTheLinesItCannotWrite) {
  serve::JsonlExporter unopened(::testing::TempDir() +
                                "no_such_dir/telemetry.jsonl");
  EXPECT_FALSE(unopened.ok());
  unopened.WriteLine("{}");
  unopened.WriteLine("{}");
  EXPECT_EQ(unopened.lines_written(), 0u);
  EXPECT_EQ(unopened.lines_dropped(), 2u);

  std::ostringstream sink;
  serve::JsonlExporter exporter(&sink);
  exporter.WriteLine("{\"a\": 1}");
  sink.setstate(std::ios::badbit);  // the sink fails mid-run
  exporter.WriteLine("{\"a\": 2}");
  EXPECT_EQ(exporter.lines_written(), 1u);
  EXPECT_EQ(exporter.lines_dropped(), 1u);
  EXPECT_EQ(sink.str(), "{\"a\": 1}\n");
}

TEST(ServeEngineTest, ExporterEmitsValidJsonlUnderNanTraffic) {
  std::ostringstream sink;
  serve::JsonlExporter exporter(&sink);
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.num_shards = 2;
  config.batch_window = 2;
  config.exporter = &exporter;
  config.export_every = 1;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i) {
    lines.push_back("train s" + std::to_string(i) + " nan,0.5,1");
    lines.push_back("score s" + std::to_string(i) + " 0.4,0.6");
  }
  RunLines(&engine, lines);

  const std::vector<std::string> records = SplitLines(sink.str());
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(exporter.lines_written(), records.size());
  EXPECT_EQ(exporter.lines_dropped(), 0u);
  bool saw_null_gauge = false;
  for (const std::string& record : records) {
    EXPECT_TRUE(testjson::IsValidJson(record)) << record;
    EXPECT_NE(record.find("\"shard\""), std::string::npos);
    EXPECT_NE(record.find("serve.bad_rows"), std::string::npos);
    if (record.find("\"serve.last_bad_value\": null") != std::string::npos) {
      saw_null_gauge = true;
    }
  }
  // The NaN feature value landed in the last_bad_value gauge and must have
  // been rendered as JSON null, never as a bare `nan` token.
  EXPECT_TRUE(saw_null_gauge) << sink.str();
  EXPECT_EQ(sink.str().find(" nan"), std::string::npos);
}

TEST(ServeEngineTest, StatsPayloadIsValidJson) {
  serve::ServeConfig config;
  config.num_features = 1;
  config.num_classes = 2;
  config.factory = Factory("GLM", 1, 2);
  serve::ServeEngine engine(config);
  const std::vector<std::string> out =
      SplitLines(RunLines(&engine, {"train u 0.5,1", "stats"}));
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[1].rfind("OK stats ", 0), 0u);
  const std::string payload = out[1].substr(std::string("OK stats ").size());
  EXPECT_TRUE(testjson::IsValidJson(payload)) << payload;
  EXPECT_NE(payload.find("\"train_rows\": 1"), std::string::npos);
}

TEST(ServeEngineTest, ParseErrorsGetOneResponseLineEach) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  const std::vector<std::string> out = SplitLines(RunLines(
      &engine, {"bogus", "train u 0.5", "train u 0.1,0.2,1", ""}));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].rfind("ERR parse ", 0), 0u);
  EXPECT_EQ(out[1].rfind("ERR parse ", 0), 0u);
  EXPECT_EQ(out[2], "OK train u n=1");
  EXPECT_EQ(out[3].rfind("ERR parse ", 0), 0u);
}

// ------------------------------------------------ durability & lifecycle

std::string FreshStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Train/score traffic over `num_streams` streams with periodic revisits
// of old streams (forcing warm starts once eviction is on). No `stats`
// lines: stats report eviction tallies, which legitimately differ between
// a bounded and an unbounded engine.
std::vector<std::string> RevisitingScript(std::size_t num_requests,
                                          std::size_t num_streams) {
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  const auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<std::string> lines;
  lines.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    // Mostly a moving "hot" window of streams, periodically jumping back
    // to the coldest ones so evicted models must be warm-started.
    const std::size_t hot = (i / 7) % num_streams;
    const std::size_t id_index = next() % 4 == 0 ? (next() % num_streams)
                                                 : hot;
    const std::string id = std::string("s").append(std::to_string(id_index));
    const double a = static_cast<double>(next() % 1000) / 1000.0;
    const double b = static_cast<double>(next() % 1000) / 1000.0;
    std::ostringstream line;
    if (next() % 10 < 6) {
      line << "train " << id << ' ' << a << ',' << b << ',' << next() % 2;
    } else {
      line << "score " << id << ' ' << a << ',' << b;
    }
    lines.push_back(line.str());
  }
  return lines;
}

TEST(ServeDurabilityTest, EvictionWithoutStateDirIsRefused) {
  serve::ServeConfig config;
  config.num_features = 1;
  config.num_classes = 2;
  config.max_streams = 4;
  config.factory = Factory("GLM", 1, 2);
  EXPECT_THROW(serve::ServeEngine engine(config), serve::StateError);
}

TEST(ServeDurabilityTest, LruEvictionBoundsResidentStreams) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 8;
  config.state_dir = FreshStateDir("serve_evict_bound");
  config.max_streams = 4;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  const std::string out =
      RunLines(&engine, RevisitingScript(400, 20));
  EXPECT_EQ(out.find("ERR"), std::string::npos) << out;
  EXPECT_EQ(engine.num_streams(), 20u);       // every stream still known
  EXPECT_LE(engine.resident_streams(), 4u);   // but at most 4 in memory
  // Per-shard telemetry saw the lifecycle events.
  std::uint64_t evictions = 0;
  std::uint64_t warm_starts = 0;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    evictions += *engine.shard(s).evictions;
    warm_starts += *engine.shard(s).warm_starts;
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(warm_starts, 0u);
}

std::string ParkLogPath(const std::string& state_dir) {
  return state_dir + "/evicted/parked.log";
}

// `drop` of a parked stream forgets its park log record: the recreated
// stream starts fresh, and the next manifest does not list the dropped one.
TEST(ServeDurabilityTest, DroppedParkedStreamCannotBeResurrected) {
  const std::string dir = FreshStateDir("serve_drop_parked");
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 1;
  config.model_kind = "GLM";
  config.state_dir = dir;
  config.max_streams = 1;
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);
  std::vector<std::string> out = SplitLines(RunLines(
      &engine, {"train u 0.2,0.8,1", "train u 0.7,0.3,0", "train v 0.5,0.5,1",
                "drop u"}));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3], "OK drop u");
  EXPECT_EQ(engine.num_streams(), 1u);
  EXPECT_EQ(engine.park_log().live_bytes(), 0u);  // v is resident
  const std::optional<serve::Manifest> manifest = serve::LoadNewestManifest(dir);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->streams.size(), 1u);
  EXPECT_EQ(manifest->streams[0].id, "v");

  // The recreated u trains from n=1 and scores like a never-seen stream.
  out = SplitLines(
      RunLines(&engine, {"train u 0.1,0.1,0", "score u 0.4,0.6"}));
  serve::ServeConfig fresh_config = config;
  fresh_config.state_dir.clear();
  fresh_config.max_streams = 0;
  serve::ServeEngine fresh(fresh_config);
  const std::vector<std::string> expected = SplitLines(
      RunLines(&fresh, {"train u 0.1,0.1,0", "score u 0.4,0.6"}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK train u n=1");
  EXPECT_EQ(out, expected);
}

// 5000 evict/warm-start cycles: six streams round robin over three
// resident slots, one request per window, so every window warm-starts one
// stream and parks another. Compaction keeps the log at most twice its
// live bytes plus one record after every window, and it is byte-invisible:
// the responses and the final manifest match an engine that never evicts,
// up to which streams are resident and the eviction tallies.
TEST(ServeDurabilityTest, CompactionBoundsTheParkLogInvisibly) {
  std::vector<std::string> script;
  for (std::size_t i = 0; i < 5000; ++i) {
    const std::string id = std::string("c").append(std::to_string(i % 6));
    const double x = static_cast<double>(i % 97) / 97.0;
    std::ostringstream line;
    if (i % 3 == 2) {
      line << "score " << id << ' ' << x << ",0.5";
    } else {
      line << "train " << id << ' ' << x << ",0.5," << (i / 6) % 2;
    }
    script.push_back(line.str());
  }
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 1;
  config.model_kind = "GLM";
  config.checkpoint_every = 500;
  config.factory = Factory("GLM", 2, 2);

  serve::ServeConfig unbounded_config = config;
  unbounded_config.state_dir = FreshStateDir("serve_compact_ref");
  serve::ServeEngine unbounded(unbounded_config);
  const std::string expected = RunLines(&unbounded, script);

  config.state_dir = FreshStateDir("serve_compact");
  config.max_streams = 3;
  serve::ServeEngine engine(config);
  const serve::ParkLog& log = engine.park_log();
  std::ostringstream out;
  std::uint64_t record = 0;  // one GLM stream's record size
  std::size_t compactions = 0;
  for (const std::string& line : script) {
    const std::uint64_t dead_before = log.dead_bytes();
    engine.ServeLine(line, out);
    if (dead_before > 0 && log.dead_bytes() == 0) ++compactions;
    if (record == 0 && log.live_bytes() > 0) record = log.live_bytes();
    const std::uint64_t size = std::filesystem::file_size(ParkLogPath(
        config.state_dir));
    ASSERT_EQ(size, log.live_bytes() + log.dead_bytes()) << line;
    ASSERT_LE(size, 2 * log.live_bytes() + record) << line;
  }
  engine.Finish(out);
  EXPECT_EQ(out.str(), expected);
  EXPECT_EQ(log.live_bytes(), 3 * record);
  EXPECT_GT(compactions, 1000u);

  const std::optional<serve::Manifest> bounded_manifest =
      serve::LoadNewestManifest(config.state_dir);
  const std::optional<serve::Manifest> unbounded_manifest =
      serve::LoadNewestManifest(unbounded_config.state_dir);
  ASSERT_TRUE(bounded_manifest.has_value());
  ASSERT_TRUE(unbounded_manifest.has_value());
  const serve::Manifest& a = *bounded_manifest;
  const serve::Manifest& b = *unbounded_manifest;
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_GE(a.tallies.evictions, 4997u);
  EXPECT_GE(a.tallies.warm_starts, 4994u);
  EXPECT_EQ(b.tallies.evictions, 0u);
  EXPECT_EQ(a.tallies.requests, b.tallies.requests);
  EXPECT_EQ(a.tallies.train_rows, b.tallies.train_rows);
  EXPECT_EQ(a.tallies.checkpoints, b.tallies.checkpoints);
  EXPECT_EQ(a.tallies.state_errors, 0u);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  std::size_t parked = 0;
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    SCOPED_TRACE(a.streams[i].id);
    EXPECT_EQ(a.streams[i].id, b.streams[i].id);
    EXPECT_EQ(a.streams[i].rows_trained, b.streams[i].rows_trained);
    EXPECT_EQ(a.streams[i].last_touch, b.streams[i].last_touch);
    EXPECT_EQ(a.streams[i].archive, b.streams[i].archive);
    if (!a.streams[i].resident) ++parked;
  }
  EXPECT_EQ(parked, 3u);
}

// A DMT archive ends in its RNG record: the counted form is one byte, the
// seed and the draw count. Three hostile records -- draws above the bound,
// an unknown form, the record cut short -- each make a restore and a warm
// start answer ERR, and the server keeps serving. For the warm start the
// parked stream's record is corrupted in place in the park log.
TEST(ServeDurabilityTest, HostileRngRecordsAnswerErrAndServingContinues) {
  const std::string dir = FreshStateDir("serve_hostile_rng");
  const std::string path = ::testing::TempDir() + "serve_hostile_rng.dmt";
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 1;
  config.state_dir = dir;
  config.max_streams = 1;
  config.factory = Factory("DMT", 2, 2);
  serve::ServeEngine engine(config);
  RunLines(&engine, {"train r 0.1,0.9,1", "snapshot r " + path});
  const std::string valid = ReadFileBytes(path);
  // Makes `bytes`, whose RNG record starts at `record`, hostile case
  // `which`.
  const auto corrupt = [](int which, std::size_t record, std::string* bytes) {
    ASSERT_EQ((*bytes)[record], static_cast<char>(serial::RngForm::kCounted));
    if (which == 0) {
      const std::uint64_t draws = serial::kMaxRngDraws + 1;
      for (int i = 0; i < 8; ++i) {
        (*bytes)[record + 9 + i] = static_cast<char>(draws >> (8 * i));
      }
    } else if (which == 1) {
      (*bytes)[record] = 2;  // unknown form
    } else {
      bytes->resize(record + 12);  // truncated
    }
  };

  for (int which = 0; which < 3; ++which) {
    SCOPED_TRACE(which);
    std::string hostile = valid;
    corrupt(which, valid.size() - 17, &hostile);
    EXPECT_THROW(serial::LoadClassifierFromString(hostile),
                 serial::SerialError);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << hostile;
    }
    std::vector<std::string> out = SplitLines(
        RunLines(&engine, {"restore r " + path, "score r 0.2,0.5"}));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rfind("ERR", 0), 0u) << out[0];
    EXPECT_EQ(out[1].rfind("OK score r", 0), 0u) << out[1];

    // Park a fresh stream (max_streams 1): its record is the newest in the
    // log, so the log ends in its archive's RNG record. Corrupt that in
    // place and touch the stream again.
    const std::string id = "w" + std::to_string(which);
    RunLines(&engine, {"train " + id + " 0.3,0.3,0", "train r 0.4,0.4,1"});
    ASSERT_LE(engine.resident_streams(), 1u);
    std::string log = ReadFileBytes(ParkLogPath(dir));
    ASSERT_GT(log.size(), 17u);
    corrupt(which, log.size() - 17, &log);
    {
      std::ofstream file(ParkLogPath(dir), std::ios::binary | std::ios::trunc);
      file << log;
    }
    out = SplitLines(RunLines(
        &engine, {"score " + id + " 0.2,0.5", "train r 0.5,0.5,0"}));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rfind("ERR warm_start " + id, 0), 0u) << out[0];
    EXPECT_EQ(out[1], "OK train r n=" + std::to_string(3 + 2 * which))
        << out[1];
  }
}

TEST(ServeDurabilityTest, EvictionIsByteInvisibleForGlm) {
  const std::vector<std::string> script = RevisitingScript(600, 12);
  serve::ServeConfig unbounded;
  unbounded.num_features = 2;
  unbounded.num_classes = 2;
  unbounded.batch_window = 16;
  unbounded.seed = 3;
  unbounded.factory = Factory("GLM", 2, 2);
  serve::ServeEngine reference(unbounded);
  const std::string expected = RunLines(&reference, script);

  serve::ServeConfig bounded = unbounded;
  bounded.state_dir = FreshStateDir("serve_evict_glm");
  bounded.max_streams = 3;
  bounded.idle_windows = 2;
  serve::ServeEngine engine(bounded);
  const std::string actual = RunLines(&engine, script);
  EXPECT_EQ(actual, expected);
  EXPECT_LE(engine.resident_streams(), 3u);
}

TEST(ServeDurabilityTest, EvictionIsByteInvisibleForDmt) {
  const std::vector<std::string> script = RevisitingScript(400, 8);
  serve::ServeConfig unbounded;
  unbounded.num_features = 2;
  unbounded.num_classes = 2;
  unbounded.batch_window = 16;
  unbounded.seed = 17;
  unbounded.factory = Factory("DMT", 2, 2);
  serve::ServeEngine reference(unbounded);
  const std::string expected = RunLines(&reference, script);

  serve::ServeConfig bounded = unbounded;
  bounded.state_dir = FreshStateDir("serve_evict_dmt");
  bounded.max_streams = 2;
  serve::ServeEngine engine(bounded);
  EXPECT_EQ(RunLines(&engine, script), expected);
}

TEST(ServeDurabilityTest, ShardCountInvariantWithEvictionActive) {
  // Eviction decisions run on the routing thread at window boundaries, so
  // the full transcript -- stats lines included -- is shard-invariant.
  std::vector<std::string> script = RevisitingScript(500, 15);
  for (std::size_t i = 50; i < script.size(); i += 100) {
    script[i] = "stats";
  }
  std::string outputs[2];
  const std::size_t shard_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    serve::ServeConfig config;
    config.num_features = 2;
    config.num_classes = 2;
    config.num_shards = shard_counts[i];
    config.batch_window = 8;
    config.seed = 23;
    config.state_dir =
        FreshStateDir("serve_evict_shards" + std::to_string(i));
    config.max_streams = 5;
    config.idle_windows = 3;
    config.factory = Factory("GLM", 2, 2);
    serve::ServeEngine engine(config);
    outputs[i] = RunLines(&engine, script);
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(ServeDurabilityTest, CheckpointRecoveryContinuesByteIdentically) {
  // 48 requests at batch_window 8 and checkpoint_every 2: checkpoints
  // land after requests 16, 32 and 48. Kill the first engine (abandon it
  // un-Finished) after 40 requests -- the newest manifest then covers
  // exactly the first 32 -- and recovery must replay the tail to the same
  // bytes an uninterrupted run produces, stats lines included.
  std::vector<std::string> script = RevisitingScript(48, 6);
  script[40] = "stats";  // tally continuity, right after the cut
  script[47] = "stats";
  const std::size_t covered = 32;

  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 8;
  config.seed = 9;
  config.model_kind = "GLM";
  config.checkpoint_every = 2;
  config.factory = Factory("GLM", 2, 2);

  // Uninterrupted reference run, in its own state dir.
  serve::ServeConfig reference_config = config;
  reference_config.state_dir = FreshStateDir("serve_recover_ref");
  serve::ServeEngine reference(reference_config);
  const std::vector<std::string> expected =
      SplitLines(RunLines(&reference, script));
  ASSERT_EQ(expected.size(), script.size());

  // Crashing run: serve 40 requests, never Finish (simulated kill -9; the
  // destructor does not checkpoint).
  config.state_dir = FreshStateDir("serve_recover_crash");
  {
    serve::ServeEngine doomed(config);
    std::ostringstream sink;
    for (std::size_t i = 0; i < 40; ++i) doomed.ServeLine(script[i], sink);
  }

  // Recovery: the new engine resumes from request `covered` and must
  // reproduce the reference transcript for the tail exactly.
  serve::ServeEngine recovered(config);
  EXPECT_GT(recovered.num_streams(), 0u);
  std::ostringstream out;
  for (std::size_t i = covered; i < script.size(); ++i) {
    recovered.ServeLine(script[i], out);
  }
  recovered.Finish(out);
  const std::vector<std::string> tail = SplitLines(out.str());
  ASSERT_EQ(tail.size(), script.size() - covered);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i], expected[covered + i]) << "response " << (covered + i);
  }
}

TEST(ServeDurabilityTest, RecoveryWithEvictionIsShardInvariant) {
  // Crash-recover under active eviction at two shard counts; the replayed
  // tails must agree byte for byte.
  const std::vector<std::string> script = RevisitingScript(96, 10);
  const std::size_t covered = 64;  // checkpoints every 2 windows of 8
  std::string tails[2];
  const std::size_t shard_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    serve::ServeConfig config;
    config.num_features = 2;
    config.num_classes = 2;
    config.num_shards = shard_counts[i];
    config.batch_window = 8;
    config.seed = 31;
    config.model_kind = "GLM";
    config.checkpoint_every = 2;
    config.max_streams = 4;
    config.state_dir =
        FreshStateDir("serve_recover_shards" + std::to_string(i));
    config.factory = Factory("GLM", 2, 2);
    {
      serve::ServeEngine doomed(config);
      std::ostringstream sink;
      for (std::size_t j = 0; j < 72; ++j) doomed.ServeLine(script[j], sink);
    }
    serve::ServeEngine recovered(config);
    std::ostringstream out;
    for (std::size_t j = covered; j < script.size(); ++j) {
      recovered.ServeLine(script[j], out);
    }
    recovered.Finish(out);
    tails[i] = out.str();
  }
  EXPECT_FALSE(tails[0].empty());
  EXPECT_EQ(tails[0], tails[1]);
}

// The serial encoding of `id` as a record field: its u64 length, then its
// bytes. The newest match in a park log is the id of the stream's newest
// record.
std::string EncodedId(const std::string& id) {
  std::string bytes(8, '\0');
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<char>(static_cast<std::uint64_t>(id.size()) >> (8 * i));
  }
  return bytes + id;
}

TEST(ServeDurabilityTest, RecoveryRebuildsTheParkLogFromTheManifest) {
  // 12 streams over 3 resident slots; checkpoints every 4 windows of 8, so
  // the newest manifest of a run abandoned after request 96 covers exactly
  // those 96 and parks 9 streams. The tail then scores every stream once,
  // warm-starting each parked one from the rebuilt log. Whatever the
  // crashed run left in evicted/ -- no log, half a log, another run's log,
  // per-stream files of an older build -- the restart continues byte for
  // byte, and it removes the per-stream files.
  std::vector<std::string> script = RevisitingScript(96, 12);
  const std::size_t covered = 96;
  for (int s = 0; s < 12; ++s) {
    script.push_back("score s" + std::to_string(s) + " 0.3,0.6");
  }
  script.push_back("stats");

  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 8;
  config.seed = 41;
  config.model_kind = "GLM";
  config.checkpoint_every = 4;
  config.max_streams = 3;
  config.factory = Factory("GLM", 2, 2);

  serve::ServeConfig reference_config = config;
  reference_config.state_dir = FreshStateDir("serve_reparked_ref");
  serve::ServeEngine reference(reference_config);
  const std::vector<std::string> expected =
      SplitLines(RunLines(&reference, script));
  ASSERT_EQ(expected.size(), script.size());

  const char* const kTampers[] = {"delete", "truncate", "swap", "old files"};
  for (const std::string tamper : kTampers) {
    SCOPED_TRACE(tamper);
    const std::string dir = FreshStateDir("serve_reparked");
    config.state_dir = dir;
    {
      serve::ServeEngine doomed(config);
      std::ostringstream sink;
      for (std::size_t i = 0; i < covered; ++i) {
        doomed.ServeLine(script[i], sink);
      }
    }
    const std::optional<serve::Manifest> manifest =
        serve::LoadNewestManifest(dir);
    ASSERT_TRUE(manifest.has_value());
    ASSERT_EQ(manifest->tallies.requests, covered);
    std::vector<const serve::ManifestStream*> parked;
    std::uint64_t parked_bytes = 0;
    for (const serve::ManifestStream& entry : manifest->streams) {
      if (entry.resident) continue;
      parked.push_back(&entry);
      // Header (magic, version, tag), then the id and the archive, each
      // after its u64 length.
      parked_bytes += 12 + 8 + entry.id.size() + 8 + entry.archive.size();
    }
    ASSERT_GE(parked.size(), 6u);

    const std::string log = ParkLogPath(dir);
    if (tamper == "delete") {
      ASSERT_TRUE(std::filesystem::remove(log));
    } else if (tamper == "truncate") {
      std::filesystem::resize_file(log, std::filesystem::file_size(log) / 2);
    } else if (tamper == "swap") {
      std::filesystem::copy_file(
          ParkLogPath(reference_config.state_dir), log,
          std::filesystem::copy_options::overwrite_existing);
    } else {
      // Every parked stream's single file holds the next one's model.
      for (std::size_t i = 0; i < parked.size(); ++i) {
        serve::WriteEvictionArchive(
            dir, parked[i]->id, parked[(i + 1) % parked.size()]->archive);
      }
    }

    serve::ServeEngine recovered(config);
    for (const auto& entry :
         std::filesystem::directory_iterator(dir + "/evicted")) {
      EXPECT_NE(entry.path().extension(), ".dmts") << entry.path();
    }
    // Rebuilt with exactly the manifest's parked streams, nothing dead.
    EXPECT_EQ(recovered.park_log().live_bytes(), parked_bytes);
    EXPECT_EQ(recovered.park_log().dead_bytes(), 0u);
    EXPECT_EQ(std::filesystem::file_size(log), parked_bytes);
    std::ostringstream out;
    for (std::size_t i = covered; i < script.size(); ++i) {
      recovered.ServeLine(script[i], out);
    }
    recovered.Finish(out);
    const std::vector<std::string> tail = SplitLines(out.str());
    ASSERT_EQ(tail.size(), script.size() - covered);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i], expected[covered + i]) << "response " << (covered + i);
    }
  }
}

// The value of one field of a `stats` response.
std::uint64_t StatsField(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = line.find(key);
  EXPECT_NE(at, std::string::npos) << name << " in " << line;
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
}

TEST(ServeDurabilityTest, FailedCheckpointKeepsThePreviousManifest) {
  // Checkpoints every 4 windows of 8: request 96 publishes manifest 3. A
  // byte of the id in the park log record of the parked stream listed last
  // is then flipped, so the next checkpoint fails after every other record
  // went into its temp file.
  const std::size_t covered = 96;
  std::vector<std::string> script = RevisitingScript(covered, 12);

  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 8;
  config.seed = 43;
  config.model_kind = "GLM";
  config.checkpoint_every = 4;
  config.max_streams = 3;
  config.factory = Factory("GLM", 2, 2);
  const std::string dir = FreshStateDir("serve_failed_checkpoint");
  config.state_dir = dir;
  serve::ServeEngine engine(config);
  std::ostringstream out;
  for (const std::string& line : script) engine.ServeLine(line, out);
  const std::optional<serve::Manifest> before = serve::LoadNewestManifest(dir);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->seq, 3u);
  std::string victim;
  for (const serve::ManifestStream& entry : before->streams) {
    if (!entry.resident) victim = entry.id;
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_NE(victim, before->streams.front().id);
  {
    std::string log = ReadFileBytes(ParkLogPath(dir));
    const std::size_t at = log.rfind(EncodedId(victim));
    ASSERT_NE(at, std::string::npos);
    log[at + 8] = static_cast<char>(log[at + 8] ^ 0x20);  // 's' -> 'S'
    std::ofstream file(ParkLogPath(dir), std::ios::binary | std::ios::trunc);
    file << log;
  }

  // Four more windows that never touch the victim, then `stats`.
  for (const std::string& line : RevisitingScript(400, 12)) {
    if (script.size() == covered + 32) break;
    if (line.find(" " + victim + " ") == std::string::npos) {
      script.push_back(line);
    }
  }
  script.push_back("stats");
  for (std::size_t i = covered; i < script.size(); ++i) {
    engine.ServeLine(script[i], out);
  }
  engine.Finish(out);
  const std::vector<std::string> actual = SplitLines(out.str());

  serve::ServeConfig reference_config = config;
  reference_config.state_dir = FreshStateDir("serve_failed_checkpoint_ref");
  serve::ServeEngine reference(reference_config);
  const std::vector<std::string> expected =
      SplitLines(RunLines(&reference, script));
  ASSERT_EQ(actual.size(), script.size());
  ASSERT_EQ(expected.size(), script.size());
  for (std::size_t i = 0; i + 1 < script.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "response " << i;
  }
  // Window 16's checkpoint failed; Finish's failed after `stats` answered.
  EXPECT_EQ(StatsField(actual.back(), "state_errors"),
            StatsField(expected.back(), "state_errors") + 1);
  EXPECT_EQ(StatsField(actual.back(), "checkpoints"), 3u);
  EXPECT_EQ(StatsField(expected.back(), "checkpoints"), 4u);

  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_directory()) continue;  // evicted/
    EXPECT_EQ(entry.path().extension(), ".dmtm") << entry.path();
  }
  const std::optional<serve::Manifest> after = serve::LoadNewestManifest(dir);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->seq, 3u);
  EXPECT_EQ(after->tallies.requests, covered);
}

TEST(ServeDurabilityTest, RecoveryRejectsConfigSkew) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.model_kind = "GLM";
  config.state_dir = FreshStateDir("serve_skew");
  config.factory = Factory("GLM", 2, 2);
  {
    serve::ServeEngine engine(config);
    std::ostringstream out;
    engine.ServeLine("train u 0.1,0.9,1", out);
    engine.Finish(out);  // writes the manifest
  }
  {
    serve::ServeConfig skew = config;
    skew.model_kind = "DMT";
    EXPECT_THROW(serve::ServeEngine engine(skew), serve::StateError);
  }
  {
    serve::ServeConfig skew = config;
    skew.seed = config.seed + 1;
    EXPECT_THROW(serve::ServeEngine engine(skew), serve::StateError);
  }
  {
    serve::ServeConfig skew = config;
    skew.batch_window = config.batch_window + 1;
    EXPECT_THROW(serve::ServeEngine engine(skew), serve::StateError);
  }
  // The matching configuration still recovers.
  serve::ServeEngine engine(config);
  EXPECT_EQ(engine.num_streams(), 1u);
}

TEST(ServeDurabilityTest, CorruptManifestIsATypedRefusal) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.state_dir = FreshStateDir("serve_corrupt");
  config.factory = Factory("GLM", 2, 2);
  {
    serve::ServeEngine engine(config);
    std::ostringstream out;
    engine.ServeLine("train u 0.1,0.9,1", out);
    engine.Finish(out);
  }
  // Truncate the manifest mid-file.
  const std::optional<serve::Manifest> manifest =
      serve::LoadNewestManifest(config.state_dir);
  ASSERT_TRUE(manifest.has_value());
  const std::string path =
      config.state_dir + "/" + serve::ManifestFileName(manifest->seq);
  const std::string bytes = ReadFileBytes(path);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  EXPECT_THROW(serve::ServeEngine engine(config), serve::StateError);
}

// --------------------------------------------------------- fault injection

TEST(ServeInjectionTest, ServerSurvivesFaultTrafficDeterministically) {
  const std::vector<std::string> script = RevisitingScript(500, 9);
  std::string outputs[2];
  const std::size_t shard_counts[2] = {1, 2};
  for (int i = 0; i < 2; ++i) {
    serve::ServeConfig config;
    config.num_features = 2;
    config.num_classes = 2;
    config.num_shards = shard_counts[i];
    config.batch_window = 16;
    config.seed = 77;
    config.inject = robust::FaultSpec::Parse(
        "nan=0.2,inf=0.1,missing=0.1,flip=0.3,truncate=0.15");
    config.factory = Factory("GLM", 2, 2);
    serve::ServeEngine engine(config);
    std::ostringstream out;
    for (const std::string& line : script) engine.ServeLine(line, out);
    engine.ServeLine("stats", out);
    engine.Finish(out);
    outputs[i] = out.str();
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  const std::vector<std::string> lines = SplitLines(outputs[0]);
  // One response per request, every one OK (skip policy) -- the server
  // never aborted or went silent under nan/inf/truncate traffic.
  ASSERT_EQ(lines.size(), script.size() + 1);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("OK ", 0), 0u) << line;
  }
  EXPECT_EQ(lines.back().find("\"injected_rows\": 0,"), std::string::npos)
      << lines.back();
  EXPECT_NE(lines.back().find("\"injected_rows\": "), std::string::npos);
}

TEST(ServeInjectionTest, InjectionTraceSurvivesCheckpointRecovery) {
  const std::vector<std::string> script = RevisitingScript(64, 4);
  const std::size_t covered = 32;
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 8;
  config.seed = 55;
  config.model_kind = "GLM";
  config.checkpoint_every = 2;
  config.inject =
      robust::FaultSpec::Parse("nan=0.25,missing=0.2,flip=0.3,truncate=0.1");
  config.factory = Factory("GLM", 2, 2);

  serve::ServeConfig reference_config = config;
  reference_config.state_dir = FreshStateDir("serve_inject_ref");
  serve::ServeEngine reference(reference_config);
  const std::string expected = RunLines(&reference, script);

  config.state_dir = FreshStateDir("serve_inject_crash");
  {
    serve::ServeEngine doomed(config);
    std::ostringstream sink;
    for (std::size_t i = 0; i < 40; ++i) doomed.ServeLine(script[i], sink);
  }
  serve::ServeEngine recovered(config);
  std::ostringstream out;
  for (std::size_t i = covered; i < script.size(); ++i) {
    recovered.ServeLine(script[i], out);
  }
  recovered.Finish(out);
  // The recovered tail equals the reference's tail: the per-stream
  // injection generators resumed mid-trace.
  const std::vector<std::string> expected_lines = SplitLines(expected);
  const std::vector<std::string> tail = SplitLines(out.str());
  ASSERT_EQ(tail.size(), script.size() - covered);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i], expected_lines[covered + i]);
  }
  // Rate skew between the checkpoint and the engine is refused.
  serve::ServeConfig skew = config;
  skew.inject.nan_rate = 0.5;
  EXPECT_THROW(serve::ServeEngine engine(skew), serve::StateError);
}

// ----------------------------------------------------------------- bridge

TEST(ServeBridgeTest, AnswersPerLineOverOnePersistentConnection) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 64;  // larger than the request count: only the
                             // idle flush can emit responses
  config.factory = Factory("GLM", 2, 2);
  serve::ServeEngine engine(config);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread server([&engine, &fds]() {
    serve::RunLineProtocol(&engine, fds[0], fds[0], nullptr,
                           /*flush_when_idle=*/true);
  });

  const auto send_line = [&fds](const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::write(fds[1], framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  };
  const auto read_line = [&fds]() {
    std::string line;
    char c;
    while (::read(fds[1], &c, 1) == 1 && c != '\n') line.push_back(c);
    return line;
  };

  // Strict request/response lockstep: each answer must arrive before the
  // next request is sent, so responses cannot be riding a later window.
  send_line("train u 0.1,0.9,1");
  EXPECT_EQ(read_line(), "OK train u n=1");
  send_line("score u 0.4,0.6");
  const std::string score = read_line();
  EXPECT_EQ(score.rfind("OK score u pred=", 0), 0u) << score;
  send_line("stats");
  EXPECT_EQ(read_line().rfind("OK stats ", 0), 0u);

  ASSERT_EQ(::shutdown(fds[1], SHUT_WR), 0);
  server.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeBridgeTest, BatchModeMatchesRunScriptAndServesUnterminatedTail) {
  const std::vector<std::string> script = RevisitingScript(100, 5);
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.batch_window = 16;
  config.factory = Factory("GLM", 2, 2);

  serve::ServeEngine reference(config);
  const std::string expected = RunLines(&reference, script);

  // Same script through the fd bridge, deliberately without a trailing
  // newline on the final line.
  std::string input;
  for (std::size_t i = 0; i < script.size(); ++i) {
    input += script[i];
    if (i + 1 < script.size()) input += '\n';
  }
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::ServeEngine engine(config);
  std::string actual;
  std::thread client([&fds, &input, &actual]() {
    std::size_t written = 0;
    while (written < input.size()) {
      const ssize_t w = ::write(fds[1], input.data() + written,
                                std::min<std::size_t>(777, input.size() -
                                                               written));
      ASSERT_GT(w, 0);
      written += static_cast<std::size_t>(w);
    }
    ::shutdown(fds[1], SHUT_WR);
    char buffer[4096];
    ssize_t n;
    while ((n = ::read(fds[1], buffer, sizeof(buffer))) > 0) {
      actual.append(buffer, static_cast<std::size_t>(n));
    }
  });
  serve::RunLineProtocol(&engine, fds[0], fds[0], nullptr,
                         /*flush_when_idle=*/false);
  engine.Finish(std::cout);  // nothing pending; parity with dmt_serve main
  ::shutdown(fds[0], SHUT_WR);
  client.join();
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace dmt
