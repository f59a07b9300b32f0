// Tests for the serving durability layer (src/dmt/serve/state_dir):
// manifest round trips, newest-complete selection, pruning, and the
// corruption contract -- a truncated, bit-flipped, version-skewed or
// foreign file always surfaces as a typed StateError, never UB, abort or
// a silently wrong recovery.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/serve/state_dir.h"

namespace dmt {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

serve::Manifest MakeManifest(std::uint64_t seq) {
  serve::Manifest m;
  m.seq = seq;
  m.model_kind = "GLM";
  m.num_features = 3;
  m.num_classes = 2;
  m.seed = 42;
  m.batch_window = 16;
  m.inject_rates = {0.1, 0.0, 0.25, 0.5, 1.0};
  m.tallies.requests = 100;
  m.tallies.train_rows = 60;
  m.tallies.score_rows = 30;
  m.tallies.windows = 7;
  m.tallies.evictions = 2;
  m.tallies.warm_starts = 1;
  m.tallies.checkpoints = 3;

  serve::ManifestStream alpha;
  alpha.id = "alpha";
  alpha.resident = true;
  alpha.rows_trained = 41;
  alpha.last_touch = 99;
  alpha.last_window = 7;
  // A generator of unknown history, as a format 3 manifest loads it: the
  // text form of the RNG record.
  Mt19937_64 engine(99);
  for (int i = 0; i < 400; ++i) engine();
  alpha.inject_rng = std::make_unique<Rng>();
  alpha.inject_rng->Restore(engine);
  alpha.archive = "alpha-model-archive-bytes";  // opaque to the manifest
  m.streams.push_back(std::move(alpha));

  serve::ManifestStream beta;
  beta.id = "beta";
  beta.resident = false;
  beta.rows_trained = 19;
  beta.last_touch = 55;
  beta.last_window = 3;
  beta.inject_rng = std::make_unique<Rng>(123);
  for (int i = 0; i < 5; ++i) (*beta.inject_rng)();
  beta.archive = "beta-model-archive-bytes";
  m.streams.push_back(std::move(beta));
  return m;
}

// ----------------------------------------------------------- round trips

TEST(StateDirTest, ManifestRoundTripPreservesEveryField) {
  const std::string dir = FreshDir("state_roundtrip");
  const serve::Manifest written = MakeManifest(12);
  serve::WriteManifest(dir, written);

  const std::optional<serve::Manifest> loaded =
      serve::LoadNewestManifest(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 12u);
  EXPECT_EQ(loaded->model_kind, "GLM");
  EXPECT_EQ(loaded->num_features, 3);
  EXPECT_EQ(loaded->num_classes, 2);
  EXPECT_EQ(loaded->seed, 42u);
  EXPECT_EQ(loaded->batch_window, 16u);
  EXPECT_EQ(loaded->inject_rates, written.inject_rates);
  EXPECT_EQ(loaded->tallies.requests, 100u);
  EXPECT_EQ(loaded->tallies.train_rows, 60u);
  EXPECT_EQ(loaded->tallies.windows, 7u);
  EXPECT_EQ(loaded->tallies.evictions, 2u);
  EXPECT_EQ(loaded->tallies.checkpoints, 3u);
  ASSERT_EQ(loaded->streams.size(), 2u);
  EXPECT_EQ(loaded->streams[0].id, "alpha");
  EXPECT_TRUE(loaded->streams[0].resident);
  EXPECT_EQ(loaded->streams[0].rows_trained, 41u);
  EXPECT_EQ(loaded->streams[0].last_touch, 99u);
  EXPECT_EQ(loaded->streams[0].archive, "alpha-model-archive-bytes");
  EXPECT_EQ(loaded->streams[1].id, "beta");
  EXPECT_FALSE(loaded->streams[1].resident);
  ASSERT_NE(loaded->streams[0].inject_rng, nullptr);
  EXPECT_FALSE(loaded->streams[0].inject_rng->counted());
  EXPECT_TRUE(loaded->streams[0].inject_rng->engine() ==
              written.streams[0].inject_rng->engine());
  ASSERT_NE(loaded->streams[1].inject_rng, nullptr);
  EXPECT_TRUE(loaded->streams[1].inject_rng->counted());
  EXPECT_EQ(loaded->streams[1].inject_rng->seed(), 123u);
  EXPECT_EQ(loaded->streams[1].inject_rng->draws(), 5u);
}

TEST(StateDirTest, EmptyOrMissingDirIsAFreshStart) {
  EXPECT_FALSE(serve::LoadNewestManifest(FreshDir("state_empty")));
  EXPECT_FALSE(
      serve::LoadNewestManifest(::testing::TempDir() + "state_nonexistent"));
}

// -------------------------------------------- newest-complete + pruning

TEST(StateDirTest, NewestManifestWinsAndStaleTmpIsIgnored) {
  const std::string dir = FreshDir("state_newest");
  serve::WriteManifest(dir, MakeManifest(3));
  serve::WriteManifest(dir, MakeManifest(7));
  // A crash mid-write leaves a .tmp behind with a higher sequence; only
  // completely renamed manifests count.
  WriteFileBytes(dir + "/" + serve::ManifestFileName(9) + ".tmp", "torn");
  WriteFileBytes(dir + "/manifest-notanumber.dmtm", "junk");

  const std::optional<serve::Manifest> loaded =
      serve::LoadNewestManifest(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 7u);
}

TEST(StateDirTest, WriteManifestPrunesAllButTheSpare) {
  const std::string dir = FreshDir("state_prune");
  serve::WriteManifest(dir, MakeManifest(1));
  serve::WriteManifest(dir, MakeManifest(2));
  serve::WriteManifest(dir, MakeManifest(3));
  EXPECT_FALSE(fs::exists(dir + "/" + serve::ManifestFileName(1)));
  EXPECT_TRUE(fs::exists(dir + "/" + serve::ManifestFileName(2)));
  EXPECT_TRUE(fs::exists(dir + "/" + serve::ManifestFileName(3)));
}

TEST(StateDirTest, FileNameSequenceMismatchIsDetected) {
  const std::string dir = FreshDir("state_seqskew");
  serve::WriteManifest(dir, MakeManifest(5));
  // A manifest renamed to a different sequence (a botched manual restore)
  // must not be trusted as that sequence.
  fs::rename(dir + "/" + serve::ManifestFileName(5),
             dir + "/" + serve::ManifestFileName(6));
  EXPECT_THROW(serve::LoadNewestManifest(dir), serve::StateError);
}

// ------------------------------------------------------ corruption fuzz

TEST(StateDirTest, EveryTruncationIsATypedError) {
  const std::string dir = FreshDir("state_trunc_src");
  serve::WriteManifest(dir, MakeManifest(4));
  const std::string bytes =
      ReadFileBytes(dir + "/" + serve::ManifestFileName(4));
  ASSERT_GT(bytes.size(), 100u);

  const std::string fuzz_dir = FreshDir("state_trunc_fuzz");
  const std::string target = fuzz_dir + "/" + serve::ManifestFileName(4);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFileBytes(target, bytes.substr(0, cut));
    EXPECT_THROW(serve::LoadNewestManifest(fuzz_dir), serve::StateError)
        << "truncation at byte " << cut << " was accepted";
  }
  // Sanity: the untruncated bytes do load.
  WriteFileBytes(target, bytes);
  EXPECT_TRUE(serve::LoadNewestManifest(fuzz_dir).has_value());
}

TEST(StateDirTest, ByteFlipsNeverCrashOnlyLoadOrTypedError) {
  const std::string dir = FreshDir("state_flip_src");
  serve::WriteManifest(dir, MakeManifest(4));
  const std::string bytes =
      ReadFileBytes(dir + "/" + serve::ManifestFileName(4));

  const std::string fuzz_dir = FreshDir("state_flip_fuzz");
  const std::string target = fuzz_dir + "/" + serve::ManifestFileName(4);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    WriteFileBytes(target, mutated);
    try {
      serve::LoadNewestManifest(fuzz_dir);  // may succeed (payload bytes)
    } catch (const serve::StateError&) {
      // typed refusal is the other acceptable outcome
    }
  }
}

TEST(StateDirTest, FormatVersionSkewIsATypedError) {
  const std::string dir = FreshDir("state_version");
  serve::WriteManifest(dir, MakeManifest(4));
  const std::string path = dir + "/" + serve::ManifestFileName(4);
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 8u);
  // Bytes 4..7 hold the little-endian format version (after the 4-byte
  // magic); a far-future version must be refused, not misparsed.
  bytes[4] = 0x63;
  bytes[5] = 0x00;
  bytes[6] = 0x00;
  bytes[7] = 0x00;
  WriteFileBytes(path, bytes);
  EXPECT_THROW(serve::LoadNewestManifest(dir), serve::StateError);
}

// ------------------------------------------------------ eviction archives

TEST(StateDirTest, EvictionArchiveRoundTrip) {
  const std::string dir = FreshDir("state_evict");
  serve::EnsureStateDir(dir);
  serve::WriteEvictionArchive(dir, "user/42", "parked-model-bytes");
  EXPECT_EQ(serve::ReadEvictionArchive(dir, "user/42"), "parked-model-bytes");
  // A stream that was never parked has no file: a typed error.
  EXPECT_THROW(serve::ReadEvictionArchive(dir, "user/43"), serve::StateError);
}

TEST(StateDirTest, ForeignEvictionArchiveIsDetected) {
  const std::string dir = FreshDir("state_evict_foreign");
  serve::EnsureStateDir(dir);
  serve::WriteEvictionArchive(dir, "alice", "alice-bytes");
  // Simulate a filename collision / stale rename: alice's file sitting
  // where bob's is expected. The id recorded inside the file wins.
  fs::rename(dir + "/evicted/" + serve::EvictionFileName("alice"),
             dir + "/evicted/" + serve::EvictionFileName("bob"));
  EXPECT_THROW(serve::ReadEvictionArchive(dir, "bob"), serve::StateError);
}

TEST(StateDirTest, CorruptEvictionArchiveIsATypedError) {
  const std::string dir = FreshDir("state_evict_corrupt");
  serve::EnsureStateDir(dir);
  serve::WriteEvictionArchive(dir, "carol", "carol-bytes");
  const std::string path =
      dir + "/evicted/" + serve::EvictionFileName("carol");
  const std::string bytes = ReadFileBytes(path);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    WriteFileBytes(path, bytes.substr(0, cut));
    EXPECT_THROW(serve::ReadEvictionArchive(dir, "carol"), serve::StateError)
        << "truncation at byte " << cut << " was accepted";
  }
}

TEST(StateDirTest, EvictionFileNamesAreSafeAndDistinct) {
  const std::string hostile = serve::EvictionFileName("../../etc/passwd");
  EXPECT_EQ(hostile.find('/'), std::string::npos);
  EXPECT_NE(serve::EvictionFileName("stream-a"),
            serve::EvictionFileName("stream-b"));
  // Long ids differing only past the sanitized prefix still get distinct
  // names via the full-id hash.
  const std::string long_a(60, 'x');
  std::string long_b = long_a;
  long_b.back() = 'y';
  EXPECT_NE(serve::EvictionFileName(long_a), serve::EvictionFileName(long_b));
}

// ------------------------------------------------------------ park log

std::string ParkLogPath(const std::string& dir) {
  return dir + "/evicted/parked.log";
}

// A park log record holds exactly the bytes of a single-file eviction
// archive: header, id, archive.
TEST(ParkLogTest, RecordsAreTheSingleFileArchiveBytes) {
  const std::string dir = FreshDir("park_log_bytes");
  serve::EnsureStateDir(dir);
  serve::ParkLog log;
  log.Open(dir);  // before the single file: Open removes such files
  serve::WriteEvictionArchive(dir, "user/42", "parked-model-bytes");
  const serve::ParkSlot slot = log.Append("user/42", "parked-model-bytes");
  EXPECT_EQ(slot.offset, 0u);
  EXPECT_EQ(ReadFileBytes(ParkLogPath(dir)),
            ReadFileBytes(dir + "/evicted/" +
                          serve::EvictionFileName("user/42")));
  EXPECT_EQ(log.live_bytes(), slot.size);
}

// Opening the log reclaims the per-stream files older builds parked
// streams in, and touches nothing else.
TEST(ParkLogTest, OpenRemovesOldPerStreamFiles) {
  const std::string dir = FreshDir("park_log_reclaim");
  serve::EnsureStateDir(dir);
  serve::WriteEvictionArchive(dir, "alice", "alice-bytes");
  serve::WriteEvictionArchive(dir, "bob", "bob-bytes");
  std::ofstream(dir + "/evicted/notes.txt") << "kept";
  serve::ParkLog log;
  log.Open(dir);
  std::vector<std::string> left;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/evicted")) {
    left.push_back(entry.path().filename().string());
  }
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<std::string>{"notes.txt", "parked.log"}));
}

TEST(ParkLogTest, AppendReadForgetAndCompact) {
  const std::string dir = FreshDir("park_log_compact");
  serve::EnsureStateDir(dir);
  serve::ParkLog log;
  log.Open(dir);
  serve::ParkSlot a = log.Append("alice", "alice-bytes");
  serve::ParkSlot b = log.Append("bob", std::string(300, 'b'));
  serve::ParkSlot c = log.Append("carol", "carol-bytes");
  EXPECT_EQ(b.offset, a.size);
  EXPECT_EQ(c.offset, a.size + b.size);
  std::string archive;
  log.Read(b, "bob", &archive);
  EXPECT_EQ(archive, std::string(300, 'b'));
  // Reading a record as another stream's is a typed error.
  EXPECT_THROW(log.Read(a, "bob", &archive), serve::StateError);

  log.Forget(b);
  EXPECT_EQ(log.dead_bytes(), b.size);
  EXPECT_TRUE(log.NeedsCompaction());  // 300+ dead bytes, ~70 live
  log.Compact({&c, &a});               // any order; log order is kept
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(c.offset, a.size);
  EXPECT_EQ(log.dead_bytes(), 0u);
  EXPECT_EQ(log.live_bytes(), a.size + c.size);
  EXPECT_EQ(fs::file_size(ParkLogPath(dir)), a.size + c.size);
  EXPECT_FALSE(fs::exists(ParkLogPath(dir) + ".tmp"));
  log.Read(c, "carol", &archive);
  EXPECT_EQ(archive, "carol-bytes");
  // Appends continue after the compacted records.
  const serve::ParkSlot d = log.Append("dave", "dave-bytes");
  EXPECT_EQ(d.offset, a.size + c.size);
  log.Read(a, "alice", &archive);
  EXPECT_EQ(archive, "alice-bytes");
  log.Read(d, "dave", &archive);
  EXPECT_EQ(archive, "dave-bytes");
}

TEST(ParkLogTest, FailedCompactionKeepsTheLogAndItsSlots) {
  const std::string dir = FreshDir("park_log_failed_compact");
  serve::EnsureStateDir(dir);
  serve::ParkLog log;
  log.Open(dir);
  serve::ParkSlot a = log.Append("alice", "alice-bytes");
  const serve::ParkSlot b = log.Append("bob", std::string(300, 'b'));
  log.Forget(b);
  // A directory where the rewritten log would go: the compaction cannot
  // open its temp file.
  fs::create_directories(ParkLogPath(dir) + ".tmp");
  const serve::ParkSlot before = a;
  EXPECT_THROW(log.Compact({&a}), serve::StateError);
  EXPECT_EQ(a.offset, before.offset);
  EXPECT_EQ(log.dead_bytes(), b.size);
  std::string archive;
  log.Read(a, "alice", &archive);
  EXPECT_EQ(archive, "alice-bytes");
}

TEST(ParkLogTest, OpenTruncatesALeftOverLog) {
  const std::string dir = FreshDir("park_log_reopen");
  serve::EnsureStateDir(dir);
  WriteFileBytes(ParkLogPath(dir), "bytes of a crashed run");
  serve::ParkLog log;
  log.Open(dir);
  EXPECT_EQ(fs::file_size(ParkLogPath(dir)), 0u);
  const serve::ParkSlot slot = log.Stage("erin", "erin-bytes");
  EXPECT_EQ(fs::file_size(ParkLogPath(dir)), 0u);  // staged, not written
  log.Flush();
  std::string archive;
  log.Read(slot, "erin", &archive);
  EXPECT_EQ(archive, "erin-bytes");
}

// Every truncation and every byte flip of one record (the second in the
// log) is a typed StateError, except a flip inside the archive payload,
// which the record cannot detect: it comes back flipped, for the model
// decoder to judge.
TEST(ParkLogTest, EveryTruncationAndByteFlipOfARecordIsTyped) {
  const std::string dir = FreshDir("park_log_fuzz");
  serve::EnsureStateDir(dir);
  serve::ParkLog log;
  log.Open(dir);
  log.Append("alice", "alice-bytes");
  const std::string payload = "carol-model-bytes";
  const serve::ParkSlot slot = log.Append("carol", payload);
  const std::string whole = ReadFileBytes(ParkLogPath(dir));
  ASSERT_EQ(whole.size(), slot.offset + slot.size);
  const std::size_t payload_at = slot.size - payload.size();
  std::string archive;
  for (std::size_t cut = 0; cut < slot.size; ++cut) {
    WriteFileBytes(ParkLogPath(dir), whole.substr(0, slot.offset + cut));
    EXPECT_THROW(log.Read(slot, "carol", &archive), serve::StateError)
        << "truncation at record byte " << cut << " was accepted";
  }
  for (std::size_t at = 0; at < slot.size; ++at) {
    std::string flipped = whole;
    char& byte = flipped[slot.offset + at];
    byte = static_cast<char>(byte ^ 0xff);
    WriteFileBytes(ParkLogPath(dir), flipped);
    if (at < payload_at) {
      EXPECT_THROW(log.Read(slot, "carol", &archive), serve::StateError)
          << "flip of record byte " << at << " was accepted";
    } else {
      std::string expected = payload;
      expected[at - payload_at] =
          static_cast<char>(expected[at - payload_at] ^ 0xff);
      log.Read(slot, "carol", &archive);
      EXPECT_EQ(archive, expected) << "flip of record byte " << at;
    }
  }
  // A record followed by junk inside its slot: longer than its fields.
  WriteFileBytes(ParkLogPath(dir), whole + "junk");
  const serve::ParkSlot longer = {slot.offset, slot.size + 4};
  EXPECT_THROW(log.Read(longer, "carol", &archive), serve::StateError);
  WriteFileBytes(ParkLogPath(dir), whole);
  log.Read(slot, "carol", &archive);
  EXPECT_EQ(archive, payload);
}

}  // namespace
}  // namespace dmt
