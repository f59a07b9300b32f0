// Tests for dmt::Mt19937_64, dmt::Rng and dmt::ParkedRng (common/random.h)
// and their state codec in serial/archive (EngineText, ParseEngineText, the
// RNG record of Writer::Rng / Reader::Rng). std::mt19937_64 is the reference:
// the engine must draw
// the same words from every seed and the same values through every std::
// distribution and std::shuffle, and its text must be exactly what
// libstdc++'s operator<< writes for the equal std engine. The decoder must
// restore an equal engine and accept nothing but that canonical text: any
// other input -- a truncation, a byte flip, a sign, a doubled space, a
// wrong word count, an index past 312, trailing bytes -- is a SerialError
// or an engine whose own text is the input, never a crash or another
// exception.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/core/dmt_regressor.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/serial/archive.h"
#include "dmt/serial/model_io.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/fimtdd_regressor.h"

namespace dmt {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string StreamText(const std::mt19937_64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

// The std engine whose state `text` is, read by libstdc++'s operator>>.
std::mt19937_64 StdEngineOf(const std::string& text) {
  std::istringstream in(text);
  std::mt19937_64 engine;
  in >> engine;
  EXPECT_FALSE(in.fail());
  return engine;
}

// What operator<< writes for the std engine equal to `engine`.
std::string StreamText(const Mt19937_64& engine) {
  return StreamText(StdEngineOf(serial::EngineText(engine)));
}

// Outcome of decoding one hostile text: a SerialError, or an engine whose
// canonical text is the input itself. Any other exception fails the test.
void ExpectRejectedOrCanonical(const std::string& text) {
  Mt19937_64 engine;
  try {
    serial::ParseEngineText(text, &engine);
  } catch (const serial::SerialError&) {
    return;
  }
  EXPECT_EQ(serial::EngineText(engine), text);
}

void ExpectRejected(const std::string& text, const char* what) {
  Mt19937_64 engine;
  EXPECT_THROW(serial::ParseEngineText(text, &engine), serial::SerialError)
      << what;
}

// Offset and length of the RNG text inside a model archive: the one long
// run of digits and spaces (the rest of an archive is binary).
std::pair<std::size_t, std::size_t> EngineTextSpan(const std::string& bytes) {
  std::size_t best_start = 0;
  std::size_t best_length = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= bytes.size(); ++i) {
    const bool text = i < bytes.size() &&
                      (bytes[i] == ' ' || (bytes[i] >= '0' && bytes[i] <= '9'));
    if (text) continue;
    if (i - start > best_length) {
      best_start = start;
      best_length = i - start;
    }
    start = i + 1;
  }
  return {best_start, best_length};
}

TEST(EngineCodecTest, WordsEqualStdEngineOverThreeTwists) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
        ~std::uint64_t{0}}) {
    SCOPED_TRACE(seed);
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    ASSERT_EQ(serial::EngineText(engine), StreamText(reference));
    for (std::size_t i = 0; i < 3 * Mt19937_64::kStateSize + 7; ++i) {
      ASSERT_EQ(engine(), reference()) << "word " << i;
    }
    ASSERT_EQ(serial::EngineText(engine), StreamText(reference));
    engine.seed(seed + 1);
    reference.seed(seed + 1);
    ASSERT_EQ(engine(), reference());
  }
  Mt19937_64 default_seeded;
  std::mt19937_64 default_reference;
  EXPECT_EQ(default_seeded(), default_reference());
}

TEST(EngineCodecTest, TextEqualsStreamOperatorAtEveryIndex) {
  // Draws reach the indices 1..312 (a draw at 312 twists and takes word 0),
  // index 0 only a decoded state: so each index 0..312 is set by text on
  // both engines, which then draw in lockstep across the next twist.
  std::mt19937_64 source(99);
  for (int i = 0; i < 400; ++i) source();
  const std::string text = StreamText(source);
  const std::string words = text.substr(0, text.rfind(' ') + 1);
  for (std::size_t index = 0; index <= Mt19937_64::kStateSize; ++index) {
    SCOPED_TRACE(index);
    const std::string state = words + std::to_string(index);
    Mt19937_64 engine;
    serial::ParseEngineText(state, &engine);
    std::mt19937_64 reference = StdEngineOf(state);
    ASSERT_EQ(StreamText(reference), state);
    ASSERT_EQ(serial::EngineText(engine), state);
    for (std::size_t i = 0; i <= Mt19937_64::kStateSize; ++i) {
      ASSERT_EQ(engine(), reference()) << "word " << i;
    }
    ASSERT_EQ(serial::EngineText(engine), StreamText(reference));
  }
}

TEST(EngineCodecTest, DistributionsAndShuffleDrawTheSameValues) {
  // One distribution object per engine, kept across draws, so the cached
  // second normal of each pair is pinned too.
  Mt19937_64 engine(2024);
  std::mt19937_64 reference(2024);
  std::uniform_int_distribution<int> small_int(-3, 17);
  std::uniform_int_distribution<int> small_int_ref(-3, 17);
  std::uniform_int_distribution<std::uint64_t> full_word;
  std::uniform_int_distribution<std::uint64_t> full_word_ref;
  std::uniform_real_distribution<double> uniform(-1.0, 2.0);
  std::uniform_real_distribution<double> uniform_ref(-1.0, 2.0);
  std::normal_distribution<double> normal(0.5, 2.0);
  std::normal_distribution<double> normal_ref(0.5, 2.0);
  // Below and above libstdc++'s switch to the rejection method (mean 12).
  std::poisson_distribution<int> poisson(3.5);
  std::poisson_distribution<int> poisson_ref(3.5);
  std::poisson_distribution<int> wide_poisson(40.0);
  std::poisson_distribution<int> wide_poisson_ref(40.0);
  std::bernoulli_distribution bernoulli(0.3);
  std::bernoulli_distribution bernoulli_ref(0.3);
  std::discrete_distribution<int> discrete({1.0, 2.0, 0.0, 3.5, 0.25});
  std::discrete_distribution<int> discrete_ref({1.0, 2.0, 0.0, 3.5, 0.25});
  for (int i = 0; i < 2000; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(small_int(engine), small_int_ref(reference));
    ASSERT_EQ(full_word(engine), full_word_ref(reference));
    ASSERT_EQ(uniform(engine), uniform_ref(reference));
    ASSERT_EQ(normal(engine), normal_ref(reference));
    ASSERT_EQ(poisson(engine), poisson_ref(reference));
    ASSERT_EQ(wide_poisson(engine), wide_poisson_ref(reference));
    ASSERT_EQ(bernoulli(engine), bernoulli_ref(reference));
    ASSERT_EQ(discrete(engine), discrete_ref(reference));
  }
  std::vector<int> shuffled(100);
  std::iota(shuffled.begin(), shuffled.end(), 0);
  std::vector<int> shuffled_ref = shuffled;
  for (int round = 0; round < 20; ++round) {
    std::shuffle(shuffled.begin(), shuffled.end(), engine);
    std::shuffle(shuffled_ref.begin(), shuffled_ref.end(), reference);
    ASSERT_EQ(shuffled, shuffled_ref) << round;
  }
  EXPECT_EQ(serial::EngineText(engine), StreamText(reference));
}

TEST(EngineCodecTest, TextEqualsStreamOperatorAndRoundTrips) {
  // 0..700 draws: the fresh index 312, every index 1..312 and a second
  // regeneration of the state words, in lockstep with the std engine.
  Mt19937_64 engine(0x5eed);
  std::mt19937_64 reference(0x5eed);
  for (int draws = 0; draws <= 700; ++draws) {
    SCOPED_TRACE(draws);
    const std::string expected = StreamText(reference);
    ASSERT_EQ(serial::EngineText(engine), expected);

    // An Rng holding this state with no known history writes the text
    // form of the RNG record.
    Rng uncounted;
    uncounted.Restore(engine);
    std::ostringstream out;
    serial::Writer writer(out);
    writer.Rng(uncounted);
    std::ostringstream oracle;
    serial::Writer oracle_writer(oracle);
    oracle_writer.U8(static_cast<std::uint8_t>(serial::RngForm::kText));
    oracle_writer.Str(expected);
    ASSERT_EQ(out.str(), oracle.str());

    std::istringstream in(out.str());
    serial::Reader reader(in);
    Rng decoded_rng;
    reader.Rng(&decoded_rng);
    ASSERT_FALSE(decoded_rng.counted());
    Mt19937_64 decoded = decoded_rng.engine();
    ASSERT_TRUE(decoded == engine);
    Mt19937_64 continued = engine;
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(decoded(), continued());

    ASSERT_EQ(engine(), reference());
  }
}

TEST(EngineCodecTest, TextEqualsStreamOperatorOnEveryDigitChunkEdge) {
  // The formatter splits each word at 10^16 and 10^8 and writes every
  // chunk after the leading one as 8 digits with its leading zeros. Drawn
  // engine words almost all exceed 10^16, so the words here sit on the
  // chunk edges on purpose, then fill 10^4 words of each digit length.
  std::vector<std::uint64_t> words = {0, 1, ~std::uint64_t{0}};
  std::uint64_t power = 1;
  for (int k = 1; k <= 19; ++k) {
    power *= 10;
    words.push_back(power - 1);
    words.push_back(power);
  }
  for (const std::uint64_t edge :
       {std::uint64_t{1} << 32, std::uint64_t{100'000'000},
        std::uint64_t{10'000'000'000'000'000}}) {
    for (std::uint64_t w = edge - 3; w <= edge + 3; ++w) words.push_back(w);
  }
  Mt19937_64 draw(0xc4a1);
  std::uint64_t low = 0;
  std::uint64_t high = 9;
  for (int digits = 1; digits <= 20; ++digits) {
    std::uniform_int_distribution<std::uint64_t> in_length(low, high);
    for (int i = 0; i < 10'000; ++i) words.push_back(in_length(draw));
    low = digits == 1 ? 10 : low * 10;
    high = digits == 19 ? ~std::uint64_t{0} : high * 10 + 9;
  }

  // 312 state words per engine, then an index that walks 0..312.
  const std::size_t state = Mt19937_64::kStateSize;
  for (std::size_t first = 0, index = 0; first < words.size();
       first += state, index = (index + 97) % (state + 1)) {
    std::string text;
    for (std::size_t i = 0; i < state; ++i) {
      text.append(std::to_string(words[(first + i) % words.size()]));
      text.push_back(' ');
    }
    text.append(std::to_string(index));
    Mt19937_64 engine;
    serial::ParseEngineText(text, &engine);
    ASSERT_EQ(serial::EngineText(engine), StreamText(engine)) << first;
    ASSERT_EQ(serial::EngineText(engine), text) << first;
  }
}

TEST(EngineCodecTest, NonCanonicalTextsAreSerialErrors) {
  Mt19937_64 engine(7);
  for (int i = 0; i < 5; ++i) engine();
  const std::string text = serial::EngineText(engine);
  const std::size_t first_space = text.find(' ');
  const std::size_t last_space = text.rfind(' ');
  ASSERT_EQ(text.substr(last_space + 1), "5");

  std::string doubled = text;
  doubled.insert(first_space, " ");
  ExpectRejected(doubled, "double space");
  ExpectRejected("+" + text, "leading plus");
  ExpectRejected("-" + text, "leading minus");
  std::string signed_word = text;
  signed_word.insert(first_space + 1, "+");
  ExpectRejected(signed_word, "plus inside");
  ExpectRejected(text.substr(first_space + 1), "312 words");
  ExpectRejected("1 " + text, "314 words");
  ExpectRejected(text.substr(0, last_space + 1) + "313", "index 313");
  ExpectRejected(text.substr(0, last_space + 1) + "18446744073709551616",
                 "index overflows 64 bits");
  ExpectRejected(text.substr(0, last_space + 1) + "05", "leading zero");
  ExpectRejected(text + " ", "trailing space");
  ExpectRejected(text + "\n", "trailing newline");
  ExpectRejected(text + std::string(1, '\0'), "trailing NUL");
  ExpectRejected(" " + text, "leading space");
  ExpectRejected("", "empty");

  // The canonical boundary values load.
  Mt19937_64 decoded;
  serial::ParseEngineText(text.substr(0, last_space + 1) + "312", &decoded);
  serial::ParseEngineText(text.substr(0, last_space + 1) + "0", &decoded);
  EXPECT_EQ(serial::EngineText(decoded), text.substr(0, last_space + 1) + "0");
}

TEST(EngineCodecTest, EveryTruncationAndByteFlipOfAnArchiveTextIsSafe) {
  // A format 4 archive with a text RNG record: the continuation of a v3
  // DMT, whose generator loaded uncounted and so keeps the text form.
  const std::string archive = ReadFileBytes(
      std::string(DMT_SOURCE_DIR) +
      "/bench/goldens/compat/DMT_v3_continued.dmts");
  ASSERT_FALSE(archive.empty());
  ASSERT_EQ(archive[4], 4);
  const auto [offset, length] = EngineTextSpan(archive);
  ASSERT_GT(length, 5000u);
  ASSERT_EQ(archive[offset - 9],
            static_cast<char>(serial::RngForm::kText));
  const std::string text = archive.substr(offset, length);
  {
    Mt19937_64 engine;
    serial::ParseEngineText(text, &engine);
    ASSERT_EQ(StreamText(engine), text);
  }

  // Every prefix of the text, with the length prefix rewritten to match,
  // and every cut of the archive inside the text.
  const std::string head = archive.substr(0, offset - 8);
  const std::string tail = archive.substr(offset + length);
  for (std::size_t n = 0; n < length; ++n) {
    SCOPED_TRACE(n);
    const std::string prefix = text.substr(0, n);
    ExpectRejectedOrCanonical(prefix);
    std::ostringstream edited;
    edited << head;
    serial::Writer(edited).Str(prefix);
    edited << tail;
    try {
      serial::LoadClassifierFromString(edited.str());
    } catch (const serial::SerialError&) {
    }
    EXPECT_THROW(serial::LoadClassifierFromString(archive.substr(0, offset + n)),
                 serial::SerialError);
  }

  // Every single-bit flip of every text byte; the archive holding the
  // flipped text decodes or throws SerialError.
  for (std::size_t i = 0; i < length; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      SCOPED_TRACE(testing::Message() << "byte " << i << " bit " << bit);
      ExpectRejectedOrCanonical(flipped);
      if (bit == 0) {
        std::string edited = archive;
        edited[offset + i] = flipped[i];
        try {
          serial::LoadClassifierFromString(edited);
        } catch (const serial::SerialError&) {
        }
      }
    }
  }
}

// --- The RNG record: (seed, draws) or text ----------------------------------

// The record of an Rng or a ParkedRng.
template <typename Generator>
std::string RecordOf(const Generator& rng) {
  std::ostringstream out(std::ios::binary);
  serial::Writer(out).Rng(rng);
  return out.str();
}

// Decodes `record` as a format-`version` reader would, into a Generator
// (an Rng or a ParkedRng).
template <typename Generator = Rng>
Generator FromRecord(const std::string& record, std::uint32_t version = 4) {
  std::ostringstream framed(std::ios::binary);
  serial::Writer writer(framed);
  writer.U32(serial::kMagic);
  writer.U32(version);
  writer.U32(serial::FourCC('T', 'E', 'S', 'T'));
  framed << record;
  std::istringstream in(framed.str(), std::ios::binary);
  serial::Reader reader(in);
  reader.Header();
  Generator rng;
  reader.Rng(&rng);
  EXPECT_EQ(in.peek(), std::char_traits<char>::eof());
  return rng;
}

// One way of drawing from an Rng; returns what it drew, as bits.
using Draw = std::function<std::uint64_t(Rng&)>;

std::vector<std::pair<const char*, Draw>> EveryDraw() {
  return {
      {"word", [](Rng& r) { return r(); }},
      {"Uniform",
       [](Rng& r) { return std::bit_cast<std::uint64_t>(r.Uniform(-1, 3)); }},
      {"UniformInt",
       [](Rng& r) { return static_cast<std::uint64_t>(r.UniformInt(0, 9)); }},
      {"Gaussian",
       [](Rng& r) { return std::bit_cast<std::uint64_t>(r.Gaussian(0, 2)); }},
      {"Poisson",
       [](Rng& r) { return static_cast<std::uint64_t>(r.Poisson(6.0)); }},
      {"Bernoulli",
       [](Rng& r) { return static_cast<std::uint64_t>(r.Bernoulli(0.3)); }},
      {"Categorical",
       [](Rng& r) {
         return static_cast<std::uint64_t>(r.Categorical({0.5, 2.0, 1.0}));
       }},
      {"Fork", [](Rng& r) { return r.Fork()(); }},
      {"shuffle",
       [](Rng& r) {
         std::vector<int> v(17);
         std::iota(v.begin(), v.end(), 0);
         std::shuffle(v.begin(), v.end(), r);
         std::uint64_t h = 0;
         for (const int x : v) h = h * 31 + static_cast<std::uint64_t>(x);
         return h;
       }},
  };
}

TEST(RngRecordTest, CountedFormRebuildsTheLiveEngineAtEveryEdge) {
  // Around each twist of the 312-word state, and at the bound: up to 2^20
  // draws the record is (seed, draws); one more and it is the text.
  const std::uint64_t bound = serial::kMaxRngDraws;
  for (const auto& [name, draw] : EveryDraw()) {
    SCOPED_TRACE(name);
    for (const std::uint64_t target :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{311},
          std::uint64_t{312}, std::uint64_t{313}, std::uint64_t{623},
          std::uint64_t{624}, std::uint64_t{625}, bound, bound + 1}) {
      SCOPED_TRACE(target);
      Rng live(0xfeed);
      // Reach the target through this draw (for its first few thousand
      // words), then word by word: every word the draw takes must be
      // counted, or the rebuilt engine differs.
      while (live.draws() + 64 < std::min<std::uint64_t>(target, 4096)) {
        draw(live);
      }
      while (live.draws() < target) live();
      ASSERT_EQ(live.draws(), target);

      const std::string record = RecordOf(live);
      const bool counted = target <= bound;
      ASSERT_EQ(record[0], static_cast<char>(counted
                                                 ? serial::RngForm::kCounted
                                                 : serial::RngForm::kText));
      if (counted) {
        ASSERT_EQ(record.size(), 17u);
      }
      Rng restored = FromRecord(record);
      EXPECT_EQ(restored.counted(), counted);
      ASSERT_TRUE(restored.engine() == live.engine());
      EXPECT_EQ(RecordOf(restored), record);
      for (int i = 0; i < 3; ++i) ASSERT_EQ(draw(restored), draw(live));
      ASSERT_TRUE(restored.engine() == live.engine());
    }
  }
}

TEST(RngRecordTest, HostileRecordsAreSerialErrorsAtOnce) {
  Rng rng(5);
  for (int i = 0; i < 40; ++i) rng();
  const std::string counted = RecordOf(rng);
  ASSERT_EQ(counted.size(), 17u);

  // Draws above the bound: rejected before any discard runs.
  std::string over_bound = counted;
  const std::uint64_t draws[] = {serial::kMaxRngDraws + 1,
                                 ~std::uint64_t{0}};
  for (const std::uint64_t d : draws) {
    for (int i = 0; i < 8; ++i) {
      over_bound[9 + i] = static_cast<char>(d >> (8 * i));
    }
    EXPECT_THROW(FromRecord(over_bound), serial::SerialError) << d;
  }
  // An unknown form.
  for (const int form : {2, 3, 0x80, 0xff}) {
    std::string unknown = counted;
    unknown[0] = static_cast<char>(form);
    EXPECT_THROW(FromRecord(unknown), serial::SerialError) << form;
  }
  // Every truncation of a counted and of a text record.
  Rng text_rng;
  text_rng.Restore(rng.engine());
  const std::string text = RecordOf(text_rng);
  ASSERT_EQ(text[0], static_cast<char>(serial::RngForm::kText));
  for (const std::string& record : {counted, text}) {
    for (std::size_t n = 0; n < record.size(); ++n) {
      EXPECT_THROW(FromRecord(record.substr(0, n)), serial::SerialError) << n;
    }
  }
}

TEST(RngRecordTest, AVersion3GeneratorKeepsWritingText) {
  // Format 3 stored a bare length-prefixed EngineText; such a generator
  // has no known seed, so it stays uncounted however long it continues.
  Mt19937_64 engine(77);
  for (int i = 0; i < 1000; ++i) engine();
  std::ostringstream v3(std::ios::binary);
  serial::Writer(v3).Str(serial::EngineText(engine));
  Rng rng = FromRecord(v3.str(), 3);
  EXPECT_FALSE(rng.counted());
  ASSERT_TRUE(rng.engine() == engine);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(rng(), engine());
  std::ostringstream expected(std::ios::binary);
  serial::Writer expected_writer(expected);
  expected_writer.U8(static_cast<std::uint8_t>(serial::RngForm::kText));
  expected_writer.Str(serial::EngineText(engine));
  EXPECT_EQ(RecordOf(rng), expected.str());
}

TEST(RngRecordTest, ServeSizedDmtArchivesInUnder512Bytes) {
  // The shape of a serve stream: 4 features, 2 classes, a few dozen
  // one-row batches. Its generator is 17 bytes of the archive.
  core::DynamicModelTree tree({.num_features = 4, .num_classes = 2});
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    Batch batch(4);
    std::vector<double> x(4);
    for (double& v : x) v = rng.Uniform();
    batch.Add(x, x[0] + x[1] > 1.0 ? 1 : 0);
    tree.PartialFit(batch);
  }
  std::ostringstream out(std::ios::binary);
  tree.Save(out);
  const std::string archive = out.str();
  EXPECT_LT(archive.size(), 512u);
  ASSERT_GE(archive.size(), 17u);
  EXPECT_EQ(archive[archive.size() - 17],
            static_cast<char>(serial::RngForm::kCounted));
}

// --- ParkedRng: a generator held as (seed, draws) between draws -----------

TEST(ParkedRngTest, BurstsDrawTheWordsOfOneRng) {
  // Unpark, a burst of draws, park, over and over: through every kind of
  // draw and across twists, the words are those of one continuous Rng,
  // and the parked state is the seed and the words drawn so far.
  for (const auto& [name, draw] : EveryDraw()) {
    SCOPED_TRACE(name);
    Rng live(0xbeef);
    ParkedRng parked(0xbeef);
    for (int burst = 0; burst < 60; ++burst) {
      SCOPED_TRACE(burst);
      Rng rng = parked.Unpark();
      ASSERT_TRUE(rng.counted());
      ASSERT_TRUE(rng.engine() == live.engine());
      for (int i = 0; i < burst + burst % 7; ++i) {
        ASSERT_EQ(draw(rng), draw(live));
      }
      parked.Park(rng);
      ASSERT_TRUE(parked.counted());
      ASSERT_EQ(parked.engine(), nullptr);
      ASSERT_EQ(parked.seed(), 0xbeefu);
      ASSERT_EQ(parked.draws(), live.draws());
    }
    EXPECT_GT(live.draws(), 2 * Mt19937_64::kStateSize);
  }
}

TEST(ParkedRngTest, BothCodecOverloadsWriteTheSameBytes) {
  // A parked generator writes the record its live Rng writes: (seed,
  // draws) up to the bound, the text one word past it, where it parks the
  // engine instead. Read back into a ParkedRng, the record writes itself
  // again and unparks to the live engine.
  const std::uint64_t bound = serial::kMaxRngDraws;
  for (const std::uint64_t target :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{311},
        std::uint64_t{312}, std::uint64_t{313}, bound, bound + 1}) {
    SCOPED_TRACE(target);
    Rng live(0xfeed);
    while (live.draws() < target) live();
    ParkedRng parked;
    parked.Park(live);
    const bool counted = target <= bound;
    EXPECT_EQ(parked.counted(), counted);
    const std::string record = RecordOf(live);
    ASSERT_EQ(record[0], static_cast<char>(counted
                                               ? serial::RngForm::kCounted
                                               : serial::RngForm::kText));
    EXPECT_EQ(RecordOf(parked), record);

    const ParkedRng read = FromRecord<ParkedRng>(record);
    EXPECT_EQ(read.counted(), counted);
    EXPECT_EQ(RecordOf(read), record);
    Rng restored = read.Unpark();
    ASSERT_TRUE(restored.engine() == live.engine());
    for (int i = 0; i < 3; ++i) ASSERT_EQ(restored(), live());
  }
}

TEST(ParkedRngTest, AnUncountedV3EngineContinuesToThePinnedRecord) {
  // The DMT of a format 3 archive holds its generator as bare text, so it
  // parks uncounted. Drawn a word per burst, the parked engine reaches the
  // generator of the pinned continuation and writes its record byte for
  // byte, still as text; from there its bursts draw the words of one
  // uncounted Rng and it keeps writing that Rng's record.
  const std::string compat =
      std::string(DMT_SOURCE_DIR) + "/bench/goldens/compat/";
  const std::string v3 = ReadFileBytes(compat + "DMT_v3.dmts");
  const std::string continued = ReadFileBytes(compat + "DMT_v3_continued.dmts");
  ASSERT_EQ(v3[4], 3);
  ASSERT_EQ(continued[4], 4);
  const auto [v3_offset, v3_length] = EngineTextSpan(v3);
  ASSERT_GT(v3_length, 5000u);
  ParkedRng parked =
      FromRecord<ParkedRng>(v3.substr(v3_offset - 8, v3_length + 8), 3);
  ASSERT_FALSE(parked.counted());

  const auto [offset, length] = EngineTextSpan(continued);
  ASSERT_GT(length, 5000u);
  const std::string pinned = continued.substr(offset - 9, length + 9);
  ASSERT_EQ(pinned[0], static_cast<char>(serial::RngForm::kText));
  Mt19937_64 target;
  serial::ParseEngineText(continued.substr(offset, length), &target);

  std::uint64_t words = 0;
  while (!(*parked.engine() == target)) {
    ASSERT_LT(words, std::uint64_t{1} << 16);
    Rng rng = parked.Unpark();
    ASSERT_FALSE(rng.counted());
    rng();
    parked.Park(rng);
    ASSERT_FALSE(parked.counted());
    ++words;
  }
  EXPECT_EQ(RecordOf(parked), pinned);

  Rng live = parked.Unpark();
  for (int burst = 0; burst < 40; ++burst) {
    Rng rng = parked.Unpark();
    for (int i = 0; i < 3 * burst; ++i) ASSERT_EQ(rng(), live());
    parked.Park(rng);
    ASSERT_FALSE(parked.counted());
  }
  EXPECT_GT(live.draws(), Mt19937_64::kStateSize);
  EXPECT_EQ(RecordOf(parked), RecordOf(live));
}

TEST(ParkedRngTest, CopyAndMoveKeepTheHeapEngine) {
  Mt19937_64 engine(77);
  for (int i = 0; i < 1000; ++i) engine();
  ParkedRng parked;
  parked.Restore(engine);
  ASSERT_FALSE(parked.counted());

  ParkedRng copy(parked);
  ASSERT_FALSE(copy.counted());
  EXPECT_NE(copy.engine(), parked.engine());
  EXPECT_TRUE(*copy.engine() == engine);
  ParkedRng assigned(5);
  assigned = parked;
  ASSERT_FALSE(assigned.counted());
  EXPECT_TRUE(*assigned.engine() == engine);
  const ParkedRng& alias = assigned;
  assigned = alias;
  ASSERT_FALSE(assigned.counted());
  EXPECT_TRUE(*assigned.engine() == engine);

  // A copy draws on its own engine.
  Rng rng = copy.Unpark();
  rng();
  copy.Park(rng);
  EXPECT_FALSE(*copy.engine() == engine);
  EXPECT_TRUE(*parked.engine() == engine);

  const Mt19937_64* heap = parked.engine();
  ParkedRng moved(std::move(parked));
  EXPECT_EQ(moved.engine(), heap);
  ParkedRng move_assigned(9);
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.engine(), heap);
  EXPECT_EQ(RecordOf(move_assigned), RecordOf(assigned));

  // A counted generator copies as its seed and draw count; assigning one
  // drops the engine.
  ParkedRng counted(11);
  Rng drawn = counted.Unpark();
  for (int i = 0; i < 5; ++i) drawn();
  counted.Park(drawn);
  assigned = counted;
  EXPECT_TRUE(assigned.counted());
  EXPECT_EQ(assigned.engine(), nullptr);
  EXPECT_EQ(RecordOf(assigned), RecordOf(drawn));
}

TEST(ParkedRngTest, ModelTreesHoldNoEngine) {
  // Every resident serve stream holds one tree; the 2.5 kB engine of an
  // Rng would be most of it. Deterministic: the objects' own sizes, not
  // what the allocator or the process reports.
  EXPECT_LE(sizeof(ParkedRng), 24u);
  EXPECT_LE(sizeof(core::DynamicModelTree), 512u);
  EXPECT_LE(sizeof(core::DmtRegressor), 512u);
  EXPECT_LE(sizeof(trees::FimtDd), 512u);
  EXPECT_LE(sizeof(trees::FimtDdRegressor), 512u);
}

}  // namespace
}  // namespace dmt
