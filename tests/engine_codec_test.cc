// Tests for dmt::Mt19937_64 (common/random.h) and its state codec in
// serial/archive (EngineText, ParseEngineText, Writer::Engine,
// Reader::Engine). std::mt19937_64 is the reference: the engine must draw
// the same words from every seed and the same values through every std::
// distribution and std::shuffle, and its text must be exactly what
// libstdc++'s operator<< writes for the equal std engine. The decoder must
// restore an equal engine and accept nothing but that canonical text: any
// other input -- a truncation, a byte flip, a sign, a doubled space, a
// wrong word count, an index past 312, trailing bytes -- is a SerialError
// or an engine whose own text is the input, never a crash or another
// exception.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/serial/archive.h"
#include "dmt/serial/model_io.h"

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

    std::ostringstream out;
    serial::Writer writer(out);
    writer.Engine(engine);
    std::ostringstream oracle;
    serial::Writer oracle_writer(oracle);
    oracle_writer.Str(expected);
    ASSERT_EQ(out.str(), oracle.str());

    std::istringstream in(out.str());
    serial::Reader reader(in);
    Mt19937_64 decoded;
    reader.Engine(&decoded);
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
  const std::string archive =
      ReadFileBytes(std::string(DMT_SOURCE_DIR) + "/bench/goldens/DMT.dmts");
  ASSERT_FALSE(archive.empty());
  const auto [offset, length] = EngineTextSpan(archive);
  ASSERT_GT(length, 5000u);
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

}  // namespace
}  // namespace dmt
