#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/streams/csv_stream.h"

namespace dmt::streams {
namespace {

class CsvStreamTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs each case as its own process, so a
  // shared name would let parallel cases overwrite each other's input.
  void WriteFile(const std::string& content) {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = test->name();
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized
    path_ = ::testing::TempDir();
    path_.append("csv_stream_test_").append(name).append(".csv");
    std::ofstream out(path_);
    out << content;
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(CsvStreamTest, ReadsNumericRowsWithHeader) {
  WriteFile("a,b,label\n1.5,2.5,0\n3.0,4.0,1\n");
  CsvStream stream({.path = path_, .label_column = "label"});
  EXPECT_EQ(stream.num_features(), 2u);
  EXPECT_EQ(stream.num_classes(), 2u);
  Instance instance;
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_DOUBLE_EQ(instance.x[0], 1.5);
  EXPECT_DOUBLE_EQ(instance.x[1], 2.5);
  EXPECT_EQ(instance.y, 0);
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_EQ(instance.y, 1);
  EXPECT_FALSE(stream.NextInstance(&instance));
}

TEST_F(CsvStreamTest, LabelColumnInMiddle) {
  WriteFile("a,label,b\n1,x,2\n3,y,4\n5,x,6\n");
  CsvStream stream({.path = path_, .label_column = "label"});
  EXPECT_EQ(stream.num_features(), 2u);
  Instance instance;
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_DOUBLE_EQ(instance.x[0], 1.0);
  EXPECT_DOUBLE_EQ(instance.x[1], 2.0);
  EXPECT_EQ(instance.y, 0);  // "x" first seen
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_EQ(instance.y, 1);  // "y"
}

TEST_F(CsvStreamTest, FactorizesStringFeatures) {
  WriteFile("color,label\nred,0\ngreen,1\nred,0\nblue,1\n");
  CsvStream stream({.path = path_, .label_column = "label"});
  Instance instance;
  stream.NextInstance(&instance);
  EXPECT_DOUBLE_EQ(instance.x[0], 0.0);  // red
  stream.NextInstance(&instance);
  EXPECT_DOUBLE_EQ(instance.x[0], 1.0);  // green
  stream.NextInstance(&instance);
  EXPECT_DOUBLE_EQ(instance.x[0], 0.0);  // red again
  stream.NextInstance(&instance);
  EXPECT_DOUBLE_EQ(instance.x[0], 2.0);  // blue
}

TEST_F(CsvStreamTest, StringLabelsAreFactorized) {
  WriteFile("a,class\n1,neg\n2,pos\n3,neg\n");
  CsvStream stream({.path = path_, .label_column = "class"});
  const std::vector<std::string> names = stream.class_names();
  ASSERT_EQ(names.size(), 2u);
  Instance instance;
  stream.NextInstance(&instance);
  // Classes are enumerated by scan order of first appearance... the scan
  // uses a sorted map keyed by string; the index mapping must round-trip.
  stream.NextInstance(&instance);
  EXPECT_EQ(names[instance.y], "pos");
}

TEST_F(CsvStreamTest, DefaultLabelIsLastColumn) {
  WriteFile("a,b,c\n1,2,0\n3,4,1\n");
  CsvStream stream({.path = path_});
  EXPECT_EQ(stream.num_features(), 2u);
  EXPECT_EQ(stream.feature_names()[0], "a");
  EXPECT_EQ(stream.feature_names()[1], "b");
}

TEST_F(CsvStreamTest, SkipsEmptyLines) {
  WriteFile("a,label\n1,0\n\n2,1\n\n");
  CsvStream stream({.path = path_});
  Instance instance;
  int count = 0;
  while (stream.NextInstance(&instance)) ++count;
  EXPECT_EQ(count, 2);
}

TEST_F(CsvStreamTest, HandlesQuotedCellsAndWhitespace) {
  WriteFile("a,label\n \"1.5\" ,\"0\"\n2.5, 1 \n");
  CsvStream stream({.path = path_});
  Instance instance;
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_DOUBLE_EQ(instance.x[0], 1.5);
}

// Regression: SplitLine used to drop a trailing empty field ("3,1," parsed
// as 2 cells), so a row with a missing last value died with a bogus
// "inconsistent column count" instead of parsing.
TEST_F(CsvStreamTest, KeepsTrailingEmptyField) {
  WriteFile("a,label,b\n1,0,2\n3,1,\n");
  CsvStream stream({.path = path_, .label_column = "label"});
  Instance instance;
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_DOUBLE_EQ(instance.x[1], 2.0);
  ASSERT_TRUE(stream.NextInstance(&instance));
  // The empty cell is kept and factorized like any categorical string.
  EXPECT_DOUBLE_EQ(instance.x[1], 0.0);
  EXPECT_EQ(instance.y, 1);
  EXPECT_FALSE(stream.NextInstance(&instance));
}

// Regression: malformed input used to std::abort the whole process; it must
// throw CsvError so a sweep can fail one cell and move on.
TEST_F(CsvStreamTest, ThrowsCsvErrorOnInconsistentColumns) {
  WriteFile("a,b,label\n1,2,0\n3,4,1\n5,6\n");
  EXPECT_THROW(CsvStream({.path = path_, .label_column = "label"}), CsvError);
}

TEST_F(CsvStreamTest, ThrowsCsvErrorOnUnseenLabel) {
  WriteFile("a,label\n1,x\n2,y\n3,z\n");
  // With num_classes preset the upfront class scan is skipped, so the
  // third label overflows the class table mid-stream.
  CsvStream stream({.path = path_, .num_classes = 2});
  Instance instance;
  ASSERT_TRUE(stream.NextInstance(&instance));
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_THROW(stream.NextInstance(&instance), CsvError);
}

TEST_F(CsvStreamTest, CsvErrorMessageNamesFileAndLine) {
  WriteFile("a,label\n1,0\n2,1\nbroken\n");
  try {
    CsvStream stream({.path = path_});
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_NE(std::string(e.what()).find(path_), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(":4"), std::string::npos);
  }
}

TEST_F(CsvStreamTest, NoHeaderMode) {
  WriteFile("1,2,0\n3,4,1\n");
  CsvStream stream({.path = path_, .has_header = false});
  EXPECT_EQ(stream.num_features(), 2u);
  Instance instance;
  int count = 0;
  while (stream.NextInstance(&instance)) ++count;
  EXPECT_EQ(count, 2);
}

// ---- Robustness suite (DESIGN.md Sec. 8): malformed input must always
// ---- surface as CsvError, never as a crash or a silently-wrong value.

// An embedded NUL would make strtod stop early ("1.5\0junk" -> 1.5), so it
// is rejected outright rather than half-parsed.
TEST_F(CsvStreamTest, ThrowsCsvErrorOnEmbeddedNul) {
  WriteFile(std::string("a,label\n1,0\n2,1\n3") + '\0' + "junk,0\n");
  // With the class count preset the constructor's scan pass is skipped and
  // the NUL is hit mid-stream.
  CsvStream stream({.path = path_, .num_classes = 2});
  Instance instance;
  ASSERT_TRUE(stream.NextInstance(&instance));
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_THROW(stream.NextInstance(&instance), CsvError);
}

TEST_F(CsvStreamTest, ConstructorScanRejectsEmbeddedNul) {
  WriteFile(std::string("a,label\n1,0\n2") + '\0' + ",1\n");
  EXPECT_THROW(CsvStream({.path = path_}), CsvError);
}

TEST_F(CsvStreamTest, ThrowsCsvErrorOnOversizedLine) {
  // 2 MiB of digits in one field: past the 1 MiB line cap.
  const std::string huge(2 * 1024 * 1024, '7');
  WriteFile("a,label\n1,0\n2,1\n" + huge + ",0\n");
  CsvStream stream({.path = path_, .num_classes = 2});
  Instance instance;
  ASSERT_TRUE(stream.NextInstance(&instance));
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_THROW(stream.NextInstance(&instance), CsvError);
}

// A file that ends mid-row (no trailing newline, missing columns) must
// throw, not feed a short row into the models.
TEST_F(CsvStreamTest, ThrowsCsvErrorOnMidRowEof) {
  WriteFile("a,b,label\n1,2,0\n3,4,1\n5,6");  // EOF inside the last row
  CsvStream stream({.path = path_, .num_classes = 2});
  Instance instance;
  ASSERT_TRUE(stream.NextInstance(&instance));
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_THROW(stream.NextInstance(&instance), CsvError);
}

// After a caught error the stream position is consistent: the bad line is
// consumed, so a catch-and-continue caller resumes at the next good row.
TEST_F(CsvStreamTest, PositionConsistentAfterCaughtError) {
  WriteFile("a,label\n1,0\nbroken_row_with,too,many,cells\n4,1\n5,0\n");
  CsvStream stream({.path = path_, .num_classes = 2});
  Instance instance;
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_DOUBLE_EQ(instance.x[0], 1.0);
  EXPECT_THROW(stream.NextInstance(&instance), CsvError);
  // The next call must yield row 4, not re-throw on the same bad line.
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_DOUBLE_EQ(instance.x[0], 4.0);
  ASSERT_TRUE(stream.NextInstance(&instance));
  EXPECT_DOUBLE_EQ(instance.x[0], 5.0);
  EXPECT_FALSE(stream.NextInstance(&instance));
}

// Reads the whole file behind `config`, catching and skipping bad rows:
// construction or a row may throw CsvError; every row that does come back
// must be well formed. Any other exception escapes and fails the test.
void ExpectCsvErrorOrWellFormedRows(const CsvStreamConfig& config,
                                    const std::string& content) {
  std::unique_ptr<CsvStream> stream;
  try {
    stream = std::make_unique<CsvStream>(config);
  } catch (const CsvError&) {
    return;
  }
  Instance instance;
  // A caught row error consumes its line, so the walk ends after at most
  // one call per line plus the final end-of-file call.
  for (std::size_t calls = 0; calls <= content.size() + 1; ++calls) {
    try {
      if (!stream->NextInstance(&instance)) return;
    } catch (const CsvError&) {
      continue;
    }
    ASSERT_EQ(instance.x.size(), stream->num_features())
        << ::testing::PrintToString(content);
    ASSERT_GE(instance.y, 0) << ::testing::PrintToString(content);
    ASSERT_LT(static_cast<std::size_t>(instance.y), stream->num_classes())
        << ::testing::PrintToString(content);
  }
  ADD_FAILURE() << "no end of file: " << ::testing::PrintToString(content);
}

// The three ways the fuzz below opens each input: label by header name,
// no header, and a preset class count.
enum class FuzzConfig { kLabelByName, kNoHeader, kPresetClassCount };

CsvStreamConfig MakeFuzzConfig(FuzzConfig config, const std::string& path) {
  switch (config) {
    case FuzzConfig::kLabelByName:
      return {.path = path, .label_column = "label"};
    case FuzzConfig::kNoHeader:
      return {.path = path, .has_header = false};
    case FuzzConfig::kPresetClassCount:
      return {.path = path, .num_classes = 3};
  }
  return {.path = path};
}

class CsvStreamFuzzTest : public CsvStreamTest,
                          public ::testing::WithParamInterface<FuzzConfig> {
};

// Every truncation point, every single-bit flip and a set of grammar-byte
// substitutions of a small corpus (header, quoted cells, a CRLF row, empty
// cells, nan/inf/hex values), each read under one configuration.
TEST_P(CsvStreamFuzzTest, TruncationsAndByteFlipsOnlyThrowCsvError) {
  const std::vector<std::string> corpus = {
      "a,\"b\",label,c\n"
      "1.5,\"2\",yes,0x1p-3\r\n"
      ",nan,no,-inf\n"
      " 3 ,4e1,yes,1e400\n",
      "x,label\n0x10,\"u\"\n,v\n",
  };
  const std::string alphabet = std::string(",\"\r\n .-0eExn") + '\0';
  std::size_t inputs = 0;
  const auto check = [&](const std::string& content) {
    WriteFile(content);
    ExpectCsvErrorOrWellFormedRows(MakeFuzzConfig(GetParam(), path_),
                                   content);
    ++inputs;
  };
  for (const std::string& text : corpus) {
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
      check(text.substr(0, cut));
    }
    for (std::size_t i = 0; i < text.size(); ++i) {
      std::string mutated = text;
      for (int bit = 0; bit < 8; ++bit) {
        mutated[i] = static_cast<char>(text[i] ^ (1 << bit));
        check(mutated);
      }
      for (const char c : alphabet) {
        mutated[i] = c;
        check(mutated);
      }
    }
  }
  EXPECT_GT(inputs, 1500u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CsvStreamFuzzTest,
    ::testing::Values(FuzzConfig::kLabelByName, FuzzConfig::kNoHeader,
                      FuzzConfig::kPresetClassCount),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      switch (info.param) {
        case FuzzConfig::kLabelByName:
          return std::string("LabelByName");
        case FuzzConfig::kNoHeader:
          return std::string("NoHeader");
        case FuzzConfig::kPresetClassCount:
          return std::string("PresetClassCount");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace dmt::streams
