#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/spec.h"
#include "src/util/status.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/util/units.h"

namespace harmony {
namespace {

TEST(UnitsTest, FormatBytesBinary) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(kKiB), "1 KiB");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(kMiB), "1 MiB");
  EXPECT_EQ(FormatBytes(11 * kGiB), "11 GiB");
}

TEST(UnitsTest, FormatBytesDecimal) {
  EXPECT_EQ(FormatBytesDecimal(1e9), "1 GB");
  EXPECT_EQ(FormatBytesDecimal(12.8e9), "12.8 GB");
  EXPECT_EQ(FormatBytesDecimal(450e6), "450 MB");
}

TEST(UnitsTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(2.0), "2 s");
  EXPECT_EQ(FormatSeconds(0.25), "250 ms");
  EXPECT_EQ(FormatSeconds(12e-6), "12 us");
  EXPECT_EQ(FormatSeconds(3.5e-9), "3.50 ns");
}

TEST(UnitsTest, FormatBandwidth) { EXPECT_EQ(FormatBandwidth(GBps(12.8)), "12.8 GB/s"); }

TEST(UnitsTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567890), "1,234,567,890");
  EXPECT_EQ(FormatCount(-1234), "-1,234");
}

TEST(UnitsTest, Presets) {
  EXPECT_DOUBLE_EQ(TFlops(11.3), 11.3e12);
  EXPECT_DOUBLE_EQ(GBps(1.0), 1e9);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorRendering) {
  const Status s = InvalidArgumentError("bad microbatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad microbatch");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition), "FAILED_PRECONDITION");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, ReturnIfErrorMacro) {
  auto fails = [] { return InternalError("boom"); };
  auto wrapper = [&]() -> Status {
    HARMONY_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(CheckTest, PassingCheckDoesNothing) {
  HCHECK(true) << "never printed";
  HCHECK_EQ(1, 1);
  HCHECK_LT(1, 2);
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH({ HCHECK(false) << "expected failure"; }, "expected failure");
  EXPECT_DEATH({ HCHECK_EQ(1, 2); }, "1 == 2");
}

TEST(TableTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.Row().Cell("alpha").Cell(1);
  table.Row().Cell("b").Cell(12345);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name   value"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TableTest, DoubleFormatting) {
  TablePrinter table({"x", "y"});
  table.Row().Cell("pi").Cell(3.14159, 3);
  EXPECT_NE(table.ToString().find("3.142"), std::string::npos);
}

TEST(CsvTest, QuotesCommasAndQuotes) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.WriteRow({"a", "b,c", "d\"e"});
  EXPECT_EQ(os.str(), "a,\"b,c\",\"d\"\"e\"\n");
}

// ---- \u escape handling: UTF-16 surrogate pairs ----------------------------------------------

TEST(JsonStringTest, SurrogatePairCombinesToSupplementaryCodePoint) {
  // \ud83d\ude00 is the UTF-16 encoding of U+1F600 (😀); the parser must combine the pair
  // and emit 4-byte UTF-8, not pass the surrogates through as two 3-byte sequences.
  const StatusOr<JsonValue> parsed = ParseJson("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonStringTest, SurrogatePairAtPlaneBoundaryRoundTrips) {
  // U+10000, the first supplementary code point: \ud800\udc00.
  const StatusOr<JsonValue> parsed = ParseJson("\"\\ud800\\udc00\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().as_string(), "\xF0\x90\x80\x80");
  // And the last one, U+10FFFF: \udbff\udfff.
  const StatusOr<JsonValue> last = ParseJson("\"\\udbff\\udfff\"");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().as_string(), "\xF4\x8F\xBF\xBF");
}

TEST(JsonStringTest, LoneHighSurrogateIsParseErrorWithOffset) {
  const StatusOr<JsonValue> parsed = ParseJson("\"\\ud83d\"");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("high surrogate"), std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonStringTest, LoneLowSurrogateIsParseErrorWithOffset) {
  const StatusOr<JsonValue> parsed = ParseJson("\"\\ude00\"");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("low surrogate"), std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonStringTest, PairSplitAcrossEscapesIsParseError) {
  // High surrogate followed by a non-surrogate escape: the pair never completes.
  const StatusOr<JsonValue> wrong_second = ParseJson("\"\\ud83d\\u0041\"");
  ASSERT_FALSE(wrong_second.ok());
  EXPECT_NE(wrong_second.status().message().find("surrogate"), std::string::npos);
  // High surrogate followed by a plain character instead of an escape.
  const StatusOr<JsonValue> split = ParseJson("\"\\ud83dX\\ude00\"");
  ASSERT_FALSE(split.ok());
  EXPECT_NE(split.status().message().find("high surrogate"), std::string::npos);
  // High surrogate followed by a non-\u escape.
  const StatusOr<JsonValue> wrong_escape = ParseJson("\"\\ud83d\\n\\ude00\"");
  ASSERT_FALSE(wrong_escape.ok());
}

TEST(JsonStringTest, BmpEscapesStillDecode) {
  const StatusOr<JsonValue> parsed = ParseJson("\"\\u00e9\\u4e2d\"");  // é中
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonStringTest, QuoteRoundTripsEveryAsciiByte) {
  std::string all;
  for (int byte = 0x01; byte <= 0x7f; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    const StatusOr<JsonValue> parsed = ParseJson(JsonQuote(one));
    ASSERT_TRUE(parsed.ok()) << "byte " << byte << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed.value().as_string(), one) << "byte " << byte;
    all += one;
  }
  const StatusOr<JsonValue> parsed = ParseJson(JsonQuote(all));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().as_string(), all);
  EXPECT_EQ(JsonQuote("a\"b\\c\nd\x01"), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(JsonNumberTest, ShortestDecimalRoundTripsExactly) {
  for (const double value : {86400.001, 0.1, 1.0 / 3.0, 1e-3, 0.0, -2.5, 1e300}) {
    const std::string text = JsonNumber(value);
    const StatusOr<JsonValue> parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed.value().as_number(), value) << text;
  }
  EXPECT_EQ(JsonNumber(86400.001), "86400.001");
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(2.0), "2");
}

TEST(SpecReaderTest, SplitKeepsEmptyFieldsAndOffsetsFromBase) {
  const std::vector<SpecField> fields = SplitSpec("a,,bc,", ',', 10);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0].text, "a");
  EXPECT_EQ(fields[0].offset, 10u);
  EXPECT_EQ(fields[1].text, "");
  EXPECT_EQ(fields[1].offset, 12u);
  EXPECT_EQ(fields[2].text, "bc");
  EXPECT_EQ(fields[2].offset, 13u);
  EXPECT_EQ(fields[3].text, "");
  EXPECT_EQ(fields[3].offset, 16u);
}

TEST(SpecReaderTest, ErrorsKeepTheGrammarPrefixAndOffsetSuffix) {
  const SpecReader reader("widget spec", "--widget");
  EXPECT_EQ(reader.Error(7, "bad").message(),
            "malformed widget spec: bad (at byte 7; see --help for the --widget grammar)");
  EXPECT_EQ(reader.Expected("n", SpecField{"x", 3}, "an integer").message(),
            "malformed widget spec: n must be an integer, got 'x' (at byte 3; see --help for "
            "the --widget grammar)");
}

TEST(SpecReaderTest, OptionsMatchTheKeyTableAtAbsoluteOffsets) {
  const SpecReader reader("widget spec", "--widget");
  // Options start at byte 5 of the whole spec; empty options are skipped.
  std::vector<std::string> walked;
  const Status ok = reader.ForEachOption(
      SpecField{"b=2,,a=1,", 5}, "widget", {"a", "b"}, [&](const SpecOption& o) {
        walked.push_back(std::to_string(o.slot) + ":" + o.key + "=" + o.value.text + "@" +
                         std::to_string(o.offset) + "/" + std::to_string(o.value.offset));
        return Status::Ok();
      });
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(walked, (std::vector<std::string>{"1:b=2@5/7", "0:a=1@10/12"}));

  const auto error_of = [&reader](const std::string& options) {
    return reader
        .ForEachOption(SpecField{options, 5}, "widget", {"a", "b"},
                       [](const SpecOption&) { return Status::Ok(); })
        .message();
  };
  const std::string unknown = error_of("a=1,c=3");
  EXPECT_NE(unknown.find("unknown widget option 'c' (at byte 9;"), std::string::npos)
      << unknown;
  const std::string duplicate = error_of("a=1,b=2,a=3");
  EXPECT_NE(duplicate.find("duplicate widget option 'a' (at byte 13;"), std::string::npos)
      << duplicate;
  const std::string bare = error_of("a=1,b");
  EXPECT_NE(bare.find("expected key=value, got 'b' (at byte 9;"), std::string::npos) << bare;

  // The first error from the callback stops the walk.
  int calls = 0;
  const Status stopped = reader.ForEachOption(
      SpecField{"a=1,b=2", 0}, "widget", {"a", "b"}, [&](const SpecOption& o) {
        ++calls;
        return reader.Error(o.offset, "no");
      });
  EXPECT_FALSE(stopped.ok());
  EXPECT_EQ(calls, 1);
}

TEST(SpecReaderTest, IntsParseWholeWithinInclusiveBounds) {
  EXPECT_EQ(ParseSpecInt("4", 1, 8), 4);
  EXPECT_EQ(ParseSpecInt("1", 1, 8), 1);
  EXPECT_EQ(ParseSpecInt("8", 1, 8), 8);
  EXPECT_EQ(ParseSpecInt("-3", -5, 0), -3);
  for (const char* bad : {"", "0", "9", "4x", "x4", " 4", "+4", "4.0", "4294967300",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseSpecInt(bad, 1, 8).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseSpecInt("4294967300", std::numeric_limits<int>::min(),
                            std::numeric_limits<int>::max())
                   .has_value());
}

TEST(SpecReaderTest, DoublesAreFiniteAndWithinBounds) {
  EXPECT_EQ(ParseSpecDouble("0.5", 0.0, 1.0), 0.5);
  EXPECT_EQ(ParseSpecDouble("1e-3"), 1e-3);
  EXPECT_EQ(ParseSpecDouble("-2.5"), -2.5);
  EXPECT_EQ(ParseSpecDouble("86400.001"), 86400.001);
  EXPECT_FALSE(ParseSpecDouble("0", kSpecPositive, 1.0).has_value());
  EXPECT_FALSE(ParseSpecDouble("1.5", 0.0, 1.0).has_value());
  for (const char* bad : {"", "nan", "inf", "-inf", "1e999", "0.5s", "abc", " 1"}) {
    EXPECT_FALSE(ParseSpecDouble(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(SpecReaderTest, U64SeedsRejectSignsGarbageAndOverflow) {
  EXPECT_EQ(ParseSpecU64("0"), std::uint64_t{0});
  EXPECT_EQ(ParseSpecU64("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
  // 2^64 is out of range (ERANGE), not wrapped to 0; a sign is not wrapped either.
  for (const char* bad : {"18446744073709551616", "-3", "+3", "abc", "7x", ""}) {
    EXPECT_FALSE(ParseSpecU64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(SpecReaderTest, BoolsTakeTheFlagSpellings) {
  for (const char* yes : {"true", "1", "yes", "on"}) {
    EXPECT_EQ(ParseSpecBool(yes), true) << yes;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    EXPECT_EQ(ParseSpecBool(no), false) << no;
  }
  for (const char* bad : {"", "2", "maybe", "TRUE"}) {
    EXPECT_FALSE(ParseSpecBool(bad).has_value()) << bad;
  }
}

TEST(SpecReaderTest, ReadsStoreOnSuccessAndNameTheKeyOnFailure) {
  const SpecReader reader("widget spec", "--widget");
  int count = 0;
  EXPECT_TRUE(reader.ReadInt("n", SpecField{"3", 0}, 1, 4, "an integer in [1, 4]", &count).ok());
  EXPECT_EQ(count, 3);
  const Status bad = reader.ReadInt("n", SpecField{"5", 9}, 1, 4, "an integer in [1, 4]", &count);
  EXPECT_EQ(bad.message(),
            "malformed widget spec: n must be an integer in [1, 4], got '5' (at byte 9; see "
            "--help for the --widget grammar)");
  EXPECT_EQ(count, 3);
  std::uint64_t seed = 0;
  EXPECT_NE(reader.ReadU64("seed", SpecField{"-3", 0}, &seed).message().find(
                "seed must be an unsigned integer, got '-3'"),
            std::string::npos);
  bool on = false;
  EXPECT_NE(reader.ReadBool("ext", SpecField{"2", 0}, &on).message().find(
                "ext must be 0, 1, true or false, got '2'"),
            std::string::npos);
}

TEST(ThreadCountTest, RequestIsCappedByUsefulWork) {
  EXPECT_EQ(ResolveThreadCount(4, 10), 4);
  EXPECT_EQ(ResolveThreadCount(1000000, 48), 48);  // one thread per sweep point at most
  EXPECT_EQ(ResolveThreadCount(8, 0), 1);          // an empty sweep still gets one worker
  EXPECT_GE(ResolveThreadCount(0, 48), 1);         // 0 = one per hardware thread ...
  EXPECT_LE(ResolveThreadCount(0, 2), 2);          // ... but never more than the work
  EXPECT_EQ(ResolveThreadCount(3), 3);             // uncapped by default
}

}  // namespace
}  // namespace harmony
