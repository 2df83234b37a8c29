#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/table.h"
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

}  // namespace
}  // namespace harmony
