// Self-tests for the benchmark's own arithmetic: percentiles and the "ten samples beyond"
// rule, self time with overlapping children, and digest stability. run.py runs this before
// every benchmark run and refuses to report numbers if it fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("selftest FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> Range(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) {  // descending: NearestRank must sort its copy
    out.push_back(i);
  }
  return out;
}

void Percentiles() {
  EXPECT(NearestRank(Range(100), 50.0) == 50.0);
  EXPECT(NearestRank(Range(100), 90.0) == 90.0);
  EXPECT(NearestRank(Range(100), 99.0) == 99.0);
  EXPECT(NearestRank(Range(100), 100.0) == 100.0);
  EXPECT(NearestRank(Range(10), 90.0) == 9.0);
  EXPECT(NearestRank(Range(10), 95.0) == 10.0);  // rank ceil(9.5) = 10
  EXPECT(NearestRank(Range(4), 50.0) == 2.0);
  EXPECT(NearestRank({7.0}, 1.0) == 7.0);
  EXPECT(NearestRank({}, 50.0) == 0.0);

  EXPECT(SamplesBeyond(100, 90.0) == 10);
  EXPECT(SamplesBeyond(99, 90.0) == 9);  // rank ceil(89.1) = 90
  EXPECT(SamplesBeyond(1000, 99.0) == 10);
  EXPECT(SamplesBeyond(0, 50.0) == 0);

  const std::vector<double> ladder = {50.0, 90.0, 99.0, 99.9};
  EXPECT(HighestQualifiedPercentile(100, ladder) == 90.0);
  EXPECT(HighestQualifiedPercentile(99, ladder) == 50.0);
  EXPECT(HighestQualifiedPercentile(1000, ladder) == 99.0);
  EXPECT(HighestQualifiedPercentile(10000, ladder) == 99.9);
  EXPECT(HighestQualifiedPercentile(20, ladder) == 50.0);
  EXPECT(HighestQualifiedPercentile(19, ladder) == 0.0);

  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(Median({}) == 0.0);
}

void SelfTime() {
  // Overlapping and nested intervals count once; parts outside [lo, hi) are clipped.
  EXPECT(Near(CoveredLength({{0, 2}, {1, 3}, {5, 6}}, 0, 10), 4.0));
  EXPECT(Near(CoveredLength({{1, 4}, {2, 3}}, 0, 10), 3.0));
  EXPECT(Near(CoveredLength({{-1, 1}, {9, 12}}, 0, 10), 2.0));
  EXPECT(Near(CoveredLength({{2, 2}}, 0, 10), 0.0));
  EXPECT(Near(CoveredLength({}, 0, 10), 0.0));

  // root [0, 10) with overlapping children [1, 4) and [3, 6); the first child has a
  // grandchild [1.5, 2), which is not the root's direct cover.
  const std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, -1},
      {"a", 1.0, 4.0, 0, 1},
      {"b", 3.0, 6.0, 0, 2},
      {"a.child", 1.5, 2.0, 1, 1},
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT(Near(self[0], 5.0));
  EXPECT(Near(self[1], 2.5));
  EXPECT(Near(self[2], 3.0));
  EXPECT(Near(self[3], 0.5));
}

void Digest() {
  EXPECT(Fnv1a64("") == kFnvOffset);
  EXPECT(Fnv1a64("a") == 0xaf63dc4c8601ec8cULL);  // published FNV-1a 64 test vector
  EXPECT(Fnv1a64("foobar") == 0x85944171f73967e8ULL);
  EXPECT(Fnv1a64("bar", Fnv1a64("foo")) == Fnv1a64("foobar"));  // chaining is concatenation
  EXPECT(Fnv1a64("ab") != Fnv1a64("ba"));
  EXPECT(HexDigest(0xaf63dc4c8601ec8cULL) == "af63dc4c8601ec8c");
  EXPECT(HexDigest(1) == "0000000000000001");

  EXPECT(FormatNumber(0.1) == "0.1");
  EXPECT(FormatNumber(3.0) == "3");
  EXPECT(std::strtod(FormatNumber(1.0 / 3.0).c_str(), nullptr) == 1.0 / 3.0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Percentiles();
  perfbench::SelfTime();
  perfbench::Digest();
  std::printf("selftest %s (%d failures)\n", perfbench::failures == 0 ? "ok" : "FAILED",
              perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
