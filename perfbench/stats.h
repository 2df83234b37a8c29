// Arithmetic the benchmark reports with: nearest-rank percentiles and the "at least ten
// samples beyond" rule, medians, span self time, and the report digest. Kept apart from the
// workloads so perfbench_selftest can check it in isolation.
#ifndef HARMONY_PERFBENCH_STATS_H_
#define HARMONY_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample such that at least `pct` percent of the
// samples are <= it (rank = ceil(pct / 100 * n), 1-based). `pct` is in (0, 100]; an empty
// input yields 0.
double NearestRank(std::vector<double> samples, double pct);

// Number of samples strictly beyond the nearest-rank `pct` position among `n` samples.
std::size_t SamplesBeyond(std::size_t n, double pct);

// Highest percentile of `ladder` (ascending) that leaves at least `min_beyond` samples
// beyond it among `n` samples; 0 when none qualifies.
double HighestQualifiedPercentile(std::size_t n, const std::vector<double>& ladder,
                                  std::size_t min_beyond = 10);

// Median (mean of the two middle samples for even counts); 0 for an empty input.
double Median(std::vector<double> samples);

// One recorded span: a call into a layer, or a grouping span of the benchmark itself.
struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer started
  double end = 0.0;
  int parent = -1;     // index of the enclosing span, -1 for a root
  int id = -1;         // session or job id the span belongs to, -1 for none
};

// Length of the union of [start, end) intervals clipped to [lo, hi): overlapping or nested
// intervals are counted once.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};
double CoveredLength(std::vector<Interval> intervals, double lo, double hi);

// Self time of every span: its duration minus the part of it covered by its children.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// FNV-1a 64 over `bytes`, continuing from `state` (so digests chain across reports).
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
std::uint64_t Fnv1a64(std::string_view bytes, std::uint64_t state = kFnvOffset);
std::string HexDigest(std::uint64_t digest);

// Shortest decimal that reads back as exactly `value` (JSON number syntax).
std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // HARMONY_PERFBENCH_STATS_H_
