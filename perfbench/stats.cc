#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::size_t Rank(std::size_t n, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  // Guard against 0.9 * 100 landing a hair above 90 in binary floating point.
  const double rounded = std::round(exact);
  const double rank = std::fabs(exact - rounded) < 1e-9 ? rounded : std::ceil(exact);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double NearestRank(std::vector<double> samples, double pct) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[Rank(samples.size(), pct) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - Rank(n, pct);
}

double HighestQualifiedPercentile(std::size_t n, const std::vector<double>& ladder,
                                  std::size_t min_beyond) {
  double best = 0.0;
  for (const double pct : ladder) {
    if (n > 0 && SamplesBeyond(n, pct) >= min_beyond) {
      best = pct;
    }
  }
  return best;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

double CoveredLength(std::vector<Interval> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const Interval& raw : intervals) {
    const double start = std::max(raw.start, lo);
    const double end = std::min(raw.end, hi);
    if (end <= start) {
      continue;
    }
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) {
      covered += run_end - run_start;
    }
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) {
    covered += run_end - run_start;
  }
  return covered;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].push_back({span.start, span.end});
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    self[i] = (span.end - span.start) - CoveredLength(children[i], span.start, span.end);
  }
  return self;
}

std::uint64_t Fnv1a64(std::string_view bytes, std::uint64_t state) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 1099511628211ULL;
  }
  return state;
}

std::string HexDigest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace perfbench
