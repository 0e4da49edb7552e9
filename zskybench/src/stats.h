#ifndef ZSKYBENCH_STATS_H_
#define ZSKYBENCH_STATS_H_

// Sample statistics shared by every workload: medians, tail percentiles
// that are only reported when the samples support them, and the
// attempted/failed tally behind failed_frac.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace zskybench {

// A percentile is reported only when at least this many samples lie
// beyond it; below that it is one or two outliers, not a tail.
inline constexpr size_t kMinSamplesBeyond = 10;

// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank p-quantile (p in (0, 1)) of `v`, or nullopt when fewer
// than kMinSamplesBeyond samples rank above it. With nearest rank
// r = ceil(p * n), n - r samples lie beyond the reported value, so p90
// needs n >= 100 and p50 needs n >= 20.
inline std::optional<double> SupportedPercentile(std::vector<double> v,
                                                 double p) {
  const size_t n = v.size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9)));
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

// Highest of p99 / p90 / p75 the samples support, as {p, value}.
struct Tail {
  double p = 0.0;
  double value = 0.0;
};
inline std::optional<Tail> HighestSupportedTail(const std::vector<double>& v) {
  for (double p : {0.99, 0.90, 0.75}) {
    if (auto q = SupportedPercentile(v, p)) return Tail{p, *q};
  }
  return std::nullopt;
}

// Quartile spread of a run's own samples, as a share of their median
// (the provenance "spread" of each timing); 0 with fewer than 4 samples.
inline double QuartileSpread(std::vector<double> v) {
  if (v.size() < 4) return 0.0;
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    // Linear interpolation between closest ranks ("exclusive" method, as
    // Python's statistics.quantiles uses by default).
    const double pos = q * static_cast<double>(v.size() + 1) - 1.0;
    const double lo = std::clamp(std::floor(pos), 0.0,
                                 static_cast<double>(v.size() - 1));
    const double hi = std::min(lo + 1.0, static_cast<double>(v.size() - 1));
    const double frac = std::clamp(pos - lo, 0.0, 1.0);
    return v[static_cast<size_t>(lo)] * (1.0 - frac) +
           v[static_cast<size_t>(hi)] * frac;
  };
  const double med = Median(v);
  return med > 0.0 ? (at(0.75) - at(0.25)) / med : 0.0;
}

// Ops completed per second inside a measuring window of `window_ms`: each
// op, given as {start, end} ms from the window's start, counts with the
// share of its duration that falls inside the window. Unlike
// completed / wall time this neither rounds to whole ops nor charges the
// run's last, overrunning op to the window.
inline double WindowRate(const std::vector<std::pair<double, double>>& ops,
                         double window_ms) {
  if (window_ms <= 0.0) return 0.0;
  double done = 0.0;
  for (const auto& [start, end] : ops) {
    if (end <= start) {
      done += start <= window_ms ? 1.0 : 0.0;
      continue;
    }
    const double inside =
        std::min(end, window_ms) - std::max(start, 0.0);
    done += std::clamp(inside / (end - start), 0.0, 1.0);
  }
  return done / (window_ms / 1000.0);
}

// Operations attempted vs failed. An op fails when it errors, when a
// MapReduce job inside it reports failed tasks, or when its output
// mismatches the reference; a mismatch found after the run (a deferred
// check) is charged to the op it belongs to, so failed never exceeds
// attempted.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  // Marks one already-recorded op as failed (deferred correctness check).
  void FailRecorded() {
    if (failed < attempted) ++failed;
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace zskybench

#endif  // ZSKYBENCH_STATS_H_
