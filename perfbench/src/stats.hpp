// Order statistics for the benchmark's timings.
//
// Percentiles use the nearest-rank definition on a sorted sample. A tail
// percentile is only reported when at least ten samples lie beyond it
// (the rank rule of the metrics guide): with n samples, p99 needs
// n >= 1000. Below that the tail falls back to the highest percentile of
// a fixed ladder that still has ten samples beyond it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// Zero-based nearest-rank index of quantile q (0 < q <= 1) in n samples.
inline std::size_t rank_index(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

/// Samples strictly beyond the q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

/// True when the q-th percentile of n samples has at least ten samples
/// beyond it.
inline bool tail_reportable(std::size_t n, double q) {
  return samples_beyond(n, q) >= kTailSamplesBeyond;
}

/// Nearest-rank percentile of an ascending sample (0 for an empty one).
template <typename T>
double percentile_sorted(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  return static_cast<double>(sorted[rank_index(sorted.size(), q)]);
}

/// A tail percentile chosen by the ten-beyond rule.
struct Tail {
  double quantile = 0.0;  ///< The percentile actually reported (0..1).
  double value = 0.0;
};

/// The highest of {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} not above `want`
/// with ten samples beyond it; nullopt when even the median has fewer.
template <typename T>
std::optional<Tail> tail_percentile(const std::vector<T>& sorted,
                                    double want = 0.99) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (double q : kLadder) {
    if (q <= want + 1e-12 && tail_reportable(sorted.size(), q)) {
      return Tail{q, percentile_sorted(sorted, q)};
    }
  }
  return std::nullopt;
}

/// Median of an unsorted sample (mean of the two middle values when even).
inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
