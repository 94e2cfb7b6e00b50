#include "openloop.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "stats.hpp"

namespace perfbench {

void poisson_fill(std::uint64_t seed, double rate_per_s, std::uint64_t* out,
                  std::size_t count) {
  pufaging::Xoshiro256StarStar rng(seed);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // Inverse-CDF exponential gap; 1 - u keeps the log argument in (0, 1].
    const double u = rng.uniform();
    t += -std::log(1.0 - u) * mean_gap_ns;
    out[i] = static_cast<std::uint64_t>(t);
  }
}

Lateness lateness(const std::vector<std::uint64_t>& due_ns,
                  const std::vector<std::uint64_t>& sent_ns) {
  Lateness out;
  std::vector<double> late;
  late.reserve(due_ns.size());
  const std::size_t n = std::min(due_ns.size(), sent_ns.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (sent_ns[i] == 0) {
      ++out.unsent;
      continue;
    }
    ++out.sent;
    late.push_back(sent_ns[i] > due_ns[i]
                       ? static_cast<double>(sent_ns[i] - due_ns[i]) * 1e-3
                       : 0.0);
  }
  out.unsent += due_ns.size() - n;
  std::sort(late.begin(), late.end());
  out.p50_us = percentile_sorted(late, 0.5);
  const auto tail = tail_percentile(late, 0.99);
  out.p99_us = tail ? tail->value : (late.empty() ? 0.0 : late.back());
  out.max_us = late.empty() ? 0.0 : late.back();
  return out;
}

Windowed windowed_percentiles(const std::vector<double>& in_order,
                              std::size_t max_windows) {
  Windowed out;
  const std::size_t n = in_order.size();
  if (n == 0) {
    return out;
  }
  out.windows = std::max<std::size_t>(1, std::min(max_windows, n / 1000));
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  for (std::size_t w = 0; w < out.windows; ++w) {
    std::vector<double> part(
        in_order.begin() + static_cast<std::ptrdiff_t>(w * n / out.windows),
        in_order.begin() +
            static_cast<std::ptrdiff_t>((w + 1) * n / out.windows));
    std::sort(part.begin(), part.end());
    p50s.push_back(percentile_sorted(part, 0.5));
    p90s.push_back(percentile_sorted(part, 0.9));
    const auto tail = tail_percentile(part, 0.99);
    p99s.push_back(tail ? tail->value : part.back());
  }
  out.p50 = median(p50s);
  out.p90 = median(p90s);
  out.p99 = median(p99s);
  return out;
}

bool backlog_growing(const std::vector<std::uint64_t>& outstanding,
                     std::uint64_t slack) {
  if (outstanding.size() < 4) {
    return false;
  }
  const std::size_t q = outstanding.size() / 4;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    first += static_cast<double>(outstanding[i]);
    last += static_cast<double>(outstanding[outstanding.size() - q + i]);
  }
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  return last > first + static_cast<double>(slack) && last > 1.5 * first;
}

}  // namespace perfbench
