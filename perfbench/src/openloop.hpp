// Open-loop load schedule and its accounting.
//
// The generator sends on a fixed schedule of due times drawn from the
// workload seed (Poisson arrivals at the offered rate), never waiting for
// replies. Each request is timed from its due time, so a stall in the
// server or in the generator itself shows up in every request queued
// behind it; how late the generator ran is reported on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Writes the due offsets (ns from phase start) of `count` Poisson
/// arrivals at `rate_per_s`, drawn from `seed`, into `out[0, count)`.
/// Same seed, same schedule.
void poisson_fill(std::uint64_t seed, double rate_per_s, std::uint64_t* out,
                  std::size_t count);

/// How late the generator ran.
struct Lateness {
  std::uint64_t sent = 0;       ///< Requests with a send time.
  std::uint64_t unsent = 0;     ///< Requests never sent.
  double p50_us = 0.0;
  double p99_us = 0.0;          ///< Ten-beyond rule; else highest allowed.
  double max_us = 0.0;
};

/// Lateness of each request: max(0, sent - due). `sent_ns[i] == 0`
/// means request i was never sent.
Lateness lateness(const std::vector<std::uint64_t>& due_ns,
                  const std::vector<std::uint64_t>& sent_ns);

/// Percentiles of a phase taken per time window: the phase's samples (in
/// schedule order) are cut into `max_windows` equal windows, fewer when a
/// window would hold under 1000 samples (the p99 of each window needs ten
/// samples beyond it); p50 and p99 are the medians of the windows' own.
struct Windowed {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::size_t windows = 0;
};
Windowed windowed_percentiles(const std::vector<double>& in_order,
                              std::size_t max_windows);

/// Backlog check for the SLO search: `outstanding` holds the number of
/// sent-but-unanswered requests sampled at even intervals over a phase.
/// The backlog is growing when the mean over the last quarter exceeds
/// the mean over the first quarter by more than `slack` requests and by
/// more than half again.
bool backlog_growing(const std::vector<std::uint64_t>& outstanding,
                     std::uint64_t slack);

}  // namespace perfbench
