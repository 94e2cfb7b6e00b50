// The benchmark's four workloads.
//
// Each workload builds its inputs from the workload seed, measures for the
// requested number of seconds, checks every output, and fills a Report.
// With `trace` set it instead runs the traced pass: spans around the
// benchmark's calls into each layer, per-layer metrics derived from them,
// and the tracing overhead against an untraced pass of the same work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/monthly.hpp"
#include "io/json.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;     ///< Scratch and result files (inside the checkout).
  pufaging::Json config;   ///< This workload's block of perfbench/config.json.
  unsigned nproc = 1;
};

/// campaign-paper and campaign-field (the workload name picks the shape).
void run_campaign_bench(const RunOptions& opts, Report& report,
                        SpanRecorder& spans);
void run_auth_batch(const RunOptions& opts, Report& report,
                    SpanRecorder& spans);
void run_auth_socket(const RunOptions& opts, Report& report,
                     SpanRecorder& spans);

/// SHA-256 (hex) over every field of a campaign series, doubles by their
/// bit patterns: the identity witness of a campaign.
std::string series_sha256(const std::vector<pufaging::FleetMonthMetrics>& s);

/// Set-ups timed per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 5;

/// Derives a 64-bit input seed for `purpose` from the workload seed.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t purpose);

}  // namespace perfbench
