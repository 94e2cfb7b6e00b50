// Result collection and output of one benchmark run.
//
// A run prints human-readable lines (every metric by name with its unit
// and sample count, every correctness check, the machine fingerprint) and
// ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// With tracing off the metrics are the end-to-end set, with tracing on
// the per-layer set; both sets are fixed lists shared by all workloads
// (a layer a workload does not exercise reads 0). The full record is also
// written to a JSON file under the output directory.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricValue {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< 0 = a count or a derived figure.
};

/// Names and units of the end-to-end metrics every workload reports.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// Names and units of the per-layer metrics every traced run reports.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

class Report {
 public:
  Report(std::string workload, std::uint64_t seed, bool trace);

  /// A metric in the contract set (end-to-end or per-layer by name).
  void set(const std::string& name, double value, std::uint64_t samples = 0);
  /// A named figure outside the contract set (e.g. the workload-specific
  /// names the generic end-to-end metrics map to), printed and recorded.
  void detail(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples = 0);
  void info(const std::string& key, const std::string& value);
  /// A correctness check; any failure makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& note = "");
  void operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const;
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Prints the human lines and the final JSON line to stdout and writes
  /// the record to `path` (skipped when empty).
  void emit(const std::string& path) const;

 private:
  std::string workload_;
  std::uint64_t seed_;
  bool trace_;
  std::map<std::string, MetricValue> contract_;
  std::vector<std::pair<std::string, MetricValue>> details_;
  std::vector<std::pair<std::string, std::string>> info_;
  struct Check {
    std::string name;
    bool ok;
    std::string note;
  };
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Aggregate CPU time counters of the host (from /proc/stat), to report
/// how much time the hypervisor stole from the host during a run.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();

/// The CPUs this process may run on, as nproc(1) counts them (at least 1).
unsigned allowed_cpus();

/// Host fingerprint: CPU model, AVX-512 / SHA-NI flags, nproc, compiler,
/// build type.
std::vector<std::pair<std::string, std::string>> fingerprint();

}  // namespace perfbench
