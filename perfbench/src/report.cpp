#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"},
      {"p50_us", "us"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"silicon.powerup.calls", "count"},
      {"silicon.powerup.ns_per_bit", "ns"},
      {"silicon.rebuild.calls", "count"},
      {"silicon.rebuild.us", "us"},
      {"silicon.aging.calls", "count"},
      {"silicon.aging.ms_per_device_month", "ms"},
      {"silicon.make_fleet_s", "s"},
      {"analysis.accumulate.ns_per_measurement", "ns"},
      {"analysis.fold.ms_per_month", "ms"},
      {"testbed.faults.slots", "count"},
      {"testbed.faults.ns_per_slot", "ns"},
      {"testbed.campaign.self_s", "s"},
      {"pool.straggler_ratio", "ratio"},
      {"pool.idle_frac", "ratio"},
      {"store.appends", "count"},
      {"store.snapshots", "count"},
      {"store.fsyncs", "count"},
      {"store.bytes_written", "bytes"},
      {"store.write_us", "us"},
      {"store.fsync_us", "us"},
      {"keygen.enroll.us_per_device", "us"},
      {"auth.corpus.us_per_request", "us"},
      {"auth.batch.ns_per_request", "ns"},
      {"auth.golay.ns_per_block", "ns"},
      {"auth.sha256.ns_per_request", "ns"},
      {"auth.decisions.accept", "count"},
      {"auth.decisions.reject_decode", "count"},
      {"auth.decisions.reject_key", "count"},
      {"auth.decisions.reject_unknown", "count"},
      {"authd.core.ns_per_request", "ns"},
      {"authd.batch_fill", "count"},
      {"authd.queue_depth_max", "count"},
      {"authd.shed", "count"},
      {"authd.retry_after", "count"},
      {"authd.deadline_expired", "count"},
      {"wire.encode_ns", "ns"},
      {"wire.parse_ns", "ns"},
      {"socket.transport_us", "us"},
      {"socket.server_cpu_us_per_request", "us"},
      {"loadgen.lag_p99_us.light", "us"},
      {"loadgen.lag_p99_us.heavy", "us"},
      {"loadgen.sent", "count"},
      {"loadgen.completed", "count"},
      {"share.silicon.powerup_pct", "%"},
      {"share.silicon.rebuild_pct", "%"},
      {"share.silicon.aging_pct", "%"},
      {"share.analysis_pct", "%"},
      {"share.testbed.faults_pct", "%"},
      {"share.store_pct", "%"},
      {"share.auth.batch_pct", "%"},
      {"share.authd.core_pct", "%"},
      {"share.socket.transport_pct", "%"},
      {"trace.attributed_pct", "%"},
      {"trace.spans", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kList;
}

namespace {

std::string unit_of(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& [n, u] : *list) {
      if (n == name) {
        return u;
      }
    }
  }
  throw std::logic_error("perfbench: unknown metric " + name);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Report::Report(std::string workload, std::uint64_t seed, bool trace)
    : workload_(std::move(workload)), seed_(seed), trace_(trace) {
  // Every metric of the active set starts at 0: a layer the workload does
  // not call reports no work.
  for (const auto& [name, unit] :
       trace_ ? per_layer_metrics() : end_to_end_metrics()) {
    contract_[name] = MetricValue{0.0, unit, 0};
  }
}

void Report::set(const std::string& name, double value,
                 std::uint64_t samples) {
  const std::string unit = unit_of(name);
  const auto it = contract_.find(name);
  if (it == contract_.end()) {
    return;  // Belongs to the other (inactive) set.
  }
  it->second = MetricValue{value, unit, samples};
  if (!std::isfinite(value)) {
    check("finite " + name, false, "metric is not a finite number");
  }
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  details_.emplace_back(name, MetricValue{value, unit, samples});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::check(const std::string& name, bool ok, const std::string& note) {
  checks_.push_back(Check{name, ok, note});
}

bool Report::correct() const {
  for (const Check& c : checks_) {
    if (!c.ok) {
      return false;
    }
  }
  return !checks_.empty();
}

void Report::emit(const std::string& path) const {
  std::ostringstream human;
  for (const auto& [k, v] : info_) {
    human << "info " << k << " = " << v << "\n";
  }
  for (const Check& c : checks_) {
    human << "check " << (c.ok ? "PASS " : "FAIL ") << c.name;
    if (!c.note.empty()) {
      human << "  (" << c.note << ")";
    }
    human << "\n";
  }
  const auto metric_line = [&human](const std::string& name,
                                    const MetricValue& m) {
    human << "metric " << name << " = " << json_number(m.value) << " "
          << m.unit;
    if (m.samples > 0) {
      human << "  (n=" << m.samples << ")";
    }
    human << "\n";
  };
  for (const auto& [name, m] : details_) {
    metric_line(name, m);
  }
  for (const auto& [name, m] : contract_) {
    metric_line(name, m);
  }
  human << "operations attempted=" << attempted_ << " failed=" << failed_
        << " fail_frac="
        << json_number(attempted_ == 0
                           ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_))
        << "\n";

  std::string metrics = "{";
  bool first = true;
  for (const auto& [name, m] : contract_) {
    metrics += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
               json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
               "}";
    first = false;
  }
  metrics += "}";
  const std::string result =
      std::string("{\"correct\": ") + (correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_ == 0 ? 1 : attempted_) +
      ", \"failed\": " +
      std::to_string(attempted_ == 0 ? 1 : failed_) +
      ", \"metrics\": " + metrics + "}";

  if (!path.empty()) {
    std::ofstream out(path);
    out << "{\"workload\": " << json_string(workload_)
        << ", \"seed\": " << seed_ << ", \"trace\": " << (trace_ ? 1 : 0)
        << ",\n \"info\": {";
    first = true;
    for (const auto& [k, v] : info_) {
      out << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
      first = false;
    }
    out << "},\n \"checks\": [";
    first = true;
    for (const Check& c : checks_) {
      out << (first ? "" : ", ") << "{\"name\": " << json_string(c.name)
          << ", \"ok\": " << (c.ok ? "true" : "false")
          << ", \"note\": " << json_string(c.note) << "}";
      first = false;
    }
    out << "],\n \"details\": {";
    first = true;
    for (const auto& [name, m] : details_) {
      out << (first ? "" : ", ") << json_string(name)
          << ": {\"value\": " << json_number(m.value)
          << ", \"unit\": " << json_string(m.unit)
          << ", \"samples\": " << m.samples << "}";
      first = false;
    }
    out << "},\n \"result\": " << result << "}\n";
  }
  std::fputs(human.str().c_str(), stdout);
  std::fputs((result + "\n").c_str(), stdout);
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks t;
  stat >> cpu;
  for (int field = 0; field < 10 && stat; ++field) {
    std::uint64_t v = 0;
    stat >> v;
    t.total += v;
    if (field == 7) {
      t.steal = v;
    }
  }
  return t;
}

unsigned allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const long n = ::sched_getaffinity(0, sizeof allowed, &allowed) == 0
                     ? CPU_COUNT(&allowed)
                     : ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

std::vector<std::pair<std::string, std::string>> fingerprint() {
  std::vector<std::pair<std::string, std::string>> out;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown";
  std::set<std::string> flags;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string val =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0 &&
        model == "unknown") {
      model = val;
    } else if (key == "flags" && flags.empty()) {
      std::istringstream fs(val);
      std::string f;
      while (fs >> f) {
        flags.insert(f);
      }
    }
  }
  out.emplace_back("cpu_model", model);
  out.emplace_back("cpu_avx512f", flags.count("avx512f") ? "yes" : "no");
  out.emplace_back("cpu_avx2", flags.count("avx2") ? "yes" : "no");
  out.emplace_back("cpu_sha_ni", flags.count("sha_ni") ? "yes" : "no");
  out.emplace_back("nproc", std::to_string(allowed_cpus()));
#if defined(__clang__)
  out.emplace_back("compiler", std::string("clang ") + __clang_version__);
#else
  out.emplace_back("compiler", std::string("gcc ") + __VERSION__);
#endif
  out.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  return out;
}

}  // namespace perfbench
