// perfbench: the benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --config perfbench/config.json --out <dir>
//
// Prints human-readable lines, then one JSON result line (see report.hpp).
// Exits non-zero without a result line on any error. perfbench/run.py
// builds this binary and is the benchmark's entry point.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "io/json.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;
using perfbench::SpanRecorder;

using WorkloadFn = void (*)(const RunOptions&, Report&, SpanRecorder&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> kAll = {
      {"campaign-paper", &perfbench::run_campaign_bench},
      {"campaign-field", &perfbench::run_campaign_bench},
      {"auth-batch", &perfbench::run_auth_batch},
      {"auth-socket", &perfbench::run_auth_socket},
  };
  return kAll;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --config <path> --out <dir>\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used, 10);
  } catch (const std::exception&) {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage("bad argument '" + flag + "'");
    }
    args[flag] = argv[++i];
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--config", "--out"}) {
    if (args.count(required) == 0) {
      usage(std::string("missing ") + required);
    }
  }
  for (const auto& [flag, value] : args) {
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--config" && flag != "--out") {
      usage("unknown flag " + flag);
    }
  }
  RunOptions opts;
  opts.workload = args["--workload"];
  const auto fn = workloads().find(opts.workload);
  if (fn == workloads().end()) {
    usage("unknown workload '" + opts.workload + "'");
  }
  opts.seed = parse_u64("--seed", args["--seed"]);
  opts.seconds = static_cast<double>(parse_u64("--seconds", args["--seconds"]));
  const std::uint64_t trace = parse_u64("--trace", args["--trace"]);
  if (trace > 1 || opts.seconds < 1) {
    usage("--trace must be 0 or 1 and --seconds at least 1");
  }
  opts.trace = trace == 1;
  opts.out_dir = args["--out"];
  opts.nproc = perfbench::allowed_cpus();

  try {
    std::ifstream in(args["--config"]);
    if (!in) {
      throw pufaging::IoError("cannot read " + args["--config"]);
    }
    std::stringstream text;
    text << in.rdbuf();
    const pufaging::Json config = pufaging::Json::parse(text.str());
    opts.config = config.at("workloads").at(opts.workload);
    std::filesystem::create_directories(opts.out_dir + "/tmp");

    Report report(opts.workload, opts.seed, opts.trace);
    for (const auto& [k, v] : perfbench::fingerprint()) {
      report.info(k, v);
    }
    report.info("workload", opts.workload);
    report.info("seed", std::to_string(opts.seed));
    report.info("held_out_seed",
                std::to_string(config.at("held_out_seed").as_int()));
    report.info("seconds", std::to_string(opts.seconds));
    SpanRecorder spans;
    const perfbench::CpuTicks before = perfbench::cpu_ticks();
    fn->second(opts, report, spans);
    const perfbench::CpuTicks after = perfbench::cpu_ticks();
    if (after.total > before.total) {
      report.info("host_steal_pct",
                  std::to_string(100.0 *
                                 static_cast<double>(after.steal - before.steal) /
                                 static_cast<double>(after.total - before.total)));
    }

    const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + "-trace" +
                             std::to_string(trace);
    if (opts.trace) {
      spans.write_jsonl(stem + ".spans.jsonl");
    }
    report.emit(stem + ".json");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
