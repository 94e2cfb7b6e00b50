// campaign-paper and campaign-field: run_campaign end to end, and a traced
// replica of its month loop built from the layers' public calls.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "analysis/streaming_fold.hpp"
#include "analysis/summary.hpp"
#include "common/error.hpp"
#include "common/sha256.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "testbed/campaign.hpp"
#include "timing_vfs.hpp"
#include "workloads.hpp"

namespace perfbench {

using pufaging::BitVector;
using pufaging::CampaignConfig;
using pufaging::CampaignResult;
using pufaging::DeviceMonthAccumulator;
using pufaging::DeviceMonthMetrics;
using pufaging::FleetMonthMetrics;
using pufaging::Json;
using pufaging::OperatingPoint;
using pufaging::SramDevice;

namespace {

constexpr std::uint64_t kFleetSeedPurpose = 0xF1EE7;

// --- identity witness --------------------------------------------------------

void put_u64(pufaging::Sha256& h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  h.update(b, 8);
}

void put_f64(pufaging::Sha256& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(h, bits);
}

}  // namespace

std::string series_sha256(const std::vector<FleetMonthMetrics>& series) {
  pufaging::Sha256 h;
  for (const FleetMonthMetrics& m : series) {
    put_f64(h, m.month);
    put_u64(h, m.devices.size());
    for (const DeviceMonthMetrics& d : m.devices) {
      put_u64(h, d.device_id);
      put_u64(h, d.measurement_count);
      put_f64(h, d.wchd_mean);
      put_f64(h, d.fhw_mean);
      put_f64(h, d.stable_ratio);
      put_f64(h, d.noise_entropy);
      put_u64(h, d.first_pattern.size());
      for (std::uint64_t w : d.first_pattern.words()) {
        put_u64(h, w);
      }
    }
    for (double v : {m.wchd_avg, m.wchd_wc, m.fhw_avg, m.fhw_wc, m.stable_avg,
                     m.stable_wc, m.noise_entropy_avg, m.noise_entropy_wc,
                     m.bchd_avg, m.bchd_wc, m.puf_entropy, m.coverage}) {
      put_f64(h, v);
    }
    put_u64(h, m.devices_expected);
    put_u64(h, m.devices_reporting);
    put_u64(h, m.degraded ? 1 : 0);
  }
  return pufaging::Sha256::to_hex(h.finalize());
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t purpose) {
  return pufaging::split_seed(workload_seed, 0xBE4C4A11ULL, purpose);
}

namespace {

// --- configuration -----------------------------------------------------------

bool is_field(const RunOptions& opts) { return opts.workload == "campaign-field"; }

std::size_t get_size(const Json& j, const char* key) {
  return static_cast<std::size_t>(j.at(key).as_int());
}

/// The campaign this workload runs, for a given fleet seed. Paper: the
/// paper's protocol (nominal, fault-free, no store). Field: seasonal
/// schedule, a fault plan with brownouts, and a durable store.
CampaignConfig campaign_config(const RunOptions& opts, const Json& shape,
                               std::uint64_t fleet_seed) {
  CampaignConfig c;
  c.fleet.device_count = get_size(shape, "devices");
  c.fleet.seed = fleet_seed;
  c.months = get_size(shape, "months");
  c.measurements_per_month = get_size(shape, "measurements_per_month");
  const std::size_t threads = get_size(shape, "threads");
  c.threads = threads == 0 ? opts.nproc : threads;
  if (is_field(opts)) {
    c.schedule = pufaging::seasonal_schedule(
        opts.config.at("seasonal_mean_c").as_double(),
        opts.config.at("seasonal_swing_c").as_double());
    c.faults = pufaging::parse_fault_plan(opts.config.at("faults").as_string());
    c.checkpoint_every_months =
        get_size(opts.config, "checkpoint_every_months");
    c.fsync_every = get_size(opts.config, "fsync_every");
  }
  return c;
}

/// Fresh store directory for one field campaign (removed after the call).
class ScratchDir {
 public:
  ScratchDir(const RunOptions& opts, const char* tag) {
    static int counter = 0;
    path_ = opts.out_dir + "/tmp/" + tag + "-" + std::to_string(::getpid()) +
            "-" + std::to_string(counter++);
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- the traced replica ------------------------------------------------------

/// Per-call timing tallies of the replica (beyond the spans themselves).
struct ReplicaTally {
  std::vector<double> straggler;  ///< Per month: slowest task / mean task.
  std::vector<double> idle;       ///< Per month: pool idle fraction.
};

/// Replays run_campaign's month loop through the public layer calls
/// (make_fleet, SramDevice::measure / age_months, advance_slot,
/// DeviceMonthAccumulator, fold_fleet_month) with a span around each call.
/// Persistence is not replayed (the store path is timed through the
/// timing Vfs instead). The series must be bit-identical to
/// run_campaign's.
std::vector<FleetMonthMetrics> replica_campaign(const CampaignConfig& c,
                                                SpanRecorder& rec,
                                                ReplicaTally& tally) {
  ScopedSpan root(&rec, "campaign", 0);
  std::vector<SramDevice> fleet;
  {
    ScopedSpan s(&rec, "silicon.make_fleet", root.id());
    fleet = pufaging::make_fleet(c.fleet);
  }
  const std::size_t n = fleet.size();
  const bool has_faults = !c.faults.all_zero();
  const pufaging::FoldOptions fold_options{
      pufaging::tilecol::TileShape{c.tile_rows, c.tile_cols}};
  const std::size_t threads = std::min(
      pufaging::ThreadPool::resolve_thread_count(c.threads), n);
  std::optional<pufaging::ThreadPool> pool;
  if (threads > 1) {
    pool.emplace(threads);
  }
  std::vector<BitVector> refs(n);
  std::vector<pufaging::BoardFaultState> fault_states(n);
  // A device's sampler is rebuilt on the first measure after aging or an
  // operating-point change; those measures are spanned separately.
  std::vector<std::uint8_t> stale(n, 1);
  std::vector<OperatingPoint> last_op(n);
  std::vector<FleetMonthMetrics> series;

  for (std::size_t month = 0; month <= c.months; ++month) {
    ScopedSpan month_span(&rec, "campaign.month", root.id(), month);
    const OperatingPoint op =
        c.schedule ? c.schedule(month) : c.operating_point;
    std::vector<DeviceMonthMetrics> metrics(n);
    std::vector<std::uint8_t> reported(n, 1);
    std::vector<std::uint64_t> task_start(n);
    std::vector<std::uint64_t> task_end(n);

    const auto task = [&](std::size_t d) {
      task_start[d] = now_ns();
      ScopedSpan task_span(&rec, "pool.device_month", month_span.id(), month);
      SramDevice& device = fleet[d];
      const auto measure = [&](const OperatingPoint& at) {
        const bool rebuild = stale[d] != 0 || !(last_op[d] == at);
        const std::uint64_t t0 = now_ns();
        BitVector pattern = device.measure(at);
        rec.leaf(rebuild ? "silicon.rebuild" : "silicon.powerup",
                 task_span.id(), t0, now_ns(), month);
        stale[d] = 0;
        last_op[d] = at;
        return pattern;
      };
      const auto add = [&](DeviceMonthAccumulator& acc, const BitVector& p) {
        const std::uint64_t t0 = now_ns();
        acc.add(p);
        rec.leaf("analysis.accumulate", task_span.id(), t0, now_ns(), month);
      };
      const auto finish = [&](const DeviceMonthAccumulator& acc) {
        const std::uint64_t t0 = now_ns();
        metrics[d] = acc.finalize();
        rec.leaf("analysis.finalize", task_span.id(), t0, now_ns(), month);
      };
      if (!has_faults) {
        const BitVector first = measure(op);
        if (month == 0) {
          refs[d] = first;
        }
        DeviceMonthAccumulator acc(device.id(), refs[d]);
        add(acc, first);
        for (std::size_t m = 1; m < c.measurements_per_month; ++m) {
          add(acc, measure(op));
        }
        finish(acc);
      } else {
        pufaging::Xoshiro256StarStar fault_rng(pufaging::fault_stream_seed(
            c.fleet.seed, device.id(), month));
        const bool dropout = c.faults.dropout_active(device.id(), month);
        std::optional<DeviceMonthAccumulator> acc;
        if (!refs[d].empty()) {
          acc.emplace(device.id(), refs[d]);
        }
        for (std::size_t s = 0; s < c.measurements_per_month; ++s) {
          const std::uint64_t t0 = now_ns();
          const pufaging::SlotOutcome out = pufaging::advance_slot(
              fault_rng, fault_states[d], c.faults, c.retry, dropout);
          rec.leaf("testbed.faults", task_span.id(), t0, now_ns(), month);
          if (!out.powered) {
            continue;
          }
          OperatingPoint slot_op = op;
          if (out.brownout) {
            slot_op.ramp_time_us *= c.faults.brownout_ramp_factor;
          }
          const BitVector pattern = measure(slot_op);
          if (out.delivered) {
            if (refs[d].empty()) {
              refs[d] = pattern;
            }
            if (!acc) {
              acc.emplace(device.id(), refs[d]);
            }
            add(*acc, pattern);
          }
        }
        if (acc && acc->measurement_count() > 0) {
          finish(*acc);
        } else {
          reported[d] = 0;
        }
      }
      if (month < c.months) {
        const std::uint64_t t0 = now_ns();
        device.age_months(1.0, op);
        rec.leaf("silicon.aging", task_span.id(), t0, now_ns(), month);
        stale[d] = 1;
      }
      task_end[d] = now_ns();
    };
    if (pool) {
      pool->parallel_for(0, n, task);
    } else {
      for (std::size_t d = 0; d < n; ++d) {
        task(d);
      }
    }
    // Pool accounting for the month's fan-out.
    std::uint64_t busy = 0;
    std::uint64_t slowest = 0;
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    for (std::size_t d = 0; d < n; ++d) {
      const std::uint64_t dur = task_end[d] - task_start[d];
      busy += dur;
      slowest = std::max(slowest, dur);
      lo = std::min(lo, task_start[d]);
      hi = std::max(hi, task_end[d]);
    }
    const double mean_task = static_cast<double>(busy) / static_cast<double>(n);
    tally.straggler.push_back(static_cast<double>(slowest) / mean_task);
    const double capacity =
        static_cast<double>(threads) * static_cast<double>(hi - lo);
    tally.idle.push_back(capacity > 0.0
                             ? 1.0 - static_cast<double>(busy) / capacity
                             : 0.0);

    ScopedSpan fold_span(&rec, "analysis.fold", month_span.id(), month);
    if (!has_faults) {
      series.push_back(pufaging::fold_fleet_month(
          std::move(metrics), static_cast<double>(month), fold_options));
    } else {
      std::vector<DeviceMonthMetrics> reporting;
      for (std::size_t d = 0; d < n; ++d) {
        if (reported[d] != 0) {
          reporting.push_back(std::move(metrics[d]));
        }
      }
      series.push_back(pufaging::fold_fleet_month(
          std::move(reporting), static_cast<double>(month), n,
          c.measurements_per_month, fold_options));
    }
  }
  return series;
}

/// The untimed identity check against the hash recorded from the seed
/// commit, at the workload's fixed reference fleet seed. For the paper
/// workload the reference is the paper-scale campaign (24 months × 1000
/// measurements × 16 boards), whose model error against the paper's
/// headline figures is printed as well.
void reference_check(const RunOptions& opts, Report& report) {
  const Json& ref = opts.config.at("reference");
  CampaignConfig c = campaign_config(
      opts, ref, static_cast<std::uint64_t>(ref.at("fleet_seed").as_int()));
  std::optional<ScratchDir> dir;
  if (is_field(opts)) {
    dir.emplace(opts, "ref");
    c.checkpoint_dir = dir->path();
  }
  const std::uint64_t t0 = now_ns();
  const CampaignResult r = pufaging::run_campaign(c);
  report.detail("reference_check_s", static_cast<double>(now_ns() - t0) * 1e-9,
                "s");
  const std::string got = series_sha256(r.series);
  const std::string want = ref.at("series_sha256").as_string();
  report.check("reference series identity (fleet seed " +
                   std::to_string(c.fleet.seed) + ")",
               got == want, "sha256 " + got);
  report.operations(1, got == want ? 0 : 1);
  if (!opts.config.contains("paper")) {
    return;
  }
  const Json& paper = opts.config.at("paper");
  // Table I rows: 0 = WCHD AVG., 6 = noise entropy AVG.
  const pufaging::SummaryTable table = pufaging::build_summary_table(r.series);
  const double wchd = table.rows.at(0).relative_change;
  const double ne = table.rows.at(6).relative_change;
  const double paper_wchd = paper.at("wchd_rel_change").as_double();
  const double paper_ne = paper.at("noise_entropy_rel_change").as_double();
  report.detail("model.wchd_change_pct", wchd * 100.0, "%");
  report.detail("model.noise_entropy_change_pct", ne * 100.0, "%");
  report.detail("model.wchd_error_pp", (wchd - paper_wchd) * 100.0, "pp");
  report.detail("model.noise_entropy_error_pp", (ne - paper_ne) * 100.0, "pp");
  char note[160];
  std::snprintf(note, sizeof(note),
                "WCHD %+.2f %% vs paper %+.1f %%, noise min-entropy %+.2f %% "
                "vs paper %+.1f %%",
                wchd * 100.0, paper_wchd * 100.0, ne * 100.0,
                paper_ne * 100.0);
  // The identity check above pins the model; this records its error
  // against the paper beside the timings.
  report.info("paper_headline_figures", note);
}

/// One timed campaign. Field campaigns get a fresh store directory and
/// `vfs` (nullptr = RealFs, as deployed).
struct CampaignRun {
  double seconds = 0.0;
  std::string sha;
  pufaging::PersistenceHealth persistence;
};

CampaignRun run_one(const RunOptions& opts, CampaignConfig c,
                    pufaging::Vfs* vfs) {
  std::optional<ScratchDir> dir;
  if (is_field(opts)) {
    dir.emplace(opts, "field");
    c.checkpoint_dir = dir->path();
    c.vfs = vfs;
  }
  const std::uint64_t t0 = now_ns();
  CampaignResult r = pufaging::run_campaign(c);
  CampaignRun out;
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  out.sha = series_sha256(r.series);
  out.persistence = r.persistence;
  return out;
}

/// Runs campaigns until `seconds` have passed (at least `min_reps`);
/// checks every series against the first and returns the wall times.
std::vector<double> timed_campaigns(const RunOptions& opts,
                                    const CampaignConfig& c, double seconds,
                                    std::size_t min_reps, pufaging::Vfs* vfs,
                                    std::string& sha, Report& report,
                                    const char* what,
                                    pufaging::PersistenceHealth* persistence =
                                        nullptr) {
  std::vector<double> times;
  std::size_t mismatches = 0;
  const std::uint64_t start = now_ns();
  while (times.size() < min_reps ||
         static_cast<double>(now_ns() - start) * 1e-9 < seconds) {
    const CampaignRun r = run_one(opts, c, vfs);
    times.push_back(r.seconds);
    if (sha.empty()) {
      sha = r.sha;
    } else if (r.sha != sha) {
      ++mismatches;
    }
    if (!r.persistence.incidents.empty()) {
      ++mismatches;
    }
    if (persistence != nullptr) {
      *persistence = r.persistence;
    }
  }
  report.check(std::string(what) + ": every series identical, no store "
                                   "incidents",
               mismatches == 0,
               std::to_string(times.size()) + " campaigns, sha256 " + sha);
  report.operations(times.size(), mismatches);
  return times;
}

/// Median make_fleet time: the untimed preparation a campaign does before
/// its month loop. One construction takes tens of milliseconds, so they
/// are repeated for at least `seconds` (and `kSetupReps` times): the host
/// switches between faster and slower phases every second or so, and the
/// median should not rest on one of them.
double fleet_setup_s(const CampaignConfig& c, double seconds) {
  std::vector<double> t;
  const std::uint64_t start = now_ns();
  while (t.size() < kSetupReps ||
         static_cast<double>(now_ns() - start) * 1e-9 < seconds) {
    const std::uint64_t t0 = now_ns();
    const std::vector<SramDevice> fleet = pufaging::make_fleet(c.fleet);
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (fleet.size() != c.fleet.device_count) {
      throw pufaging::Error("make_fleet returned the wrong fleet size");
    }
  }
  return median(t);
}

struct NameTotals {
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
};

}  // namespace

void run_campaign_bench(const RunOptions& opts, Report& report,
                        SpanRecorder& rec) {
  const CampaignConfig c = campaign_config(
      opts, opts.config, derive_seed(opts.seed, kFleetSeedPurpose));
  const std::size_t snapshots = c.months + 1;
  const double device_months =
      static_cast<double>(c.fleet.device_count * snapshots);
  report.info("threads", std::to_string(c.threads));
  report.info("fleet_seed", std::to_string(c.fleet.seed));
  report.info("shape", std::to_string(c.fleet.device_count) + " boards x " +
                           std::to_string(snapshots) + " snapshots x " +
                           std::to_string(c.measurements_per_month) +
                           " measurements");

  const double setup_s = fleet_setup_s(c, 1.0);
  const std::size_t min_reps = 3;

  if (!opts.trace) {
    std::string sha;
    std::vector<double> t = timed_campaigns(opts, c, opts.seconds, min_reps,
                                            nullptr, sha, report, "campaign");
    std::sort(t.begin(), t.end());
    const double med = median(t);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("throughput_per_s", device_months / med, t.size());
    report.set("p50_us", med * 1e6, t.size());
    // A run holds about ten campaigns: too few for any percentile with
    // ten samples beyond it, so only the spread is recorded.
    report.detail("campaign_s", med, "s", t.size());
    report.detail("campaign_s.min", t.front(), "s", t.size());
    report.detail("campaign_s.max", t.back(), "s", t.size());
    reference_check(opts, report);
    return;
  }

  // Traced pass. Untraced baseline first, then the traced work.
  std::string sha;
  const bool field = is_field(opts);
  const double share = opts.seconds / (field ? 3.0 : 2.0);
  const std::vector<double> base = timed_campaigns(
      opts, c, share, 2, nullptr, sha, report, "untraced baseline");
  const double base_med = median(base);

  // Field: run_campaign with the timing Vfs and the campaign's own obs
  // sinks attached — the store layer is timed from there.
  double sink_med = 0.0;
  double store_ns_per_call = 0.0;
  if (field) {
    TimingVfs timed_vfs(pufaging::RealFs::instance());
    pufaging::obs::MetricsRegistry metrics;
    pufaging::obs::Tracer tracer;
    CampaignConfig cs = c;
    cs.metrics = &metrics;
    cs.tracer = &tracer;
    std::string sink_sha = sha;
    pufaging::PersistenceHealth persistence;
    const std::vector<double> t =
        timed_campaigns(opts, cs, share, 2, &timed_vfs, sink_sha, report,
                        "with obs sinks", &persistence);
    sink_med = median(t);
    const TimingVfs::Counters vc = timed_vfs.counters();
    const double calls = static_cast<double>(t.size());
    // Persistence counts are the same every call.
    report.set("store.appends", static_cast<double>(persistence.wal_appends));
    report.set("store.snapshots", static_cast<double>(persistence.snapshots));
    report.set("store.fsyncs",
               static_cast<double>(vc.fsyncs + vc.dir_fsyncs) / calls);
    report.set("store.bytes_written",
               static_cast<double>(vc.bytes_written) / calls);
    report.set("store.write_us", static_cast<double>(vc.write_ns) / calls * 1e-3);
    report.set("store.fsync_us", static_cast<double>(vc.fsync_ns) / calls * 1e-3);
    store_ns_per_call = static_cast<double>(vc.write_ns + vc.fsync_ns) / calls;
    report.detail("campaign.persist_spans",
                  static_cast<double>(tracer.finished().size()), "count");
  }

  // The replica: spans around every public layer call.
  ReplicaTally tally;
  std::vector<double> replica_t;
  std::size_t replica_bad = 0;
  const std::uint64_t start = now_ns();
  while (replica_t.size() < 2 ||
         static_cast<double>(now_ns() - start) * 1e-9 < share) {
    const std::uint64_t t0 = now_ns();
    const std::vector<FleetMonthMetrics> series =
        replica_campaign(c, rec, tally);
    replica_t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (series_sha256(series) != sha) {
      ++replica_bad;
    }
  }
  report.check("traced replica series bit-identical to run_campaign",
               replica_bad == 0,
               std::to_string(replica_t.size()) + " replica campaigns");
  report.operations(replica_t.size(), replica_bad);
  const double replica_med = median(replica_t);
  const double calls = static_cast<double>(replica_t.size());

  // Per-name totals (durations) and self times.
  const auto durations = rec.duration_by_name();
  const auto selfs = rec.self_by_name();
  const auto dur = [&durations](const char* name) {
    const auto it = durations.find(name);
    return it == durations.end()
               ? NameTotals{}
               : NameTotals{it->second.first, it->second.second};
  };
  const auto self = [&selfs](const char* name) {
    const auto it = selfs.find(name);
    return it == selfs.end() ? 0.0 : static_cast<double>(it->second);
  };
  const NameTotals warm = dur("silicon.powerup");
  const NameTotals rebuild = dur("silicon.rebuild");
  const NameTotals aging = dur("silicon.aging");
  const NameTotals fleet = dur("silicon.make_fleet");
  const NameTotals acc = dur("analysis.accumulate");
  const NameTotals fold = dur("analysis.fold");
  const NameTotals faults = dur("testbed.faults");
  const double window_bits = 8192.0;
  const double warm_ns =
      warm.count == 0 ? 0.0
                      : static_cast<double>(warm.ns) /
                            static_cast<double>(warm.count);
  const double rebuild_ns =
      rebuild.count == 0 ? 0.0
                         : static_cast<double>(rebuild.ns) /
                               static_cast<double>(rebuild.count);
  report.set("silicon.powerup.calls", static_cast<double>(warm.count) / calls);
  report.set("silicon.powerup.ns_per_bit", warm_ns / window_bits, warm.count);
  report.set("silicon.rebuild.calls",
             static_cast<double>(rebuild.count) / calls);
  report.set("silicon.rebuild.us", (rebuild_ns - warm_ns) * 1e-3,
             rebuild.count);
  report.set("silicon.aging.calls", static_cast<double>(aging.count) / calls);
  report.set("silicon.aging.ms_per_device_month",
             aging.count == 0 ? 0.0
                              : static_cast<double>(aging.ns) /
                                    static_cast<double>(aging.count) * 1e-6,
             aging.count);
  report.set("silicon.make_fleet_s",
             static_cast<double>(fleet.ns) / calls * 1e-9, fleet.count);
  report.set("analysis.accumulate.ns_per_measurement",
             acc.count == 0 ? 0.0
                            : static_cast<double>(acc.ns) /
                                  static_cast<double>(acc.count),
             acc.count);
  report.set("analysis.fold.ms_per_month",
             fold.count == 0 ? 0.0
                             : static_cast<double>(fold.ns) /
                                   static_cast<double>(fold.count) * 1e-6,
             fold.count);
  report.set("testbed.faults.slots", static_cast<double>(faults.count) / calls);
  report.set("testbed.faults.ns_per_slot",
             faults.count == 0 ? 0.0
                               : static_cast<double>(faults.ns) /
                                     static_cast<double>(faults.count),
             faults.count);
  report.set("pool.straggler_ratio", mean(tally.straggler),
             tally.straggler.size());
  report.set("pool.idle_frac", mean(tally.idle), tally.idle.size());

  // Busy-time shares: every span's self time, plus (field) the store time
  // measured through the timing Vfs, which the replica does not replay.
  const double orchestration =
      self("campaign") + self("campaign.month") + self("pool.device_month");
  double layers = 0.0;
  for (const char* name :
       {"silicon.powerup", "silicon.rebuild", "silicon.aging",
        "silicon.make_fleet", "analysis.accumulate", "analysis.finalize",
        "analysis.fold",
        "testbed.faults"}) {
    layers += self(name);
  }
  const double store_total = store_ns_per_call * calls;
  const double busy = layers + orchestration + store_total;
  const auto pct = [busy](double v) { return busy > 0.0 ? 100.0 * v / busy : 0.0; };
  report.set("share.silicon.powerup_pct", pct(self("silicon.powerup")));
  report.set("share.silicon.rebuild_pct", pct(self("silicon.rebuild")));
  report.set("share.silicon.aging_pct", pct(self("silicon.aging")));
  report.set("share.analysis_pct",
             pct(self("analysis.accumulate") + self("analysis.finalize") +
                 self("analysis.fold")));
  report.set("share.testbed.faults_pct", pct(self("testbed.faults")));
  report.set("share.store_pct", pct(store_total));
  report.set("trace.attributed_pct", pct(layers + store_total));
  report.set("trace.spans", static_cast<double>(rec.spans().size()));
  // Campaign self time: the month loop's own work between layer calls.
  report.set("testbed.campaign.self_s", orchestration / calls * 1e-9);

  // Overhead: paper compares the traced replica with untraced
  // run_campaign (the same work); field compares run_campaign with its
  // obs sinks and the timing Vfs attached against the plain call.
  const double traced_med = field ? sink_med : replica_med;
  report.set("trace.overhead_pct", (traced_med / base_med - 1.0) * 100.0);
  report.detail("campaign_s.untraced", base_med, "s", base.size());
  report.detail("campaign_s.replica_traced", replica_med, "s",
                replica_t.size());
  if (field) {
    report.detail("campaign_s.with_sinks", sink_med, "s");
  }
  reference_check(opts, report);
}

}  // namespace perfbench
