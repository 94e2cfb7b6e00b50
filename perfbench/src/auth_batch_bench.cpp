// auth-batch: auth::run_load on one worker thread, batch 256, over aged
// reads of years 0-2 plus impostors, against a registry larger than one
// core's L2. run_load builds each year's corpus untimed and times its
// passes of authenticate_batch; the benchmark repeats run_load calls for
// the run's length and reports the medians of what they report.
#include <string>

#include "auth/golay_fast.hpp"
#include "auth_common.hpp"
#include "common/sha256.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using pufaging::auth::AuthDecision;
using pufaging::auth::LoadReport;

namespace {

struct LoadCall {
  LoadReport report;
  double wall_s = 0.0;  ///< The whole call, corpus builds included.
};

/// run_load calls on a one-thread pool until `seconds` have passed (at
/// least two). With `rec`, each call gets an "auth.run_load" span.
std::vector<LoadCall> repeat_load(const pufaging::auth::LoadgenConfig& lc,
                                  const AuthSetup& s, double seconds,
                                  SpanRecorder* rec) {
  pufaging::ThreadPool one(1);
  std::vector<LoadCall> calls;
  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  while (calls.size() < 2 || now_ns() - start < budget) {
    ScopedSpan span(rec, "auth.run_load", 0, calls.size());
    const std::uint64_t t0 = now_ns();
    LoadCall c;
    c.report = pufaging::auth::run_load(lc, *s.service, *s.fleet, one);
    c.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    calls.push_back(std::move(c));
  }
  return calls;
}

/// The decisions witness checks: every timed call reports the same
/// decisions SHA-256, a call on `nproc` threads reports it too, and the
/// fixed reference configuration reports the hash recorded from the seed
/// commit. Returns whether all held.
bool identity_checks(const RunOptions& opts, const AuthShape& shape,
                     const AuthSetup& s, const std::vector<LoadCall>& calls,
                     pufaging::ThreadPool& pool, Report& report) {
  const std::string& sha = calls.front().report.decisions_sha256;
  std::size_t differ = 0;
  for (const LoadCall& c : calls) {
    differ += c.report.decisions_sha256 != sha ? 1 : 0;
  }
  report.check("every run_load call reports the same decisions sha256",
               differ == 0,
               std::to_string(calls.size()) + " calls, sha256 " + sha);
  const LoadReport wide =
      pufaging::auth::run_load(shape.loadgen(1), *s.service, *s.fleet, pool);
  report.check("decisions sha256 on " + std::to_string(pool.size()) +
                   " threads equals the one-thread run's",
               wide.decisions_sha256 == sha);

  const pufaging::Json& ref = opts.config.at("reference");
  const AuthShape ref_shape = AuthShape::fixed(ref);
  const AuthSetup ref_setup = enroll_registry(ref_shape, pool);
  const LoadReport r = pufaging::auth::run_load(
      ref_shape.loadgen(1), *ref_setup.service, *ref_setup.fleet, pool);
  const bool ref_ok =
      r.decisions_sha256 == ref.at("decisions_sha256").as_string();
  report.check("reference decisions sha256 (fleet seed " +
                   std::to_string(ref_shape.fleet_seed) + ")",
               ref_ok, "sha256 " + r.decisions_sha256);
  for (const pufaging::auth::YearLoadStats& y : calls.front().report.years) {
    report.detail("frr.year" + std::to_string(y.year), y.frr, "ratio",
                  y.genuine);
    report.detail("far.year" + std::to_string(y.year), y.far, "ratio",
                  y.impostors);
  }
  return differ == 0 && wide.decisions_sha256 == sha && ref_ok;
}

/// Passes of authenticate_batch over the benchmark's corpus until
/// `seconds` have passed, alternating untraced and traced (a span per
/// batch) so that a drift of the host's speed hits both alike. Every
/// pass is checked against `want`.
struct Replay {
  std::vector<double> untraced_s;  ///< Per pass.
  std::vector<double> traced_s;
  std::uint64_t traced_requests = 0;
  std::size_t mismatched = 0;
};

Replay replay_batches(const AuthSetup& s, std::size_t batch_size,
                      double seconds, const std::vector<AuthDecision>& want,
                      SpanRecorder& rec) {
  Replay out;
  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t pass = 0; pass < 4 || now_ns() - start < budget; ++pass) {
    const bool traced = pass % 2 == 1;
    const std::uint64_t t0 = now_ns();
    std::vector<AuthDecision> got;
    {
      ScopedSpan span(traced ? &rec : nullptr, "auth.pass", 0, pass);
      got = decide_corpus(s, batch_size, traced ? &rec : nullptr, span.id());
    }
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    (traced ? out.traced_s : out.untraced_s).push_back(dt);
    out.traced_requests += traced ? s.corpus.size() : 0;
    out.mismatched += got != want ? 1 : 0;
  }
  return out;
}

/// Extracts the 24-bit block at `bitpos` of a packed row (the service's
/// block layout).
std::uint32_t get24(const std::uint64_t* words, std::size_t bitpos) {
  const std::size_t wi = bitpos >> 6;
  const unsigned sh = static_cast<unsigned>(bitpos & 63U);
  std::uint64_t v = words[wi] >> sh;
  if (sh > 40) {
    v |= words[wi + 1] << (64U - sh);
  }
  return static_cast<std::uint32_t>(v) & 0xFFFFFFU;
}

/// Replays the Golay decode and SHA-256 stages over the workload's own
/// blocks and secrets; returns {ns per block, ns per request hashed}.
std::pair<double, double> replay_golay_sha(const AuthSetup& s) {
  const pufaging::auth::FastGolay& codec = pufaging::auth::FastGolay::instance();
  const pufaging::auth::AuthRegistry& reg = s.service->registry();
  const std::size_t words = s.corpus.words;
  const std::size_t blocks = s.service->config().blocks;
  const std::size_t secret_bytes = (blocks * 12 + 7) / 8;
  std::vector<std::uint32_t> codewords;
  for (std::size_t i = 0; i < s.corpus.size(); ++i) {
    if (!reg.contains(s.corpus.claimed[i])) {
      continue;
    }
    const std::uint64_t* helper = reg.helper(s.corpus.claimed[i]);
    std::vector<std::uint64_t> row(words);
    for (std::size_t w = 0; w < words; ++w) {
      row[w] = helper[w] ^ s.corpus.response(i)[w];
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      codewords.push_back(get24(row.data(), b * 24));
    }
  }
  std::vector<std::uint32_t> messages(codewords.size());
  std::vector<std::uint8_t> ok(codewords.size());
  const std::uint64_t g0 = now_ns();
  for (std::size_t i = 0; i < codewords.size(); ++i) {
    const auto d = codec.decode(codewords[i]);
    messages[i] = d.message;
    ok[i] = d.ok ? 1 : 0;
  }
  const std::uint64_t g1 = now_ns();
  // Secrets of the requests whose every block decoded, packed the way the
  // service packs them before hashing.
  std::vector<std::uint8_t> secrets;
  std::size_t hashed = 0;
  for (std::size_t r = 0; r * blocks < codewords.size(); ++r) {
    std::vector<std::uint64_t> sw((blocks * 12 + 63) / 64);
    bool all_ok = true;
    for (std::size_t b = 0; b < blocks; ++b) {
      all_ok = all_ok && ok[r * blocks + b] != 0;
      const std::size_t bit = b * 12;
      const std::uint64_t m = messages[r * blocks + b];
      sw[bit >> 6] |= m << (bit & 63U);
      if ((bit & 63U) > 52) {
        sw[(bit >> 6) + 1] |= m >> (64U - (bit & 63U));
      }
    }
    if (!all_ok) {
      continue;
    }
    for (std::size_t j = 0; j < secret_bytes; ++j) {
      secrets.push_back(static_cast<std::uint8_t>(sw[j >> 3] >> ((j & 7U) * 8U)));
    }
    ++hashed;
  }
  const std::uint64_t h0 = now_ns();
  for (std::size_t r = 0; r < hashed; ++r) {
    pufaging::Sha256 h;
    h.update(secrets.data() + r * secret_bytes, secret_bytes);
    h.finalize();
  }
  const std::uint64_t h1 = now_ns();
  return {codewords.empty() ? 0.0
                            : static_cast<double>(g1 - g0) /
                                  static_cast<double>(codewords.size()),
          hashed == 0 ? 0.0
                      : static_cast<double>(h1 - h0) /
                            static_cast<double>(hashed)};
}

}  // namespace

void run_auth_batch(const RunOptions& opts, Report& report,
                    SpanRecorder& rec) {
  const AuthShape shape = AuthShape::from(opts.config, opts.seed);
  const std::size_t passes =
      static_cast<std::size_t>(opts.config.at("passes").as_int());
  report.info("threads", "1 (run_load); " + std::to_string(opts.nproc) +
                             " (set-up and identity checks)");
  report.info("load_seed", std::to_string(shape.load_seed));
  report.info("shape", std::to_string(shape.devices) + " devices, " +
                           std::to_string(shape.years) + " years x " +
                           std::to_string(shape.auths_per_year) +
                           " requests x " + std::to_string(passes) +
                           " passes, batch " +
                           std::to_string(shape.batch_size));
  // Set-up, several times: fleet construction and enrollment.
  pufaging::ThreadPool pool(opts.nproc);
  AuthSetup setup;
  std::vector<double> setup_t;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    setup = enroll_registry(shape, pool);
    setup_t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  report.detail("registry_bytes",
                static_cast<double>(setup.service->registry().capacity() *
                                    (setup.service->words_per_response() * 8 +
                                     32 + 1)),
                "bytes");
  const pufaging::auth::LoadgenConfig lc = shape.loadgen(passes);
  const std::uint64_t batches_per_call =
      shape.years * passes *
      ((shape.auths_per_year + shape.batch_size - 1) / shape.batch_size);

  if (!opts.trace) {
    const std::vector<LoadCall> calls =
        repeat_load(lc, setup, opts.seconds, nullptr);
    const bool ok = identity_checks(opts, shape, setup, calls, pool, report);
    std::uint64_t attempted = 0;
    double timed_s = 0.0;
    std::vector<double> batch_us;  ///< Per call: its mean batch time.
    std::vector<double> p50;
    std::vector<double> p99;
    for (const LoadCall& c : calls) {
      attempted += c.report.total_requests;
      timed_s += c.report.total_seconds;
      batch_us.push_back(c.report.total_seconds * 1e6 /
                         static_cast<double>(batches_per_call));
      for (const pufaging::auth::YearLoadStats& y : c.report.years) {
        p50.push_back(static_cast<double>(y.p50_ns) * 1e-3);
        p99.push_back(static_cast<double>(y.p99_ns) * 1e-3);
      }
    }
    report.operations(attempted, ok ? 0 : attempted);
    const std::uint64_t n = batches_per_call * calls.size();
    // The host alternates between phases about 1.7x apart, each lasting
    // around a second; a year's batch p50 falls in one phase or the
    // other. The gated figures are therefore means within a call (which
    // span several phases): auths/s over all timed passes, and the median
    // over calls of a call's mean batch time. run_load's own percentiles
    // (medians over the calls' year points) are recorded beside them.
    const double auths_per_s = static_cast<double>(attempted) / timed_s;
    report.detail("auths_per_s", auths_per_s, "1/s", attempted);
    report.detail("batch_mean_us", median(batch_us), "us", calls.size());
    report.detail("batch_p50_us", median(p50), "us", n);
    report.detail("batch_p99_us", median(p99), "us", n);
    report.detail("run_load_calls", static_cast<double>(calls.size()),
                  "count");
    report.set("setup_s", median(setup_t));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("throughput_per_s", auths_per_s, attempted);
    report.set("p50_us", median(batch_us), calls.size());
    return;
  }

  // Traced pass. run_load calls under spans give authenticate_batch's
  // share of the workload (run_load's timed region over the call); a
  // replay of authenticate_batch over the benchmark's own corpus of the
  // same shape, untraced and then with a span per batch, gives the cost
  // per request and the tracing overhead.
  const std::vector<LoadCall> calls =
      repeat_load(lc, setup, opts.seconds / 2, &rec);
  const bool ok = identity_checks(opts, shape, setup, calls, pool, report);
  // The replays' corpus, built on one thread as run_load builds its own:
  // the cost per read is what a run_load call spends outside its timed
  // region.
  double corpus_us = 0.0;
  {
    pufaging::ThreadPool one(1);
    const std::uint64_t t0 = now_ns();
    build_corpus(setup, shape, one);
    const std::uint64_t t1 = now_ns();
    rec.leaf("auth.corpus", 0, t0, t1, setup.corpus.size());
    corpus_us = static_cast<double>(t1 - t0) * 1e-3 /
                static_cast<double>(setup.corpus.size());
    report.set("auth.corpus.us_per_request", corpus_us, setup.corpus.size());
  }
  const std::vector<AuthDecision> want =
      decide_corpus(setup, shape.batch_size);
  const Replay replay =
      replay_batches(setup, shape.batch_size, opts.seconds / 2, want, rec);
  const std::size_t mismatched = replay.mismatched;
  report.check("every replay pass decides identically", mismatched == 0);
  std::uint64_t load_requests = 0;
  double timed_s = 0.0;
  double wall_s = 0.0;
  for (const LoadCall& c : calls) {
    load_requests += c.report.total_requests;
    timed_s += c.report.total_seconds;
    wall_s += c.wall_s;
  }
  const std::uint64_t attempted =
      load_requests +
      (replay.untraced_s.size() + replay.traced_s.size()) * want.size();
  report.operations(attempted, ok && mismatched == 0 ? 0 : attempted);

  std::uint64_t counts[4] = {0, 0, 0, 0};
  for (AuthDecision d : want) {
    ++counts[static_cast<int>(d)];
  }
  report.set("auth.decisions.accept", static_cast<double>(counts[0]));
  report.set("auth.decisions.reject_unknown", static_cast<double>(counts[1]));
  report.set("auth.decisions.reject_decode", static_cast<double>(counts[2]));
  report.set("auth.decisions.reject_key", static_cast<double>(counts[3]));
  const auto durations = rec.duration_by_name();
  const auto batch_it = durations.find("auth.batch");
  const double batch_ns = batch_it == durations.end()
                              ? 0.0
                              : static_cast<double>(batch_it->second.first);
  report.set("auth.batch.ns_per_request",
             batch_ns / static_cast<double>(replay.traced_requests),
             replay.traced_requests);
  report.set("trace.spans", static_cast<double>(rec.spans().size()));
  report.set("trace.overhead_pct",
             (median(replay.traced_s) / median(replay.untraced_s) - 1.0) *
                 100.0,
             replay.traced_s.size());

  const auto [golay_ns, sha_ns] = replay_golay_sha(setup);
  report.set("auth.golay.ns_per_block", golay_ns);
  report.set("auth.sha256.ns_per_request", sha_ns);

  // Enrollment on one thread over a slice of the workload's devices.
  constexpr std::size_t kSlice = 1024;
  const std::uint64_t e0 = now_ns();
  for (std::uint64_t d = 0; d < kSlice; ++d) {
    setup.service->make_enrollment(d, setup.fleet->enrollment_response(d));
  }
  const std::uint64_t e1 = now_ns();
  rec.leaf("keygen.enroll", 0, e0, e1, kSlice);
  report.set("keygen.enroll.us_per_device",
             static_cast<double>(e1 - e0) * 1e-3 / kSlice, kSlice);
  // run_load's timed region is its authenticate_batch passes; the rest of
  // a call is mostly its one-thread corpus builds, estimated from the
  // replays' corpus build.
  const double built = static_cast<double>(calls.size() * shape.years *
                                           shape.auths_per_year);
  report.set("share.auth.batch_pct", 100.0 * timed_s / wall_s);
  report.set("trace.attributed_pct",
             100.0 * (timed_s + built * corpus_us * 1e-6) / wall_s);
  report.detail("run_load.wall_s", wall_s, "s", calls.size());
  report.detail("run_load.timed_s", timed_s, "s", calls.size());
}

}  // namespace perfbench
