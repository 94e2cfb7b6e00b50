// auth-socket: a SocketServer (inline pump) on a Unix socket inside this
// process, driven by an open-loop generator: one sender thread, one
// receiver thread, at most nproc connections, frames pre-encoded untimed.
//
// Phases: the fixed `light` rate, in parts on servers that poll without
// sleeping; then on the server as deployed the fixed `heavy` rate and a
// search over the fixed rate ladder for the highest rate whose p99 round
// trip meets the latency limit with no growing backlog and no failure.
// Each server gets a short warm-up first. At light and heavy at most
// `window` requests are in flight, below the daemon's shed watermark. The
// traced run adds an overload probe at the top rung instead of the
// search. Every answer is checked against the decisions authenticate_batch
// gives for the same read (computed untimed before the phases).
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <limits>
#include <thread>

#include "auth_common.hpp"
#include "authd/server.hpp"
#include "classify.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "openloop.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using pufaging::auth::AuthDecision;
namespace authd = pufaging::authd;

namespace {

/// A phase's percentiles are medians over windows of this length: the
/// host can stall a running thread for milliseconds a few times a second,
/// and such a stall should move one window, not the figure.
constexpr double kWindowSeconds = 0.1;

/// Pre-encoded request frames; frame i carries request id i and corpus
/// entry i % corpus size. All frames have the same length.
struct FrameRing {
  std::string bytes;
  std::size_t frame_len = 0;
  std::size_t count = 0;

  const char* frame(std::size_t i) const {
    return bytes.data() + i * frame_len;
  }
};

FrameRing encode_ring(const AuthCorpus& corpus, std::size_t count) {
  FrameRing ring;
  ring.count = count;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = i % corpus.size();
    authd::AuthRequestMsg msg;
    msg.request_id = i;
    msg.device_id = corpus.claimed[k];
    msg.response.assign(corpus.response(k), corpus.response(k) + corpus.words);
    const std::string f = authd::encode_auth_request(msg);
    if (ring.frame_len == 0) {
      ring.frame_len = f.size();
      ring.bytes.reserve(f.size() * count);
    } else if (f.size() != ring.frame_len) {
      throw pufaging::Error("request frames differ in length");
    }
    ring.bytes += f;
  }
  return ring;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw pufaging::InvalidArgument("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw pufaging::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw pufaging::IoError("connect " + path + ": " + std::strerror(err));
  }
  return fd;
}

/// Sends all of `len` bytes on a blocking socket.
bool send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Waits until `target_ns` (steady clock). Spinning keeps the host's
/// timer slack and wake-up latency (tens of microseconds on a virtual
/// machine, varying with how busy the host is) out of the generator's
/// lateness; sleeping leaves the CPU to the server where there are too
/// few CPUs to spin on.
void wait_until(std::uint64_t target_ns, bool spin) {
  if (spin) {
    while (now_ns() < target_ns) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    return;
  }
  if (now_ns() >= target_ns) {
    return;
  }
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(target_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(target_ns % 1'000'000'000ULL);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// What one phase measured.
struct PhaseResult {
  double rate = 0.0;
  std::size_t scheduled = 0;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t failures = 0;  ///< Refused, wrong, unanswered or unsent.
  std::uint64_t refused = 0;
  std::uint64_t wrong = 0;
  Windowed rtt;                ///< Round trips from due time, in us.
  Lateness lateness;
  bool backlog_growing = false;
  std::uint64_t outstanding_max = 0;
  bool stream_error = false;        ///< The response stream failed to parse.
  std::uint64_t server_cpu_ns = 0;  ///< Server thread CPU over the phase.
  double rtt_from_send_p50 = 0.0;  ///< Median from actual send, in us.
};

bool meets_slo(const PhaseResult& r, double slo_us) {
  return r.failures == 0 && !r.stream_error && r.sent == r.scheduled &&
         r.rtt.p99 <= slo_us && !r.backlog_growing &&
         r.lateness.p99_us <= slo_us;
}

/// The daemon plus its socket server, serving on their own thread.
class ServerHost {
 public:
  ServerHost(const pufaging::auth::AuthService& service,
             const authd::DaemonConfig& config, const std::string& path,
             int poll_interval_ms)
      : daemon_(service, config),
        server_(daemon_, server_config(path, poll_interval_ms)),
        thread_([this] { report_ = server_.run(stop_); }) {}
  ServerHost(const ServerHost&) = delete;
  ServerHost& operator=(const ServerHost&) = delete;
  ~ServerHost() { stop(); }

  /// Stops the server (graceful drain) and joins its thread.
  const authd::ServerReport& stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return report_;
  }

  /// CPU time the server thread has used so far (ns).
  std::uint64_t cpu_ns() {
    clockid_t clock = 0;
    timespec ts{};
    if (::pthread_getcpuclockid(thread_.native_handle(), &clock) != 0 ||
        ::clock_gettime(clock, &ts) != 0) {
      return 0;
    }
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

 private:
  static authd::ServerConfig server_config(const std::string& path,
                                           int poll_interval_ms) {
    authd::ServerConfig c;
    c.socket_path = path;
    c.poll_interval_ms = poll_interval_ms;
    return c;
  }

  authd::AuthDaemon daemon_;
  authd::SocketServer server_;
  std::atomic<bool> stop_{false};
  authd::ServerReport report_;
  std::thread thread_;  ///< Last: joined before the members it uses die.
};

/// Per-request records of a phase. They are allocated once per run, for
/// the largest phase, so peak memory depends neither on which ladder
/// rungs a run happens to probe nor on how the allocator reuses memory
/// from one server to the next.
struct RequestLog {
  explicit RequestLog(std::size_t max_requests)
      : due(max_requests),
        sent_ns(max_requests),
        recv_ns(max_requests),
        outcome(max_requests),
        rtt_us(max_requests) {}
  std::vector<std::uint64_t> due;  ///< Offsets from the phase start.
  std::vector<std::uint64_t> sent_ns;
  std::vector<std::uint64_t> recv_ns;
  std::vector<std::uint8_t> outcome;
  std::vector<double> rtt_us;
};

/// The open-loop client: `conns` connections, one sender thread and one
/// receiver thread per phase, both spinning or both sleeping while they
/// wait.
class OpenLoopClient {
 public:
  OpenLoopClient(const std::string& path, std::size_t conns, bool spin,
                 const FrameRing& ring, const std::vector<AuthDecision>& oracle,
                 std::size_t corpus_size, RequestLog& log)
      : spin_(spin),
        ring_(ring),
        oracle_(oracle),
        corpus_size_(corpus_size),
        log_(log) {
    for (std::size_t c = 0; c < conns; ++c) {
      fds_.push_back(connect_unix(path));
    }
  }
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;
  ~OpenLoopClient() {
    for (int fd : fds_) {
      ::close(fd);
    }
  }

  /// One phase at `rate` for `seconds`, with at most `window` requests
  /// in flight (capped at half the ring, which keeps ids unambiguous).
  PhaseResult run(double rate, double seconds, std::uint64_t seed,
                  std::uint64_t window, SpanRecorder* rec,
                  std::uint32_t parent);

 private:
  bool spin_;
  const FrameRing& ring_;
  const std::vector<AuthDecision>& oracle_;
  std::size_t corpus_size_;
  std::vector<int> fds_;
  std::uint64_t next_seq_ = 0;  ///< Global request sequence across phases.
  RequestLog& log_;
};

PhaseResult OpenLoopClient::run(double rate, double seconds,
                                std::uint64_t seed, std::uint64_t window,
                                SpanRecorder* rec, std::uint32_t parent) {
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  if (count > log_.due.size()) {
    throw pufaging::InvalidArgument("phase larger than the client buffers");
  }
  const std::uint64_t* due = log_.due.data();
  poisson_fill(seed, rate, log_.due.data(), count);
  std::fill_n(log_.sent_ns.begin(), count, 0);
  std::fill_n(log_.recv_ns.begin(), count, 0);
  std::fill_n(log_.outcome.begin(), count,
              static_cast<std::uint8_t>(Outcome::kUnanswered));
  std::uint64_t* sent_ns = log_.sent_ns.data();
  std::uint64_t* recv_ns = log_.recv_ns.data();
  std::uint8_t* outcome = log_.outcome.data();
  double* rtt_us = log_.rtt_us.data();
  const std::size_t conns = fds_.size();
  const std::uint64_t base = next_seq_;
  next_seq_ += count;
  const std::size_t ring = ring_.count;
  window = std::clamp<std::uint64_t>(window, 1, ring / 2);

  std::atomic<std::uint64_t> sent_count{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> sender_done{false};
  std::vector<std::uint64_t> outstanding_samples;
  const std::uint64_t start = now_ns() + 2'000'000;
  const std::uint64_t phase_end =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  // Past this the sender gives up: the requests it has not sent fail.
  const std::uint64_t give_up = phase_end + 2'000'000'000ULL;

  std::thread sender([&] {
    std::vector<std::string> out(conns);
    std::size_t i = 0;
    while (i < count) {
      wait_until(start + due[i], spin_);
      // A full window holds the sender until answers come back; the wait
      // shows in its lateness and in every round trip, timed from due.
      std::uint64_t room = 0;
      for (;;) {
        const std::uint64_t in_flight =
            i - std::min<std::uint64_t>(
                    i, answered.load(std::memory_order_relaxed));
        room = window - std::min(window, in_flight);
        if (room > 0 || now_ns() > give_up) {
          break;
        }
        wait_until(now_ns() + 50'000, spin_);
      }
      if (room == 0) {
        break;
      }
      // Everything due by now goes out, one write per connection.
      const std::uint64_t now = now_ns();
      const std::uint64_t burst = std::min<std::uint64_t>(256, room);
      std::size_t j = i;
      while (j < count && start + due[j] <= now && j - i < burst) {
        const std::size_t id = (base + j) % ring;
        out[j % conns].append(ring_.frame(id), ring_.frame_len);
        ++j;
      }
      // Published before the write: an answer can arrive before send()
      // returns, and the receiver maps ids through this count.
      sent_count.store(j, std::memory_order_release);
      bool ok = true;
      for (std::size_t c = 0; c < conns; ++c) {
        if (!out[c].empty()) {
          ok = send_all(fds_[c], out[c].data(), out[c].size()) && ok;
          out[c].clear();
        }
      }
      const std::uint64_t t = now_ns();
      for (std::size_t k = i; k < j; ++k) {
        sent_ns[k] = t;
      }
      i = j;
      if (!ok) {
        break;
      }
    }
    sender_done.store(true, std::memory_order_release);
  });

  std::exception_ptr receiver_error;
  std::thread receiver([&] {
    try {
      std::vector<authd::FrameReader> readers(conns);
      std::vector<pollfd> pfds(conns);
      for (std::size_t c = 0; c < conns; ++c) {
        pfds[c] = pollfd{fds_[c], POLLIN, 0};
      }
      std::vector<char> buf(1 << 16);
      std::uint64_t done_at = 0;
      std::uint64_t next_sample = start;
      const std::uint64_t sample_every = std::max<std::uint64_t>(
          1'000'000, static_cast<std::uint64_t>(seconds * 1e9 / 64.0));
      for (;;) {
        const std::uint64_t got = answered.load(std::memory_order_relaxed);
        const std::uint64_t now = now_ns();
        if (now >= next_sample && now < phase_end) {
          outstanding_samples.push_back(
              sent_count.load(std::memory_order_acquire) - got);
          next_sample += sample_every;
        }
        if (sender_done.load(std::memory_order_acquire)) {
          if (got >= sent_count.load(std::memory_order_acquire)) {
            break;
          }
          if (done_at == 0) {
            done_at = now;
          } else if (now - done_at > 2'000'000'000ULL) {
            break;  // The rest stay unanswered.
          }
        }
        // Polls like the sender waits: spinning, or blocking until an
        // answer arrives.
        if (::poll(pfds.data(), pfds.size(), spin_ ? 0 : 1) <= 0) {
          continue;
        }
        for (std::size_t c = 0; c < conns; ++c) {
          if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
            continue;
          }
          const ssize_t n =
              ::recv(fds_[c], buf.data(), buf.size(), MSG_DONTWAIT);
          if (n <= 0) {
            if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
              pfds[c].fd = -1;  // Closed: the rest go unanswered.
            }
            continue;
          }
          const std::uint64_t t = now_ns();
          readers[c].feed(
              std::string_view(buf.data(), static_cast<std::size_t>(n)));
          const std::uint64_t sent_now =
              sent_count.load(std::memory_order_acquire);
          while (std::optional<authd::Frame> f = readers[c].next()) {
            const authd::AuthResponseMsg msg = authd::parse_auth_response(*f);
            // Map the ring id back to this phase's sequence number: the
            // newest sent request with that id.
            const std::uint64_t id = msg.request_id % ring;
            const std::uint64_t j0 = (id + ring - base % ring) % ring;
            if (sent_now == 0 || j0 > sent_now - 1) {
              continue;  // Not a request of this phase.
            }
            const std::uint64_t j = j0 + ring * ((sent_now - 1 - j0) / ring);
            if (recv_ns[j] != 0) {
              continue;
            }
            recv_ns[j] = t;
            outcome[j] = static_cast<std::uint8_t>(
                classify(msg, oracle_[id % corpus_size_]));
            answered.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    } catch (...) {
      // A malformed response stream: the rest of the phase goes unanswered.
      receiver_error = std::current_exception();
    }
  });
  sender.join();
  receiver.join();

  PhaseResult r;
  r.rate = rate;
  r.scheduled = count;
  r.sent = sent_count.load();
  r.stream_error = receiver_error != nullptr;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t> due_abs(due, due + count);
  std::vector<std::uint64_t> sent(sent_ns, sent_ns + count);
  for (std::size_t i = 0; i < count; ++i) {
    due_abs[i] += start;
    const auto o = static_cast<Outcome>(outcome[i]);
    r.answered += recv_ns[i] != 0 ? 1 : 0;
    r.refused += o == Outcome::kRefused ? 1 : 0;
    r.wrong += o == Outcome::kWrongDecision ? 1 : 0;
    if (is_failure(o)) {
      ++r.failures;
      rtt_us[i] = kInf;  // A failure misses any latency limit.
    } else {
      rtt_us[i] = static_cast<double>(recv_ns[i] - due_abs[i]) * 1e-3;
    }
    if (rec != nullptr && recv_ns[i] != 0) {
      rec->leaf("socket.request", parent, due_abs[i], recv_ns[i], base + i);
    }
  }
  std::vector<double> from_send;
  from_send.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (recv_ns[i] != 0 && sent[i] != 0) {
      from_send.push_back(static_cast<double>(recv_ns[i] - sent[i]) * 1e-3);
    }
  }
  r.rtt_from_send_p50 = from_send.empty() ? 0.0 : median(from_send);
  r.lateness = lateness(due_abs, sent);
  r.rtt = windowed_percentiles(
      std::vector<double>(rtt_us, rtt_us + count),
      static_cast<std::size_t>(seconds / kWindowSeconds));
  r.backlog_growing = backlog_growing(outstanding_samples, ring / 32);
  for (std::uint64_t o : outstanding_samples) {
    r.outstanding_max = std::max(r.outstanding_max, o);
  }
  return r;
}

/// The daemon configuration: production defaults for queue cap, shed
/// watermark and deadline; the rate limiter off and the lockout budget
/// out of reach, so every answer on this legitimate mix is a decision.
authd::DaemonConfig daemon_config() {
  authd::DaemonConfig c;
  c.pump_threads = 1;
  c.rate.burst = 0;
  c.lockout.retry_budget = std::numeric_limits<std::uint32_t>::max();
  return c;
}

/// One connection per CPU, at most four.
std::size_t connections(const RunOptions& opts) {
  return std::min<std::size_t>(opts.nproc, 4);
}

struct SocketSetup {
  AuthSetup auth;
  std::vector<AuthDecision> oracle;
  FrameRing ring;
};

/// How long each phase of a session runs.
struct SessionPlan {
  double light_s = 0.0;   ///< 0 = no light phase.
  double heavy_s = 0.0;   ///< 0 = no heavy phase.
  double ladder_s = 0.0;  ///< 0 = no SLO search.
  /// Seconds at the top ladder rung, above the server's capacity, after
  /// the heavy phase (0 = none): the probe that makes the daemon shed.
  double overload_s = 0.0;
};

struct Session {
  PhaseResult light;
  std::vector<double> light_part_p50;  ///< The light phase's parts' p50s.
  PhaseResult heavy;
  PhaseResult overload;
  std::vector<PhaseResult> ladder;  ///< Probes in the order run.
  double max_rate_at_slo = 0.0;
  std::vector<authd::ServerReport> servers;  ///< One per server run.
  double connect_s = 0.0;
  /// Peak RSS after the light and heavy phases: the overload of the
  /// probes that follow grows the daemon's queue and output buffers by
  /// however deep their backlog happened to get.
  double load_peak_rss_mb = 0.0;
};

/// A phase run in parts, as one phase: the counts add up, and the
/// percentiles and lateness are medians over the parts.
PhaseResult merge_parts(const std::vector<PhaseResult>& parts) {
  PhaseResult m;
  std::vector<double> p50, p90, p99, lag50, lag99, from_send;
  for (const PhaseResult& p : parts) {
    m.rate = p.rate;
    m.scheduled += p.scheduled;
    m.sent += p.sent;
    m.answered += p.answered;
    m.failures += p.failures;
    m.refused += p.refused;
    m.wrong += p.wrong;
    m.rtt.windows += p.rtt.windows;
    m.lateness.sent += p.lateness.sent;
    m.lateness.unsent += p.lateness.unsent;
    m.lateness.max_us = std::max(m.lateness.max_us, p.lateness.max_us);
    m.backlog_growing = m.backlog_growing || p.backlog_growing;
    m.outstanding_max = std::max(m.outstanding_max, p.outstanding_max);
    m.stream_error = m.stream_error || p.stream_error;
    m.server_cpu_ns += p.server_cpu_ns;
    p50.push_back(p.rtt.p50);
    from_send.push_back(p.rtt_from_send_p50);
    p90.push_back(p.rtt.p90);
    p99.push_back(p.rtt.p99);
    lag50.push_back(p.lateness.p50_us);
    lag99.push_back(p.lateness.p99_us);
  }
  m.rtt.p50 = median(p50);
  m.rtt.p90 = median(p90);
  m.rtt.p99 = median(p99);
  m.rtt_from_send_p50 = median(from_send);
  m.lateness.p50_us = median(lag50);
  m.lateness.p99_us = median(lag99);
  return m;
}

/// Spinning needs a CPU for each of the server, the sender and the
/// receiver, and one to spare; with fewer, spinning threads would take
/// turns on a CPU and the round trip would measure the scheduler.
bool spinning(const RunOptions& opts) { return opts.nproc >= 4; }

/// The planned phases, each on a fresh server with connected clients.
///
/// When spinning, the light phase gets servers that poll without
/// sleeping: at light load a sleeping server thread is woken for nearly
/// every request, and that wake-up (tens of microseconds on a virtual
/// machine, varying with how busy the host is) would be most of the
/// round trip. Polling, the round trip is the program's own path:
/// syscalls, framing, the daemon core. The light phase runs in parts, each
/// on its own server thread, and reports the median part: where the host
/// places a thread moves one part, not the figure. The heavy phase, the
/// overload probe and the SLO search get the server as deployed, so its
/// CPU time per request can be measured.
Session run_session(const RunOptions& opts, const SocketSetup& s,
                    const authd::DaemonConfig& dc, const SessionPlan& plan,
                    SpanRecorder* rec) {
  const pufaging::Json& cfg = opts.config;
  const std::size_t conns = connections(opts);
  const double slo = cfg.at("slo_p99_us").as_double();
  const double light = cfg.at("light_rate").as_double();
  const double heavy = cfg.at("heavy_rate").as_double();
  const auto window = static_cast<std::uint64_t>(cfg.at("window").as_int());
  const double warmup_s = cfg.at("warmup_s").as_double();
  const double probe_s = cfg.at("probe_s").as_double();
  const pufaging::Json::Array& rungs = cfg.at("ladder").as_array();
  const std::uint64_t ring = s.ring.count;
  const bool spin = spinning(opts);
  const int deployed_poll_ms = authd::ServerConfig{}.poll_interval_ms;
  const double max_requests =
      std::max({light * std::max(plan.light_s, warmup_s), heavy * plan.heavy_s,
                rungs.back().as_double() * probe_s}) +
      1.0;
  const std::uint32_t root = rec != nullptr ? rec->open() : 0;
  const std::uint64_t root_start = now_ns();
  std::uint64_t phase_seed = derive_seed(opts.seed, 0x50CE7);

  RequestLog log(static_cast<std::size_t>(max_requests));
  Session out;
  static int server_no = 0;  // Unique socket paths across sessions.
  // Serves `phases` on a fresh server after a warm-up at the light rate.
  const auto serve = [&](int poll_interval_ms, const auto& phases) {
    const std::string path = opts.out_dir + "/tmp/authd-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(server_no++) + ".sock";
    const std::uint64_t t0 = now_ns();
    ServerHost host(*s.auth.service, dc, path, poll_interval_ms);
    {
      OpenLoopClient client(path, conns, spin, s.ring, s.oracle,
                            s.auth.corpus.size(), log);
      out.connect_s += static_cast<double>(now_ns() - t0) * 1e-9;
      client.run(light, warmup_s, phase_seed++, window, nullptr, 0);
      phases(client, host);
    }
    out.servers.push_back(host.stop());
    ::unlink(path.c_str());
  };

  if (plan.light_s > 0.0) {
    const auto parts =
        static_cast<std::size_t>(cfg.at("light_sessions").as_int());
    std::vector<PhaseResult> light_parts;
    for (std::size_t i = 0; i < parts; ++i) {
      serve(spin ? 0 : deployed_poll_ms,
            [&](OpenLoopClient& client, ServerHost&) {
        light_parts.push_back(
            client.run(light, plan.light_s / static_cast<double>(parts),
                       phase_seed++, window, rec, root));
      });
    }
    out.light = merge_parts(light_parts);
    for (const PhaseResult& p : light_parts) {
      out.light_part_p50.push_back(p.rtt.p50);
    }
  }
  serve(deployed_poll_ms, [&](OpenLoopClient& client, ServerHost& host) {
    if (plan.heavy_s > 0.0) {
      const std::uint64_t cpu0 = host.cpu_ns();
      out.heavy = client.run(heavy, plan.heavy_s, phase_seed++, window, rec,
                             root);
      out.heavy.server_cpu_ns = host.cpu_ns() - cpu0;
    }
    out.load_peak_rss_mb = peak_rss_mb();
    if (plan.overload_s > 0.0) {
      out.overload = client.run(rungs.back().as_double(), plan.overload_s,
                                phase_seed++, ring, nullptr, 0);
    }
    if (plan.ladder_s > 0.0) {
      // Binary search over the fixed ladder for the highest rung that
      // meets the limit (lo passes or is -1, hi fails or is past the end).
      long lo = -1;
      long hi = static_cast<long>(rungs.size());
      const std::uint64_t deadline =
          now_ns() + static_cast<std::uint64_t>(plan.ladder_s * 1e9);
      while (hi - lo > 1 && (out.ladder.empty() || now_ns() < deadline)) {
        const long mid = lo + (hi - lo) / 2;
        PhaseResult p =
            client.run(rungs[static_cast<std::size_t>(mid)].as_double(),
                       probe_s, phase_seed++, ring, nullptr, 0);
        const bool pass = meets_slo(p, slo);
        out.ladder.push_back(p);
        (pass ? lo : hi) = mid;
      }
      out.max_rate_at_slo =
          lo < 0 ? 0.0 : rungs[static_cast<std::size_t>(lo)].as_double();
    }
  });
  if (rec != nullptr) {
    rec->record("socket.session", root, 0, root_start, now_ns());
  }
  return out;
}

/// Sans-IO replay of the ring's first `count` frames through the daemon
/// core (on_bytes + pump + consume_output), `chunk` frames per feed,
/// round-robin over `conns` connections. Every decision is checked against
/// the oracle; the response frames are kept for the wire-parse replay.
struct CoreReplay {
  double ns_per_request = 0.0;
  std::uint64_t mismatches = 0;
  std::string responses;  ///< Concatenated response frames.
};

CoreReplay replay_core(const SocketSetup& s, std::size_t conns,
                       std::size_t count, std::size_t chunk,
                       SpanRecorder& rec) {
  authd::AuthDaemon daemon(*s.auth.service, daemon_config());
  std::vector<authd::AuthDaemon::ConnId> ids;
  for (std::size_t c = 0; c < conns; ++c) {
    ids.push_back(daemon.open_connection());
  }
  CoreReplay out;
  std::uint64_t busy = 0;
  std::vector<authd::FrameReader> readers(conns);
  for (std::size_t begin = 0, turn = 0; begin < count;
       begin += chunk, ++turn) {
    const std::size_t n = std::min(chunk, count - begin);
    const std::size_t c = turn % conns;
    const std::uint64_t t0 = now_ns();
    daemon.on_bytes(ids[c], std::string_view(s.ring.frame(begin),
                                             n * s.ring.frame_len));
    while (!daemon.queue_flushed()) {
      daemon.pump();
    }
    const std::uint64_t t1 = now_ns();
    rec.leaf("authd.core", 0, t0, t1, begin);
    busy += t1 - t0;
    for (std::size_t k = 0; k < conns; ++k) {
      const std::string_view o = daemon.output(ids[k]);
      if (o.empty()) {
        continue;
      }
      out.responses.append(o);
      readers[k].feed(o);
      const std::uint64_t t2 = now_ns();
      daemon.consume_output(ids[k], o.size());
      busy += now_ns() - t2;
    }
  }
  std::size_t seen = 0;
  for (authd::FrameReader& r : readers) {
    while (std::optional<authd::Frame> f = r.next()) {
      const authd::AuthResponseMsg msg = authd::parse_auth_response(*f);
      ++seen;
      if (is_failure(classify(
              msg, s.oracle[msg.request_id % s.auth.corpus.size()]))) {
        ++out.mismatches;
      }
    }
  }
  out.mismatches += count - std::min(count, seen);
  out.ns_per_request = static_cast<double>(busy) / static_cast<double>(count);
  return out;
}

bool drained_clean(const Session& ses) {
  return std::all_of(
      ses.servers.begin(), ses.servers.end(),
      [](const authd::ServerReport& r) { return r.drained_clean; });
}

/// The tallies of a session's servers, summed.
authd::DaemonStats session_stats(const Session& ses) {
  authd::DaemonStats sum;
  for (const authd::ServerReport& r : ses.servers) {
    sum.decided += r.stats.decided;
    sum.pump_batches_formed += r.stats.pump_batches_formed;
    sum.shed += r.stats.shed;
    sum.retry_after += r.stats.retry_after;
    sum.deadline_expired += r.stats.deadline_expired;
  }
  return sum;
}

double server_cpu_us_per_request(const PhaseResult& p) {
  return p.answered == 0 ? 0.0
                         : static_cast<double>(p.server_cpu_ns) * 1e-3 /
                               static_cast<double>(p.answered);
}

void report_phase(Report& report, const std::string& tag,
                  const PhaseResult& p) {
  const std::uint64_t n = p.scheduled;
  report.detail("offered_rate." + tag, p.rate, "1/s");
  report.detail("rtt_p50_us." + tag, p.rtt.p50, "us", n);
  report.detail("rtt_from_send_p50_us." + tag, p.rtt_from_send_p50, "us",
                p.answered);
  report.detail("rtt_p90_us." + tag, p.rtt.p90, "us", n);
  report.detail("rtt_p99_us." + tag, p.rtt.p99, "us", n);
  report.detail("rtt_windows." + tag, static_cast<double>(p.rtt.windows),
                "count");
  report.detail("loadgen.lag_p50_us." + tag, p.lateness.p50_us, "us",
                p.lateness.sent);
  report.detail("loadgen.lag_p99_us." + tag, p.lateness.p99_us, "us",
                p.lateness.sent);
  report.detail("loadgen.lag_max_us." + tag, p.lateness.max_us, "us",
                p.lateness.sent);
  if (p.server_cpu_ns > 0) {
    report.detail("server_cpu_us_per_request." + tag,
                  server_cpu_us_per_request(p), "us", p.answered);
  }
  report.detail("fail_frac." + tag, fail_frac(p.failures, n), "ratio", n);
}

/// The correctness checks of a session's answers. A decision that differs
/// from the oracle, or a response stream that fails to parse, makes the
/// run incorrect. Refused and unanswered requests are failed operations
/// (counted by the caller), not incorrect ones: shedding under load is a
/// performance outcome.
void check_answers(Report& report, std::vector<const PhaseResult*> phases,
                   const std::vector<PhaseResult>& ladder) {
  std::uint64_t wrong = 0;
  std::uint64_t refused = 0;
  std::uint64_t unanswered = 0;
  bool stream_error = false;
  for (const PhaseResult& p : ladder) {
    phases.push_back(&p);
  }
  for (const PhaseResult* p : phases) {
    wrong += p->wrong;
    refused += p->refused;
    unanswered += p->scheduled - p->answered;
    stream_error = stream_error || p->stream_error;
  }
  report.check("every decision equals the oracle's", wrong == 0,
               std::to_string(phases.size()) + " phases, " +
                   std::to_string(wrong) + " wrong, " +
                   std::to_string(refused) + " refused, " +
                   std::to_string(unanswered) + " unanswered");
  report.check("every response frame parses", !stream_error);
}

}  // namespace

void run_auth_socket(const RunOptions& opts, Report& report,
                     SpanRecorder& rec) {
  const pufaging::Json& cfg = opts.config;
  const AuthShape shape = AuthShape::from(cfg, opts.seed);
  const std::size_t setup_threads = opts.nproc;
  const std::size_t conns = connections(opts);
  report.info("threads", "server 1 (inline pump), sender 1, receiver 1; " +
                             std::to_string(setup_threads) + " for set-up");
  report.info("connections", std::to_string(conns));
  report.info("spinning", spinning(opts)
                              ? "client threads, and the server at light"
                              : "no: fewer than 4 CPUs, every thread sleeps");
  report.info("window", std::to_string(cfg.at("window").as_int()) +
                            " requests in flight at light and heavy");
  report.info("rates", "light " +
                           std::to_string(cfg.at("light_rate").as_int()) +
                           "/s, heavy " +
                           std::to_string(cfg.at("heavy_rate").as_int()) +
                           "/s, p99 limit " +
                           std::to_string(cfg.at("slo_p99_us").as_int()) +
                           " us");

  // Set-up, several times: enrollment, corpus, oracle, frame encoding.
  pufaging::ThreadPool pool(setup_threads);
  SocketSetup s;
  std::vector<double> setup_t;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    SocketSetup fresh;
    fresh.auth = enroll_registry(shape, pool);
    build_corpus(fresh.auth, shape, pool);
    fresh.oracle = decide_corpus(fresh.auth, shape.batch_size);
    fresh.ring = encode_ring(fresh.auth.corpus,
                             static_cast<std::size_t>(cfg.at("ring").as_int()));
    setup_t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    s = std::move(fresh);
  }

  SessionPlan plan;
  plan.light_s = cfg.at("light_share").as_double() * opts.seconds;
  plan.heavy_s = cfg.at("heavy_share").as_double() * opts.seconds;

  if (!opts.trace) {
    plan.ladder_s = cfg.at("ladder_share").as_double() * opts.seconds;
    const Session ses = run_session(opts, s, daemon_config(), plan, nullptr);
    const std::uint64_t attempted = ses.light.scheduled + ses.heavy.scheduled;
    const std::uint64_t failed = ses.light.failures + ses.heavy.failures;
    report.operations(attempted, failed);
    check_answers(report, {&ses.light, &ses.heavy}, ses.ladder);
    report.check("servers drained clean", drained_clean(ses));
    report_phase(report, "light", ses.light);
    for (std::size_t i = 0; i < ses.light_part_p50.size(); ++i) {
      report.detail("rtt_p50_us.light.part" + std::to_string(i),
                    ses.light_part_p50[i], "us");
    }
    report_phase(report, "heavy", ses.heavy);
    report.detail("max_rate_at_slo", ses.max_rate_at_slo, "1/s",
                  ses.ladder.size());
    for (std::size_t i = 0; i < ses.ladder.size(); ++i) {
      const PhaseResult& p = ses.ladder[i];
      const std::string tag = "ladder.probe" + std::to_string(i);
      report.detail(tag + ".rate", p.rate, "1/s");
      report.detail(tag + ".p99_us", p.rtt.p99, "us", p.scheduled);
      report.detail(tag + ".pass",
                    meets_slo(p, cfg.at("slo_p99_us").as_double()) ? 1 : 0,
                    "bool");
    }
    report.detail("fail_frac", fail_frac(failed, attempted), "ratio",
                  attempted);
    report.set("setup_s", median(setup_t) + ses.connect_s);
    report.set("peak_rss_mb", ses.load_peak_rss_mb);
    report.detail("peak_rss_mb.after_ladder", peak_rss_mb(), "MB");
    // The server's capacity per CPU-second and the light-rate median:
    // max_rate_at_slo and the p99s move with the host's scheduling from
    // one run to the next, so they are recorded, not gated.
    report.set("throughput_per_s", 1e6 / server_cpu_us_per_request(ses.heavy),
               ses.heavy.answered);
    report.set("p50_us", ses.light.rtt.p50, ses.light.scheduled);
    return;
  }

  // Traced pass: an untraced session ending in the overload probe, then
  // one with the daemon's own obs sinks attached and a span per request,
  // then the sans-IO and wire replays. The overload probe's refusals are
  // what it measures, so it is not among the operations counted.
  SessionPlan overload_plan = plan;
  overload_plan.overload_s = cfg.at("probe_s").as_double();
  const Session plain =
      run_session(opts, s, daemon_config(), overload_plan, nullptr);
  pufaging::obs::MetricsRegistry metrics;
  pufaging::obs::Tracer tracer;
  authd::DaemonConfig traced_cfg = daemon_config();
  traced_cfg.metrics = &metrics;
  traced_cfg.tracer = &tracer;
  const Session traced = run_session(opts, s, traced_cfg, plan, &rec);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Session* ses : {&plain, &traced}) {
    attempted += ses->light.scheduled + ses->heavy.scheduled;
    failed += ses->light.failures + ses->heavy.failures;
  }
  check_answers(report,
                {&plain.light, &plain.heavy, &plain.overload, &traced.light,
                 &traced.heavy},
                {});
  report.check("servers drained clean (untraced and traced sessions)",
               drained_clean(plain) && drained_clean(traced));

  const std::size_t replay_n = std::min<std::size_t>(
      s.ring.count,
      static_cast<std::size_t>(cfg.at("replay_requests").as_int()));
  const CoreReplay core = replay_core(
      s, conns, replay_n,
      static_cast<std::size_t>(cfg.at("replay_chunk").as_int()), rec);
  report.check("sans-IO replay decisions equal the oracle's",
               core.mismatches == 0);
  report.operations(attempted + replay_n, failed + core.mismatches);

  // Wire replays (client side): encode every corpus request, parse every
  // response frame the core replay produced.
  double wire_ns = 0.0;
  {
    const std::size_t k = s.auth.corpus.size();
    std::vector<authd::AuthRequestMsg> msgs(k);
    for (std::size_t i = 0; i < k; ++i) {
      msgs[i].request_id = i;
      msgs[i].device_id = s.auth.corpus.claimed[i];
      msgs[i].response.assign(s.auth.corpus.response(i),
                              s.auth.corpus.response(i) + s.auth.corpus.words);
    }
    std::size_t bytes = 0;
    const std::uint64_t t0 = now_ns();
    for (const authd::AuthRequestMsg& m : msgs) {
      bytes += authd::encode_auth_request(m).size();
    }
    const std::uint64_t t1 = now_ns();
    rec.leaf("wire.encode", 0, t0, t1, k);
    const double encode_ns =
        static_cast<double>(t1 - t0) / static_cast<double>(k);
    report.set("wire.encode_ns", encode_ns, k);
    report.detail("wire.encoded_bytes", static_cast<double>(bytes), "bytes");

    authd::FrameReader reader;
    std::size_t parsed = 0;
    const std::uint64_t t2 = now_ns();
    reader.feed(core.responses);
    while (std::optional<authd::Frame> f = reader.next()) {
      authd::parse_auth_response(*f);
      ++parsed;
    }
    const std::uint64_t t3 = now_ns();
    rec.leaf("wire.parse", 0, t2, t3, parsed);
    const double parse_ns =
        parsed == 0 ? 0.0
                    : static_cast<double>(t3 - t2) / static_cast<double>(parsed);
    report.set("wire.parse_ns", parse_ns, parsed);
    wire_ns = encode_ns + parse_ns;
  }

  // Daemon-side figures from the traced session's sinks and stats.
  const authd::DaemonStats st = session_stats(traced);
  const authd::DaemonStats plain_st = session_stats(plain);
  report.set("authd.core.ns_per_request", core.ns_per_request, replay_n);
  report.set("authd.batch_fill",
             st.pump_batches_formed == 0
                 ? 0.0
                 : static_cast<double>(st.decided) /
                       static_cast<double>(st.pump_batches_formed));
  // Requests in flight at the client bound the daemon's queue depth.
  report.set("authd.queue_depth_max",
             static_cast<double>(std::max(traced.light.outstanding_max,
                                          traced.heavy.outstanding_max)));
  report.set("authd.shed", static_cast<double>(plain_st.shed + st.shed));
  report.set("authd.retry_after",
             static_cast<double>(plain_st.retry_after + st.retry_after));
  report.set("authd.deadline_expired",
             static_cast<double>(plain_st.deadline_expired +
                                 st.deadline_expired));
  double batch_ns = 0.0;
  for (const pufaging::obs::SpanRecord& sp : tracer.finished()) {
    if (sp.name == "authd.batch") {
      batch_ns += static_cast<double>(sp.duration_ns());
    }
  }
  const double auth_ns =
      st.decided == 0 ? 0.0 : batch_ns / static_cast<double>(st.decided);
  report.set("auth.batch.ns_per_request", auth_ns, st.decided);
  report.set("socket.server_cpu_us_per_request",
             server_cpu_us_per_request(plain.heavy), plain.heavy.answered);

  // Shares of the light-rate p50 round trip from the actual send (the
  // generator's own lateness is not the system's). The daemon core and
  // the client's wire work are measured directly; the transport
  // (syscalls, the client's wake-ups, the server loop) is what they leave.
  const double rtt_ns = plain.light.rtt_from_send_p50 * 1e3;
  const double transport_ns = rtt_ns - core.ns_per_request - wire_ns;
  report.set("socket.transport_us", transport_ns * 1e-3);
  const auto pct = [rtt_ns](double ns) {
    return rtt_ns > 0 ? 100.0 * ns / rtt_ns : 0.0;
  };
  report.set("share.auth.batch_pct", pct(auth_ns));
  report.set("share.authd.core_pct", pct(core.ns_per_request));
  report.set("share.socket.transport_pct", pct(transport_ns));
  report.set("trace.attributed_pct", pct(core.ns_per_request + wire_ns));
  report.set("loadgen.lag_p99_us.light", plain.light.lateness.p99_us,
             plain.light.lateness.sent);
  report.set("loadgen.lag_p99_us.heavy", plain.heavy.lateness.p99_us,
             plain.heavy.lateness.sent);
  report.set("loadgen.sent",
             static_cast<double>(plain.light.sent + plain.heavy.sent));
  report.set("loadgen.completed",
             static_cast<double>(plain.light.answered + plain.heavy.answered));
  report.set("trace.spans", static_cast<double>(rec.spans().size()));
  report.set("trace.overhead_pct",
             (traced.heavy.rtt.p50 / plain.heavy.rtt.p50 - 1.0) * 100.0);
  report_phase(report, "light", plain.light);
  report_phase(report, "heavy", plain.heavy);
  report_phase(report, "overload", plain.overload);
  report_phase(report, "light.traced", traced.light);
  report_phase(report, "heavy.traced", traced.heavy);
}

}  // namespace perfbench
