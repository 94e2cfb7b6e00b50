// Shared set-up of the two auth workloads: an enrolled registry and a
// request corpus of aged genuine reads plus impostors.
//
// auth-batch drives auth::run_load, which builds its own corpus; the
// corpus here is the benchmark's own (its own seed derivation), used for
// the socket workload and for the traced per-layer replays.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "auth/fleet_sim.hpp"
#include "auth/loadgen.hpp"
#include "auth/service.hpp"
#include "common/thread_pool.hpp"
#include "io/json.hpp"
#include "spans.hpp"

namespace perfbench {

struct AuthShape {
  std::uint64_t devices = 0;
  std::size_t years = 0;
  std::size_t auths_per_year = 0;
  double impostor_fraction = 0.0;
  std::size_t batch_size = 0;
  std::uint64_t fleet_seed = 0;
  std::uint64_t load_seed = 0;

  /// The shape in `config`, with seeds derived from the workload seed.
  static AuthShape from(const pufaging::Json& config, std::uint64_t seed);
  /// The shape in `config` with its fixed `fleet_seed` and `load_seed`.
  static AuthShape fixed(const pufaging::Json& config);
  /// The run_load configuration of this shape.
  pufaging::auth::LoadgenConfig loadgen(std::size_t passes) const;
};

struct AuthCorpus {
  std::size_t words = 0;
  std::vector<std::uint64_t> claimed;   ///< Claimed device id per request.
  std::vector<std::uint8_t> genuine;    ///< 0 = impostor read.
  std::vector<std::uint64_t> responses; ///< `words` per request.

  std::size_t size() const { return claimed.size(); }
  const std::uint64_t* response(std::size_t i) const {
    return responses.data() + i * words;
  }
};

struct AuthSetup {
  std::unique_ptr<pufaging::auth::VirtualFleet> fleet;
  std::unique_ptr<pufaging::auth::AuthService> service;
  AuthCorpus corpus;
};

/// Builds the virtual fleet and enrolls it on `pool` (no corpus).
AuthSetup enroll_registry(const AuthShape& shape, pufaging::ThreadPool& pool);

/// Builds the corpus, years-major: `auths_per_year` requests per year
/// point, each claiming a random enrolled device, `impostor_fraction` of
/// them read from un-enrolled silicon.
void build_corpus(AuthSetup& setup, const AuthShape& shape,
                  pufaging::ThreadPool& pool);

/// One pass of authenticate_batch over the corpus in batches of
/// `batch_size`. With `rec`, each call gets an "auth.batch" span.
std::vector<pufaging::auth::AuthDecision> decide_corpus(
    const AuthSetup& setup, std::size_t batch_size,
    SpanRecorder* rec = nullptr, std::uint32_t parent = 0);

}  // namespace perfbench
