#include "auth_common.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using pufaging::Philox4x32;
using pufaging::auth::AuthDecision;
using pufaging::auth::AuthRequest;

namespace {

constexpr std::uint64_t kCorpusDomain = 0xBE4C'C0A2'9005ULL;

AuthShape shape_of(const pufaging::Json& config) {
  AuthShape s;
  s.devices = static_cast<std::uint64_t>(config.at("devices").as_int());
  s.years = static_cast<std::size_t>(config.at("years").as_int());
  s.auths_per_year =
      static_cast<std::size_t>(config.at("auths_per_year").as_int());
  s.impostor_fraction = config.at("impostor_fraction").as_double();
  s.batch_size = static_cast<std::size_t>(config.at("batch_size").as_int());
  return s;
}

}  // namespace

AuthShape AuthShape::from(const pufaging::Json& config, std::uint64_t seed) {
  AuthShape s = shape_of(config);
  s.fleet_seed = derive_seed(seed, 0xA0F1EE7);
  s.load_seed = derive_seed(seed, 0xA010AD);
  return s;
}

AuthShape AuthShape::fixed(const pufaging::Json& config) {
  AuthShape s = shape_of(config);
  s.fleet_seed = static_cast<std::uint64_t>(config.at("fleet_seed").as_int());
  s.load_seed = static_cast<std::uint64_t>(config.at("load_seed").as_int());
  return s;
}

pufaging::auth::LoadgenConfig AuthShape::loadgen(std::size_t passes) const {
  pufaging::auth::LoadgenConfig c;
  c.devices = devices;
  c.years = years;
  c.auths_per_year = auths_per_year;
  c.impostor_fraction = impostor_fraction;
  c.batch_size = batch_size;
  c.seed = load_seed;
  c.passes = passes;
  return c;
}

AuthSetup enroll_registry(const AuthShape& shape, pufaging::ThreadPool& pool) {
  AuthSetup s;
  pufaging::auth::VirtualFleetConfig fc;
  fc.seed = shape.fleet_seed;
  s.fleet = std::make_unique<pufaging::auth::VirtualFleet>(fc, shape.devices);
  s.service = std::make_unique<pufaging::auth::AuthService>(
      pufaging::auth::AuthServiceConfig{});
  pufaging::auth::enroll_fleet(*s.service, *s.fleet, pool);
  return s;
}

void build_corpus(AuthSetup& s, const AuthShape& shape,
                  pufaging::ThreadPool& pool) {
  const std::size_t n = shape.auths_per_year;
  const std::size_t total = n * shape.years;
  AuthCorpus& c = s.corpus;
  c.words = s.service->words_per_response();
  c.claimed.resize(total);
  c.genuine.resize(total);
  c.responses.resize(total * c.words);
  const std::uint64_t cut =
      pufaging::bernoulli_threshold(shape.impostor_fraction);
  for (std::size_t year = 0; year < shape.years; ++year) {
    const std::uint64_t key =
        pufaging::split_seed(shape.load_seed, kCorpusDomain, year);
    pool.parallel_for(0, n, [&](std::size_t r) {
      const std::size_t i = year * n + r;
      const std::uint64_t claim = Philox4x32::at(key, 3 * r) % shape.devices;
      const bool impostor = Philox4x32::at(key, 3 * r + 1) < cut;
      const std::uint64_t silicon =
          impostor ? s.fleet->device_count() +
                         Philox4x32::at(key, 3 * r + 2) % shape.devices
                   : claim;
      c.claimed[i] = claim;
      c.genuine[i] = impostor ? 0 : 1;
      s.fleet->response_into(silicon, static_cast<double>(year), i + 1,
                             c.responses.data() + i * c.words);
    });
  }
}

std::vector<AuthDecision> decide_corpus(const AuthSetup& setup,
                                        std::size_t batch_size,
                                        SpanRecorder* rec,
                                        std::uint32_t parent) {
  const AuthCorpus& c = setup.corpus;
  std::vector<AuthDecision> out(c.size());
  std::vector<AuthRequest> reqs;
  for (std::size_t begin = 0; begin < c.size(); begin += batch_size) {
    const std::size_t count = std::min(batch_size, c.size() - begin);
    reqs.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      reqs[i].device_id = c.claimed[begin + i];
      reqs[i].response = c.response(begin + i);
    }
    const std::uint64_t t0 = rec != nullptr ? now_ns() : 0;
    setup.service->authenticate_batch(reqs.data(), count, out.data() + begin);
    if (rec != nullptr) {
      rec->leaf("auth.batch", parent, t0, now_ns(), begin);
    }
  }
  return out;
}

}  // namespace perfbench
