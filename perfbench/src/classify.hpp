// Classification of socket answers against the untimed oracle.
//
// A request fails when it is refused (shed, retry-after, deadline, lockout,
// rate limit, draining), left unanswered, or answered with a decision that
// differs from the one authenticate_batch gave for the same read. Correct
// rejections — impostors, and genuine reads that aged past the code's
// correction capacity — are not failures: the oracle rejects them too.
#pragma once

#include <cstdint>

#include "auth/service.hpp"
#include "authd/wire.hpp"

namespace perfbench {

enum class Outcome : std::uint8_t {
  kCorrect = 0,        ///< kDecision equal to the oracle (accept or reject).
  kWrongDecision = 1,  ///< kDecision that differs from the oracle.
  kRefused = 2,        ///< Any non-decision status.
  kUnanswered = 3,     ///< No response before the phase timed out.
};

inline Outcome classify(const pufaging::authd::AuthResponseMsg& response,
                        pufaging::auth::AuthDecision oracle) {
  if (response.status != pufaging::authd::ResponseStatus::kDecision) {
    return Outcome::kRefused;
  }
  return response.decision == static_cast<std::uint8_t>(oracle)
             ? Outcome::kCorrect
             : Outcome::kWrongDecision;
}

inline bool is_failure(Outcome outcome) { return outcome != Outcome::kCorrect; }

/// Failed operations over operations attempted (0 when none attempted).
inline double fail_frac(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench
