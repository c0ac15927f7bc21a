// A value digest of a converged internet's routing state, built only from
// public accessors: every router's FIB entries, every BGP speaker's
// Loc-RIB best routes, and the primary vN-Bone's virtual links. Two runs
// that reach the same state give the same digest; a pure speed change to
// the simulator must leave it unchanged.
#pragma once

#include <cstdint>

#include "core/evolvable_internet.h"

namespace perfbench {

/// 64-bit FNV-1a over the state listed above, in router-id order.
std::uint64_t state_digest(const evo::core::EvolvableInternet& internet);

/// The digest folded to 48 bits, so it prints exactly as a JSON number.
inline double digest_metric(std::uint64_t digest) {
  return static_cast<double>((digest ^ (digest >> 48)) & ((1ull << 48) - 1));
}

}  // namespace perfbench
