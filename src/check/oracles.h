// Invariant oracles: the paper's qualitative claims turned into checks
// that run against a converged EvolvableInternet at any quiescent point.
//
// Each oracle states a property with an explicit, sound precondition —
// asserted only when ground truth says it must hold, so the fuzzer's
// randomized topologies / deployments / failure schedules never produce
// false alarms:
//
//   kLoopFreedom        no trace ever loops or exhausts its TTL;
//   kNoBlackhole        traffic is delivered whenever the ground-truth
//                       graph (and, inter-domain, full health + policy)
//                       says a destination/member is reachable, and never
//                       over a dead link at quiescence;
//   kMemberDelivery     anycast packets terminate only at live members;
//   kIntraDomainClosest a domain with a live, intra-reachable member
//                       captures its own anycast traffic at the closest
//                       member with exact IGP cost (§3.2);
//   kIgpGroundTruth     LS/DV distances equal Dijkstra on the usable
//                       domain graph;
//   kFibEquivalence     CompiledFib lookups match the reference Fib::lookup
//                       for every probe address;
//   kGaoRexford         every Loc-RIB AS path is loop-free, valley-free,
//                       and consistent with its learned-from class;
//   kVnBoneConnectivity the virtual topology connects active members
//                       whenever the underlay and the anycast bootstrap
//                       allow (§3.3.1 partition repair);
//   kAnycastStateBound  anycast routing state is bounded by the number of
//                       groups (§3.2 state-proportionality claim);
//   kConvergenceBudget  reconvergence completes within an event budget
//                       (emitted by the scenario runner, not here);
//   kBgpFibFixpoint     every router's installed BGP routes equal a
//                       from-scratch recomputation (the incremental
//                       BGP-to-FIB install missed no input change);
//   kVnRouteFixpoint    vN routes read from the vN-Bone's routing tables
//                       equal routes computed from scratch (no table
//                       outlived the input it derives from, including the
//                       trees a rebuild with an equal link list keeps);
//   kVnBoneFixpoint     every generation's virtual links equal a
//                       from-scratch build (no per-domain cache entry
//                       outlived its inputs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evolvable_internet.h"

namespace evo::check {

enum class OracleKind : std::uint8_t {
  kLoopFreedom,
  kNoBlackhole,
  kMemberDelivery,
  kIntraDomainClosest,
  kIgpGroundTruth,
  kFibEquivalence,
  kGaoRexford,
  kVnBoneConnectivity,
  kAnycastStateBound,
  kConvergenceBudget,
  kBgpFibFixpoint,
  kVnRouteFixpoint,
  kVnBoneFixpoint,
};

const char* to_string(OracleKind oracle);

struct Violation {
  OracleKind oracle = OracleKind::kLoopFreedom;
  /// Which quiescent point: 0 = after initial deployment converged,
  /// i >= 1 = after churn event i-1.
  std::size_t episode = 0;
  std::string detail;

  std::string describe() const;
};

struct OracleOptions {
  /// Seed for the deterministic random probe addresses / pair sampling.
  std::uint64_t probe_seed = 1;
  /// Random addresses added to the FIB-differential probe set.
  std::uint32_t random_addresses = 16;
  /// Cross-domain unicast (source, destination) pairs traced.
  std::uint32_t interdomain_pairs = 64;
};

/// Run every oracle against the (quiescent, synced) internet. Violations
/// carry episode 0; the caller stamps the real episode index.
std::vector<Violation> check_invariants(const core::EvolvableInternet& internet,
                                        const OracleOptions& options = {});

}  // namespace evo::check
