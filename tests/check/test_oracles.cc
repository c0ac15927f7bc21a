// Invariant oracles: a healthy converged internet is clean, and direct
// state corruption (the faults oracles exist to catch) is reported.
#include "check/oracles.h"

#include <gtest/gtest.h>

#include "check/fuzzer.h"
#include "core/evolvable_internet.h"
#include "net/topology_gen.h"

namespace evo::check {
namespace {

net::TransitStubParams small_params() {
  net::TransitStubParams params;
  params.transit_domains = 2;
  params.stubs_per_transit = 2;
  params.transit_internal.routers = 2;
  params.stub_internal.routers = 3;
  params.extra_transit_peering_probability = 1.0;
  params.seed = 0xC0FFEE;
  return params;
}

std::unique_ptr<core::EvolvableInternet> healthy_internet(
    core::Options options = {}) {
  auto internet = std::make_unique<core::EvolvableInternet>(
      net::generate_transit_stub(small_params()), options);
  internet->start();
  internet->deploy_router(net::NodeId{0});
  internet->deploy_router(net::NodeId{5});
  internet->converge();
  return internet;
}

TEST(Oracles, HealthyInternetIsClean) {
  auto internet = healthy_internet();
  const auto violations = check_invariants(*internet);
  for (const auto& v : violations) ADD_FAILURE() << v.describe();
  EXPECT_TRUE(violations.empty());
}

TEST(Oracles, HealthyDistanceVectorInternetIsClean) {
  core::Options options;
  options.igp = core::IgpKind::kDistanceVectorTagged;
  auto internet = healthy_internet(options);
  const auto violations = check_invariants(*internet);
  for (const auto& v : violations) ADD_FAILURE() << v.describe();
  EXPECT_TRUE(violations.empty());
}

TEST(Oracles, DroppedIgpRoutesAreCaught) {
  auto internet = healthy_internet();
  // Delete router 0's intra-domain routes out from under the control
  // plane — the lost-installation-write fault class. (Dropping a single
  // loopback /32 can be harmless while the covering subnet /24 still
  // routes the same way; losing the whole IGP table never is.)
  auto& fib = internet->network().fib(net::NodeId{0});
  std::vector<net::Prefix> victims;
  fib.for_each([&](const net::FibEntry& entry) {
    if (entry.origin == net::RouteOrigin::kIgp) victims.push_back(entry.prefix);
  });
  ASSERT_FALSE(victims.empty());
  for (const net::Prefix victim : victims) fib.remove(victim);
  EXPECT_FALSE(check_invariants(*internet).empty());
}

TEST(Oracles, SilentLinkDownIsCaught) {
  auto internet = healthy_internet();
  // Kill every link of router 1 behind the control plane's back: no
  // notification, so every FIB still forwards through the dead links.
  const auto links = internet->topology().router(net::NodeId{1}).links;
  for (const net::LinkId link : links) {
    internet->network().topology().set_link_up(link, false);
  }
  const auto violations = check_invariants(*internet);
  ASSERT_FALSE(violations.empty());
  bool found_forwarding_violation = false;
  for (const auto& v : violations) {
    if (v.oracle == OracleKind::kNoBlackhole ||
        v.oracle == OracleKind::kIgpGroundTruth ||
        v.oracle == OracleKind::kLoopFreedom) {
      found_forwarding_violation = true;
    }
  }
  EXPECT_TRUE(found_forwarding_violation);
}

TEST(Oracles, CorruptedBgpRouteIsCaught) {
  auto internet = healthy_internet();
  // Rewrite one installed BGP route behind the control plane's back, as a
  // missed incremental install would leave it: same prefix and next hop,
  // wrong metric.
  auto& fib = internet->network().fib(net::NodeId{0});
  const net::FibEntry* victim = nullptr;
  for (const net::FibEntry& entry : fib.entries()) {
    if (entry.origin == net::RouteOrigin::kBgp) {
      victim = &entry;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  net::FibEntry corrupted = *victim;
  corrupted.metric += 1;
  fib.insert(corrupted);
  const auto violations = check_invariants(*internet);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().oracle, OracleKind::kBgpFibFixpoint);
  EXPECT_NE(violations.front().detail.find(corrupted.prefix.to_string()),
            std::string::npos);
}

TEST(Oracles, ViolationDescribesItself) {
  Violation violation{OracleKind::kNoBlackhole, 3, "unit-test detail"};
  const std::string text = violation.describe();
  EXPECT_NE(text.find("no-blackhole"), std::string::npos);
  EXPECT_NE(text.find("unit-test detail"), std::string::npos);
}

}  // namespace
}  // namespace evo::check
