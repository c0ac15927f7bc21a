// Propagation-TTL (GIA-style scoped dissemination) at the BGP layer.
#include <gtest/gtest.h>

#include <memory>

#include "bgp/bgp.h"
#include "igp/link_state.h"

namespace evo::bgp {
namespace {

using net::DomainId;
using net::Ipv4Addr;
using net::NodeId;
using net::Prefix;
using net::Relationship;
using net::Topology;

/// Customer chain d0 <- d1 <- ... <- d(n-1), one router each.
struct Chain {
  explicit Chain(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      domains.push_back(topology.add_domain("d" + std::to_string(i)));
      routers.push_back(topology.add_router(domains.back()));
    }
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      topology.add_interdomain_link(routers[i], routers[i + 1],
                                    Relationship::kProvider);
    }
    network = std::make_unique<net::Network>(std::move(topology));
    for (const auto& d : network->topology().domains()) {
      igps.push_back(
          std::make_unique<igp::LinkStateIgp>(simulator, *network, d.id));
    }
    bgp = std::make_unique<BgpSystem>(
        simulator, *network,
        [this](DomainId d) -> const igp::Igp* { return igps[d.value()].get(); });
    for (auto& i : igps) i->start();
    bgp->start();
    simulator.run();
  }

  void converge() {
    simulator.run();
    bgp->install_routes();
  }

  Topology topology;
  std::vector<DomainId> domains;
  std::vector<NodeId> routers;
  sim::Simulator simulator;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<igp::LinkStateIgp>> igps;
  std::unique_ptr<BgpSystem> bgp;
};

TEST(ScopedPropagation, TtlBoundsVisibility) {
  Chain chain(6);
  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 42});
  OriginationPolicy policy;
  policy.propagation_ttl = 3;
  chain.bgp->originate(chain.domains[0], p, policy);
  chain.converge();
  // Visible where the AS path fits in 3 hops (d1, d2, d3)...
  EXPECT_NE(chain.bgp->best_route(chain.routers[1], p), nullptr);
  EXPECT_NE(chain.bgp->best_route(chain.routers[2], p), nullptr);
  EXPECT_NE(chain.bgp->best_route(chain.routers[3], p), nullptr);
  // ...and nowhere beyond.
  EXPECT_EQ(chain.bgp->best_route(chain.routers[4], p), nullptr);
  EXPECT_EQ(chain.bgp->best_route(chain.routers[5], p), nullptr);
}

TEST(ScopedPropagation, WideningTtlReachesFartherDomains) {
  // Re-originating with a wider radius changes only propagation_ttl; each
  // neighbor must still treat that as a new route and pass it on.
  Chain chain(6);
  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 47});
  OriginationPolicy policy;
  policy.propagation_ttl = 2;
  chain.bgp->originate(chain.domains[0], p, policy);
  chain.converge();
  ASSERT_NE(chain.bgp->best_route(chain.routers[2], p), nullptr);
  ASSERT_EQ(chain.bgp->best_route(chain.routers[3], p), nullptr);

  policy.propagation_ttl = 4;
  chain.bgp->originate(chain.domains[0], p, policy);
  chain.converge();
  EXPECT_NE(chain.bgp->best_route(chain.routers[3], p), nullptr);
  EXPECT_NE(chain.bgp->best_route(chain.routers[4], p), nullptr);
  EXPECT_EQ(chain.bgp->best_route(chain.routers[5], p), nullptr);
}

TEST(ScopedPropagation, TtlOneReachesNeighborsOnly) {
  Chain chain(4);
  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 43});
  OriginationPolicy policy;
  policy.propagation_ttl = 1;
  chain.bgp->originate(chain.domains[1], p, policy);
  chain.converge();
  EXPECT_NE(chain.bgp->best_route(chain.routers[0], p), nullptr);
  EXPECT_NE(chain.bgp->best_route(chain.routers[2], p), nullptr);
  EXPECT_EQ(chain.bgp->best_route(chain.routers[3], p), nullptr);
}

TEST(ScopedPropagation, ZeroTtlMeansUnlimited) {
  Chain chain(6);
  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 44});
  chain.bgp->originate(chain.domains[0], p, {});
  chain.converge();
  EXPECT_NE(chain.bgp->best_route(chain.routers[5], p), nullptr);
}

TEST(ScopedPropagation, TtlRidesWithdrawals) {
  Chain chain(4);
  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 45});
  OriginationPolicy policy;
  policy.propagation_ttl = 2;
  chain.bgp->originate(chain.domains[0], p, policy);
  chain.converge();
  ASSERT_NE(chain.bgp->best_route(chain.routers[2], p), nullptr);
  chain.bgp->withdraw(chain.domains[0], p);
  chain.converge();
  EXPECT_EQ(chain.bgp->best_route(chain.routers[2], p), nullptr);
}

TEST(ScopedPropagation, SurvivesIbgpDistribution) {
  // TTL must bind at domain granularity even when the route crosses a
  // multi-border domain over iBGP.
  Topology topo;
  const auto d0 = topo.add_domain("origin");
  const auto d1 = topo.add_domain("middle");
  const auto d2 = topo.add_domain("far");
  const auto r0 = topo.add_router(d0);
  const auto m0 = topo.add_router(d1);
  const auto m1 = topo.add_router(d1);
  const auto r2 = topo.add_router(d2);
  topo.add_link(m0, m1, 1);
  topo.add_interdomain_link(r0, m0, Relationship::kProvider);
  topo.add_interdomain_link(m1, r2, Relationship::kProvider);

  sim::Simulator simulator;
  net::Network network(std::move(topo));
  std::vector<std::unique_ptr<igp::LinkStateIgp>> igps;
  for (const auto& d : network.topology().domains()) {
    igps.push_back(std::make_unique<igp::LinkStateIgp>(simulator, network, d.id));
  }
  BgpSystem bgp(simulator, network, [&](DomainId d) -> const igp::Igp* {
    return igps[d.value()].get();
  });
  for (auto& i : igps) i->start();
  bgp.start();
  simulator.run();

  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 46});
  OriginationPolicy policy;
  policy.propagation_ttl = 1;
  bgp.originate(d0, p, policy);
  simulator.run();
  // m0 (1 AS hop) sees it; m1 gets the iBGP copy; r2 (2 AS hops) must not.
  EXPECT_NE(bgp.best_route(m0, p), nullptr);
  EXPECT_NE(bgp.best_route(m1, p), nullptr);
  EXPECT_EQ(bgp.best_route(r2, p), nullptr);
}

}  // namespace
}  // namespace evo::bgp
