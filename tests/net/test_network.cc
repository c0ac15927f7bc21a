#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/topology_gen.h"

namespace evo::net {
namespace {

/// Manually wire static routes along a line so tracing works without any
/// routing protocol.
void wire_line(Network& net) {
  const auto& topo = net.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  for (std::size_t i = 0; i < routers.size(); ++i) {
    auto& fib = net.fib(routers[i]);
    for (std::size_t j = 0; j < routers.size(); ++j) {
      if (i == j) continue;
      const NodeId hop = routers[j > i ? i + 1 : i - 1];
      const LinkId link = [&] {
        for (const LinkId l : topo.router(routers[i]).links) {
          if (topo.link(l).other_end(routers[i]) == hop) return l;
        }
        return LinkId::invalid();
      }();
      const auto& r = topo.router(routers[j]);
      fib.insert(FibEntry{Topology::router_subnet(r.domain, r.index_in_domain), hop,
                          link, RouteOrigin::kStatic, 1});
    }
  }
}

TEST(Network, ConnectedRoutesInstalled) {
  Network net(single_domain_line(3));
  const auto& topo = net.topology();
  const NodeId r0 = topo.domain(DomainId{0}).routers[0];
  // Each router has its loopback /32 and subnet /24.
  EXPECT_EQ(net.fib(r0).size(), 2u);
  EXPECT_TRUE(net.delivers_locally(r0, topo.router(r0).loopback));
}

TEST(Network, SelfDelivery) {
  Network net(single_domain_line(2));
  const NodeId r0 = net.topology().domain(DomainId{0}).routers[0];
  const auto result = net.trace(r0, net.topology().router(r0).loopback);
  EXPECT_TRUE(result.delivered());
  EXPECT_EQ(result.delivered_at, r0);
  EXPECT_EQ(result.cost, 0u);
  EXPECT_EQ(result.hop_count(), 0u);
}

TEST(Network, TraceAlongStaticRoutes) {
  Network net(single_domain_line(4, 2));
  wire_line(net);
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  const auto result =
      net.trace(routers[0], net.topology().router(routers[3]).loopback);
  ASSERT_TRUE(result.delivered());
  EXPECT_EQ(result.delivered_at, routers[3]);
  EXPECT_EQ(result.cost, 6u);
  EXPECT_EQ(result.hop_count(), 3u);
}

TEST(Network, NoRouteOutcome) {
  Network net(single_domain_line(3));
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  const auto result =
      net.trace(routers[0], net.topology().router(routers[2]).loopback);
  EXPECT_FALSE(result.delivered());
  EXPECT_EQ(result.outcome, Network::TraceResult::Outcome::kNoRoute);
}

TEST(Network, LinkDownOutcome) {
  Network net(single_domain_line(3));
  wire_line(net);
  net.topology().set_link_up(LinkId{0}, false);
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  const auto result =
      net.trace(routers[0], net.topology().router(routers[2]).loopback);
  EXPECT_EQ(result.outcome, Network::TraceResult::Outcome::kLinkDown);
}

TEST(Network, ForwardingLoopDetected) {
  Network net(single_domain_line(2));
  const auto& topo = net.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  // Both routers point a foreign prefix at each other.
  const Prefix foreign{Ipv4Addr{0, 99, 0, 0}, 16};
  net.fib(routers[0]).insert(
      FibEntry{foreign, routers[1], LinkId{0}, RouteOrigin::kStatic, 1});
  net.fib(routers[1]).insert(
      FibEntry{foreign, routers[0], LinkId{0}, RouteOrigin::kStatic, 1});
  const auto result = net.trace(routers[0], Ipv4Addr{0, 99, 0, 1});
  EXPECT_EQ(result.outcome, Network::TraceResult::Outcome::kForwardingLoop);
}

TEST(Network, LocalAddressCapture) {
  Network net(single_domain_line(4));
  wire_line(net);
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  const Ipv4Addr anycast{0, 1, 255, 1};  // reserved subnet 255 slot
  // Install a static /32 on router 0 pointing down the line; router 2
  // accepts it locally.
  net.add_local_address(routers[2], anycast);
  for (int i = 0; i < 2; ++i) {
    const NodeId hop = routers[i + 1];
    const LinkId link = [&]() {
      for (const LinkId l : net.topology().router(routers[i]).links) {
        if (net.topology().link(l).other_end(routers[i]) == hop) return l;
      }
      return LinkId::invalid();
    }();
    net.fib(routers[i]).insert(FibEntry{Prefix::host(anycast), hop, link,
                                        RouteOrigin::kAnycast, 1});
  }
  const auto result = net.trace(routers[0], anycast);
  ASSERT_TRUE(result.delivered());
  EXPECT_EQ(result.delivered_at, routers[2]);
  // Removing the local address breaks delivery (packet continues past).
  net.remove_local_address(routers[2], anycast);
  const auto result2 = net.trace(routers[0], anycast);
  EXPECT_FALSE(result2.delivered());
}

TEST(Network, HostSubnetDelivery) {
  Topology topo = single_domain_line(2);
  const auto r0 = topo.domain(DomainId{0}).routers[0];
  const auto h = topo.add_host(r0);
  const auto host_addr = topo.host(h).address;
  Network net(std::move(topo));
  // The access router delivers host addresses in its subnet.
  EXPECT_TRUE(net.delivers_locally(r0, host_addr));
  const auto result = net.trace(r0, host_addr);
  EXPECT_TRUE(result.delivered());
}

TEST(Network, TtlExpiry) {
  Network net(single_domain_line(10));
  wire_line(net);
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  const auto result = net.trace(
      routers[0], net.topology().router(routers[9]).loopback, /*max_hops=*/3);
  EXPECT_EQ(result.outcome, Network::TraceResult::Outcome::kTtlExpired);
}

TEST(Network, LatencyAccumulates) {
  Topology topo;
  const auto d = topo.add_domain("a");
  const auto r0 = topo.add_router(d);
  const auto r1 = topo.add_router(d);
  topo.add_link(r0, r1, 1, sim::Duration::millis(7));
  Network net(std::move(topo));
  net.fib(r0).insert(FibEntry{Prefix::host(net.topology().router(r1).loopback), r1,
                              LinkId{0}, RouteOrigin::kStatic, 1});
  const auto result = net.trace(r0, net.topology().router(r1).loopback);
  ASSERT_TRUE(result.delivered());
  EXPECT_EQ(result.latency, sim::Duration::millis(7));
}

TEST(Network, TraceBatchMatchesSingleTraces) {
  Network net(single_domain_line(4, 2));
  wire_line(net);
  const auto& topo = net.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  std::vector<Network::ProbeSpec> probes;
  for (const NodeId from : routers) {
    for (const NodeId to : routers) {
      probes.push_back({.from = from, .dst = topo.router(to).loopback});
    }
  }
  const auto batch = net.trace_batch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto single = net.trace(probes[i].from, probes[i].dst);
    EXPECT_EQ(batch[i].outcome, single.outcome);
    EXPECT_EQ(batch[i].delivered_at, single.delivered_at);
    EXPECT_EQ(batch[i].cost, single.cost);
    EXPECT_EQ(batch[i].hops, single.hops);
    EXPECT_EQ(batch[i].latency, single.latency);
  }
}

TEST(Network, CompiledFibRecompilesOnlyWhenEpochMoves) {
  Network net(single_domain_line(3, 2));
  wire_line(net);
  const auto& topo = net.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  const auto dst = topo.router(routers[2]).loopback;

  net.trace(routers[0], dst);
  const auto after_first = net.forwarding_stats();
  EXPECT_GT(after_first.traces, 0u);
  EXPECT_GT(after_first.lookups, 0u);
  EXPECT_GT(after_first.fib_compiles, 0u);

  // Same trace again: every FIB on the path is fresh, no recompiles.
  net.trace(routers[0], dst);
  const auto after_second = net.forwarding_stats();
  EXPECT_EQ(after_second.fib_compiles, after_first.fib_compiles);
  EXPECT_GT(after_second.cache_hits, after_first.cache_hits);

  // Mutating one router's FIB invalidates exactly that router.
  net.fib(routers[1]).insert(FibEntry{Prefix{Ipv4Addr{9, 0, 0, 0}, 8},
                                      routers[0], LinkId{0},
                                      RouteOrigin::kStatic, 1});
  net.trace(routers[0], dst);
  const auto after_third = net.forwarding_stats();
  EXPECT_EQ(after_third.fib_compiles, after_second.fib_compiles + 1);
}

TEST(Network, DescribeIsHumanReadable) {
  Network net(single_domain_line(2));
  wire_line(net);
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  const auto result =
      net.trace(routers[0], net.topology().router(routers[1]).loopback);
  const auto text = net.describe(result);
  EXPECT_NE(text.find("delivered"), std::string::npos);
  EXPECT_NE(text.find("line/r0"), std::string::npos);
}

}  // namespace
}  // namespace evo::net
