// Failure round-trips through the control plane: BGP session flaps
// (withdraw on down, re-advertise on restore), distance-vector
// count-to-infinity bounds when a restored link races poisoned routes, and
// router crash/recovery with anycast failover under both IGP families.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "anycast/resolver.h"
#include "core/evolvable_internet.h"
#include "net/topology_gen.h"

namespace evo {
namespace {

using core::EvolvableInternet;
using core::IgpKind;
using net::DomainId;
using net::LinkId;
using net::NodeId;

/// Provider `up` over customer transits t0/t1 (each with a stub), plus a
/// direct t0-t1 peer link: the only topology shape where losing the peer
/// link leaves a policy-legal (valley-free) detour.
struct DiamondTopo {
  net::Topology topo;
  DomainId up, t0, t1, s0, s1;
  LinkId direct;

  DiamondTopo() {
    up = topo.add_domain("up");
    t0 = topo.add_domain("t0");
    t1 = topo.add_domain("t1");
    s0 = topo.add_domain("s0", /*stub=*/true);
    s1 = topo.add_domain("s1", /*stub=*/true);
    sim::Rng rng{44};
    net::IntraDomainParams internal{.routers = 2, .chord_probability = 0.0};
    for (const auto d : {up, t0, t1, s0, s1}) {
      net::populate_domain(topo, d, internal, rng);
    }
    auto first = [&](DomainId d) { return topo.domain(d).routers[0]; };
    auto second = [&](DomainId d) { return topo.domain(d).routers[1]; };
    topo.add_interdomain_link(first(up), first(t0), net::Relationship::kCustomer);
    topo.add_interdomain_link(second(up), first(t1), net::Relationship::kCustomer);
    direct =
        topo.add_interdomain_link(second(t0), second(t1), net::Relationship::kPeer);
    topo.add_interdomain_link(second(t0), first(s0), net::Relationship::kCustomer);
    topo.add_interdomain_link(second(t1), first(s1), net::Relationship::kCustomer);
  }
};

TEST(BgpSessionFlap, WithdrawOnDownReadvertiseOnRestore) {
  DiamondTopo d;
  EvolvableInternet net(std::move(d.topo));
  net.start();

  const net::Prefix t0_prefix = net.topology().domain(d.t0).prefix;
  const NodeId t1_speaker = net.topology().domain(d.t1).routers[1];  // peer end
  const bgp::Route* before = net.bgp().best_route(t1_speaker, t0_prefix);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->as_path.size(), 1u);  // direct peer path [t0]

  // Session down: the peer route is withdrawn; the provider detour
  // ([up, t0]) takes over. No manual converge-scheduling: set_link_up
  // notifies BGP, converge just drains the simulator.
  net.set_link_up(d.direct, false);
  net.converge();
  const bgp::Route* during = net.bgp().best_route(t1_speaker, t0_prefix);
  ASSERT_NE(during, nullptr);
  EXPECT_EQ(during->as_path.size(), 2u);
  EXPECT_EQ(during->as_path.back(), d.t0);
  EXPECT_NE(during->via_link, d.direct);
  // Data plane agrees: traffic still reaches t0.
  const auto trace = net.network().trace(
      t1_speaker, net.topology().router(net.topology().domain(d.t0).routers[0])
                      .loopback);
  EXPECT_TRUE(trace.delivered());

  // Session restore: both ends re-advertise their full Loc-RIBs; the
  // shorter peer path wins again.
  net.set_link_up(d.direct, true);
  net.converge();
  const bgp::Route* after = net.bgp().best_route(t1_speaker, t0_prefix);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->as_path.size(), 1u);
  EXPECT_EQ(after->via_link, d.direct);
}

TEST(BgpSessionFlap, BorderRouterCrashTearsDownAndRestoresSessions) {
  DiamondTopo d;
  EvolvableInternet net(std::move(d.topo));
  net.start();

  const net::Prefix t0_prefix = net.topology().domain(d.t0).prefix;
  const NodeId victim = net.topology().domain(d.t0).routers[1];  // t0's peer end
  const NodeId t1_speaker = net.topology().domain(d.t1).routers[1];

  net.set_node_up(victim, false);
  net.converge();
  const bgp::Route* during = net.bgp().best_route(t1_speaker, t0_prefix);
  ASSERT_NE(during, nullptr) << "provider path must survive the crash";
  EXPECT_EQ(during->as_path.size(), 2u);

  net.set_node_up(victim, true);
  net.converge();
  const bgp::Route* after = net.bgp().best_route(t1_speaker, t0_prefix);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->as_path.size(), 1u) << "peer session must re-establish";
}

/// Every speaker's Loc-RIB, by value, keyed by speaker.
std::map<NodeId, std::vector<bgp::Route>> loc_ribs(const EvolvableInternet& net) {
  std::map<NodeId, std::vector<bgp::Route>> out;
  for (const auto& router : net.topology().routers()) {
    net.bgp().for_each_best_route(
        router.id, [&](const bgp::Route& route) { out[router.id].push_back(route); });
  }
  return out;
}

TEST(BgpRoundTrip, CrashAndLinkFlapRestoreEveryLocRib) {
  // The teardown and re-seed paths must undo each other exactly: after a
  // border-router crash + recovery, and after an inter-domain link flap,
  // every speaker's Loc-RIB equals its pre-failure state field by field.
  EvolvableInternet net(net::generate_transit_stub(
      {.transit_domains = 3, .stubs_per_transit = 2, .seed = 7}));
  net.start();
  net.deploy_domain(DomainId{0});
  net.converge();
  const auto before = loc_ribs(net);
  ASSERT_FALSE(before.empty());

  LinkId interdomain = LinkId::invalid();
  for (const auto& link : net.topology().links()) {
    if (link.interdomain) {
      interdomain = link.id;
      break;
    }
  }
  ASSERT_TRUE(interdomain.valid());
  const NodeId border = net.topology().link(interdomain).a;

  net.set_node_up(border, false);
  net.converge();
  ASSERT_NE(loc_ribs(net), before) << "the crash must disturb some Loc-RIB";
  net.set_node_up(border, true);
  net.converge();
  EXPECT_EQ(loc_ribs(net), before) << "crash + recovery of router " << border.value();

  net.set_link_up(interdomain, false);
  net.converge();
  ASSERT_NE(loc_ribs(net), before) << "the flap must disturb some Loc-RIB";
  net.set_link_up(interdomain, true);
  net.converge();
  EXPECT_EQ(loc_ribs(net), before) << "flap of link " << interdomain.value();
}

/// Every router's installed BGP routes, in FIB order.
std::vector<std::vector<net::FibEntry>> bgp_tables(const EvolvableInternet& net) {
  std::vector<std::vector<net::FibEntry>> out;
  for (const auto& router : net.topology().routers()) {
    auto& table = out.emplace_back();
    for (const auto& entry : net.network().fib(router.id).entries()) {
      if (entry.origin == net::RouteOrigin::kBgp) table.push_back(entry);
    }
  }
  return out;
}

TEST(BgpRoundTrip, StubBorderCrashRestoresEveryBgpFibEntry) {
  // A single-homed stub's only border router crashes: its prefix is
  // withdrawn from every domain, so the incremental install must revisit
  // that prefix everywhere, and recovery must put back exactly the
  // pre-crash BGP entries at every router.
  EvolvableInternet net(net::generate_transit_stub(
      {.transit_domains = 3, .stubs_per_transit = 2, .multihoming_probability = 0.0,
       .seed = 7}));
  net.start();
  net.deploy_domain(DomainId{0});
  net.converge();
  const auto before = bgp_tables(net);

  NodeId border = NodeId::invalid();
  for (const auto& domain : net.topology().domains()) {
    const auto& speakers = net.bgp().speakers_of(domain.id);
    if (domain.stub && speakers.size() == 1) {
      border = speakers.front();
      break;
    }
  }
  ASSERT_TRUE(border.valid());
  const net::Prefix stub_prefix =
      net.topology().domain(net.topology().router(border).domain).prefix;

  net.set_node_up(border, false);
  net.converge();
  const auto during = bgp_tables(net);
  for (const auto& router : net.topology().routers()) {
    if (router.domain == net.topology().router(border).domain) continue;
    const auto* entry = net.network().fib(router.id).find(stub_prefix);
    EXPECT_TRUE(entry == nullptr || entry->origin != net::RouteOrigin::kBgp)
        << "router " << router.id.value() << " still routes to the crashed stub";
  }
  ASSERT_NE(during, before) << "the crash must change some BGP entry";

  net.set_node_up(border, true);
  net.converge();
  const auto after = bgp_tables(net);
  for (const auto& router : net.topology().routers()) {
    EXPECT_EQ(after[router.id.value()], before[router.id.value()])
        << "router " << router.id.value();
  }
}

TEST(DistanceVector, CountToInfinityIsBoundedOnPartition) {
  // Cutting the only link to a destination must terminate (metrics are
  // capped at config.infinity), leaving the destination unreachable —
  // not an endless mutual-increment loop.
  core::Options options;
  options.igp = IgpKind::kDistanceVector;
  EvolvableInternet net(net::single_domain_line(4), options);
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  ASSERT_EQ(net.igp(DomainId{0})->distance(routers[0], routers[3]), 3u);

  net.set_link_up(LinkId{2}, false);  // 2-3: router 3 is cut off
  const std::uint64_t events = net.converge();
  EXPECT_LT(events, 10000u) << "count-to-infinity must be bounded";
  EXPECT_EQ(net.igp(DomainId{0})->distance(routers[0], routers[3]),
            net::kInfiniteCost);
  EXPECT_FALSE(net.network()
                   .trace(routers[0], net.topology().router(routers[3]).loopback)
                   .delivered());
}

TEST(DistanceVector, RestoredLinkRacesPoisonAndReconverges) {
  // Fail a link, let the poison start propagating, then restore the link
  // *before* the domain has reconverged: the full-table exchange on the
  // restored adjacency must beat the in-flight poison and the domain must
  // settle back to the original metrics (no lingering infinity, no loop).
  core::Options options;
  options.igp = IgpKind::kDistanceVector;
  EvolvableInternet net(net::single_domain_ring(6), options);
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  const auto base_02 = net.igp(DomainId{0})->distance(routers[0], routers[2]);
  ASSERT_EQ(base_02, 2u);

  net.set_link_up(LinkId{1}, false);  // 1-2
  // Run just a few milliseconds: poisons and triggered updates are now in
  // flight, but convergence is incomplete.
  net.simulator().run_until(net.simulator().now() + sim::Duration::millis(3));
  net.set_link_up(LinkId{1}, true);
  const std::uint64_t events = net.converge();
  EXPECT_LT(events, 10000u);

  // Back to the pre-failure state: metrics restored, traces loop-free.
  EXPECT_EQ(net.igp(DomainId{0})->distance(routers[0], routers[2]), base_02);
  for (const NodeId from : routers) {
    for (const NodeId to : routers) {
      const auto trace =
          net.network().trace(from, net.topology().router(to).loopback);
      EXPECT_TRUE(trace.delivered())
          << from.value() << "->" << to.value() << ": "
          << net.network().describe(trace);
    }
  }
}

class NodeCrashAnycastFailover : public ::testing::TestWithParam<IgpKind> {};

TEST_P(NodeCrashAnycastFailover, CrashRedirectsRecoveryRestores) {
  core::Options options;
  options.igp = GetParam();
  auto topo = net::generate_transit_stub(
      {.transit_domains = 3, .stubs_per_transit = 1, .seed = 41});
  EvolvableInternet net(std::move(topo), options);
  net.start();
  net.deploy_domain(DomainId{0});
  net.deploy_domain(DomainId{1});
  net.converge();
  const auto& group = net.anycast().group(net.vnbone().anycast_group());
  const NodeId probe_src = net.topology().domains().back().routers.front();

  const auto before = anycast::probe(net.network(), group, probe_src);
  ASSERT_TRUE(before.delivered());
  const NodeId victim = before.trace.delivered_at;

  // Crash the member currently capturing the probe: the IGP routes around
  // the dead router AND anycast redirects to a surviving member.
  net.set_node_up(victim, false);
  net.converge();
  const auto during = anycast::probe(net.network(), group, probe_src);
  ASSERT_TRUE(during.delivered()) << "anycast must fail over past the crash";
  EXPECT_NE(during.trace.delivered_at, victim);

  // Recovery: the router comes back, rejoins the group via the control
  // plane, and (being closest again) recaptures the probe.
  net.set_node_up(victim, true);
  net.converge();
  const auto after = anycast::probe(net.network(), group, probe_src);
  ASSERT_TRUE(after.delivered());
  EXPECT_EQ(after.trace.delivered_at, victim);
}

INSTANTIATE_TEST_SUITE_P(BothIgps, NodeCrashAnycastFailover,
                         ::testing::Values(IgpKind::kLinkState,
                                           IgpKind::kDistanceVectorTagged),
                         [](const auto& info) {
                           return info.param == IgpKind::kLinkState
                                      ? "LinkState"
                                      : "DistanceVectorTagged";
                         });

}  // namespace
}  // namespace evo
