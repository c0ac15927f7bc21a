// BGP internals: parallel links, iBGP preference rules, update batching,
// and install-time interactions.
#include <gtest/gtest.h>

#include <memory>

#include "bgp/bgp.h"
#include "igp/link_state.h"
#include "net/topology_gen.h"

namespace evo::bgp {
namespace {

using net::DomainId;
using net::Ipv4Addr;
using net::LinkId;
using net::NodeId;
using net::Prefix;
using net::Relationship;
using net::Topology;

struct Fixture {
  explicit Fixture(Topology topo) : network(std::move(topo)) {
    for (const auto& domain : network.topology().domains()) {
      igps.push_back(
          std::make_unique<igp::LinkStateIgp>(simulator, network, domain.id));
    }
    bgp = std::make_unique<BgpSystem>(
        simulator, network,
        [this](DomainId d) -> const igp::Igp* { return igps[d.value()].get(); });
  }

  void start_and_converge() {
    for (auto& igp : igps) igp->start();
    bgp->start();
    simulator.run();
    bgp->install_routes();
  }

  void converge() {
    simulator.run();
    bgp->install_routes();
  }

  sim::Simulator simulator;
  net::Network network;
  std::vector<std::unique_ptr<igp::LinkStateIgp>> igps;
  std::unique_ptr<BgpSystem> bgp;
};

TEST(BgpDetails, ParallelLinksBothCarrySessions) {
  // Two physical links between the same pair of routers: two eBGP
  // sessions; killing one keeps reachability through the other.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  const auto l1 = topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  const auto l2 = topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix prefix = f.network.topology().domain(b).prefix;
  ASSERT_NE(f.bgp->best_route(ra, prefix), nullptr);
  f.network.topology().set_link_up(l1, false);
  f.bgp->on_link_change(l1);
  f.converge();
  const Route* during = f.bgp->best_route(ra, prefix);
  ASSERT_NE(during, nullptr);
  EXPECT_EQ(during->via_link, l2) << "the surviving session must carry the route";
  const auto trace = f.network.trace(ra, prefix.address());
  EXPECT_TRUE(trace.delivered());

  // Restoring l1 re-establishes its session without disturbing l2's.
  f.network.topology().set_link_up(l1, true);
  f.bgp->on_link_change(l1);
  f.converge();
  const Route* after = f.bgp->best_route(ra, prefix);
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->via_link == l1 || after->via_link == l2);
}

TEST(BgpDetails, EbgpPreferredOverIbgpCopy) {
  // A domain with two borders, both reaching the same prefix over eBGP:
  // each keeps its own eBGP route rather than the other's iBGP copy.
  Topology topo;
  const auto m = topo.add_domain("m");
  const auto left = topo.add_domain("left");
  const auto right = topo.add_domain("right");
  const auto dest = topo.add_domain("dest", /*stub=*/true);
  const auto m0 = topo.add_router(m);
  const auto m1 = topo.add_router(m);
  topo.add_link(m0, m1, 1);
  const auto rl = topo.add_router(left);
  const auto rr = topo.add_router(right);
  const auto rd = topo.add_router(dest);
  topo.add_interdomain_link(m0, rl, Relationship::kCustomer);
  topo.add_interdomain_link(m1, rr, Relationship::kCustomer);
  topo.add_interdomain_link(rl, rd, Relationship::kCustomer);
  topo.add_interdomain_link(rr, rd, Relationship::kCustomer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto prefix = f.network.topology().domain(dest).prefix;
  const auto* at_m0 = f.bgp->best_route(m0, prefix);
  const auto* at_m1 = f.bgp->best_route(m1, prefix);
  ASSERT_NE(at_m0, nullptr);
  ASSERT_NE(at_m1, nullptr);
  EXPECT_FALSE(at_m0->via_ibgp);
  EXPECT_FALSE(at_m1->via_ibgp);
  EXPECT_EQ(at_m0->as_path.front(), left);
  EXPECT_EQ(at_m1->as_path.front(), right);
}

TEST(BgpDetails, OriginateIsIdempotentReplace) {
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 50});
  OriginationPolicy open;
  f.bgp->originate(a, p, open);
  f.converge();
  ASSERT_NE(f.bgp->best_route(rb, p), nullptr);
  // Re-originate with a scope that excludes b: the old advertisement must
  // be superseded (withdrawn at b).
  OriginationPolicy scoped;
  scoped.export_scope = std::set<DomainId>{};  // export to nobody
  f.bgp->originate(a, p, scoped);
  f.converge();
  EXPECT_EQ(f.bgp->best_route(rb, p), nullptr);
  EXPECT_NE(f.bgp->best_route(ra, p), nullptr);  // still has its own
}

TEST(BgpDetails, InstallRespectsIgpOverBgpForSamePrefix) {
  // If the IGP already owns a /32 (anycast member route), install_routes
  // must not clobber it with a BGP route for the identical prefix.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto a0 = topo.add_router(a);
  const auto a1 = topo.add_router(a);
  topo.add_link(a0, a1, 1);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(a1, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  // a0 is an anycast member for some /32 out of b's space (adversarial).
  const Ipv4Addr addr{0, 2, 255, 1};
  f.network.add_local_address(a0, addr);
  f.igps[0]->add_anycast_member(a0, addr);
  f.start_and_converge();
  // b also originates the exact /32 into BGP.
  OriginationPolicy policy;
  policy.anycast = true;
  f.bgp->originate(b, Prefix::host(addr), policy);
  f.converge();
  // a1 (border) must keep its IGP anycast route toward a0.
  const net::FibEntry* entry = f.network.fib(a1).find(Prefix::host(addr));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin, net::RouteOrigin::kAnycast);
  const auto trace = f.network.trace(a1, addr);
  ASSERT_TRUE(trace.delivered());
  EXPECT_EQ(trace.delivered_at, a0);

  // Once a0 leaves the group the IGP withdraws its /32, and with no BGP
  // message in between the BGP route takes its place at a1.
  const auto messages = f.bgp->messages_sent();
  f.igps[0]->remove_anycast_member(a0, addr);
  f.converge();
  EXPECT_EQ(f.bgp->messages_sent(), messages);
  entry = f.network.fib(a1).find(Prefix::host(addr));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin, net::RouteOrigin::kBgp);
  EXPECT_EQ(entry->next_hop, rb);
}

TEST(BgpDetails, IntraDomainFlapMovesHotPotatoEgressWithoutMessages) {
  // Domain a: internal routers i and j (j hangs off i) and borders b1, b2,
  // each peering with c. i reaches b1 at cost 1 and b2 at cost 3, so c's
  // prefix egresses at b1 until the i-b1 link fails.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto c = topo.add_domain("c");
  const auto i = topo.add_router(a);
  const auto j = topo.add_router(a);
  const auto b1 = topo.add_router(a);
  const auto b2 = topo.add_router(a);
  topo.add_link(j, i, 1);
  const auto i_b1 = topo.add_link(i, b1, 1);
  topo.add_link(i, b2, 3);
  topo.add_link(b1, b2, 10);
  const auto rc = topo.add_router(c);
  topo.add_interdomain_link(b1, rc, Relationship::kPeer);
  topo.add_interdomain_link(b2, rc, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix target = f.network.topology().domain(c).prefix;
  const auto* at_i = f.network.fib(i).find(target);
  const auto* at_j = f.network.fib(j).find(target);
  ASSERT_NE(at_i, nullptr);
  ASSERT_NE(at_j, nullptr);
  EXPECT_EQ(at_i->next_hop, b1);
  EXPECT_EQ(at_j->next_hop, i);
  EXPECT_EQ(at_j->metric, 2u);

  const auto messages = f.bgp->messages_sent();
  f.network.topology().set_link_up(i_b1, false);
  f.igps[0]->on_link_change(i_b1);
  f.converge();
  EXPECT_EQ(f.bgp->messages_sent(), messages);
  at_i = f.network.fib(i).find(target);
  at_j = f.network.fib(j).find(target);
  ASSERT_NE(at_i, nullptr);
  ASSERT_NE(at_j, nullptr);
  EXPECT_EQ(at_i->origin, net::RouteOrigin::kBgp);
  EXPECT_EQ(at_i->next_hop, b2);
  EXPECT_EQ(at_i->metric, 3u);
  EXPECT_EQ(at_j->next_hop, i);
  EXPECT_EQ(at_j->metric, 4u);

  // Restoring the link moves the egress back.
  f.network.topology().set_link_up(i_b1, true);
  f.igps[0]->on_link_change(i_b1);
  f.converge();
  EXPECT_EQ(f.bgp->messages_sent(), messages);
  EXPECT_EQ(f.network.fib(i).find(target)->next_hop, b1);
  EXPECT_EQ(f.network.fib(j).find(target)->metric, 2u);
}

TEST(BgpDetails, CrashedSpeakerStopsAttractingHotPotatoTraffic) {
  // Domain a: internal router i reaches border b1 through m at cost 2 and
  // border b2 directly at cost 5; both borders peer with c. When b1
  // crashes its Loc-RIB is wiped, so i must egress at b2 even while the
  // IGP (not told of the crash here) still reports b1 as closest.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto c = topo.add_domain("c");
  const auto i = topo.add_router(a);
  const auto m = topo.add_router(a);
  const auto b1 = topo.add_router(a);
  const auto b2 = topo.add_router(a);
  topo.add_link(i, m, 1);
  topo.add_link(m, b1, 1);
  topo.add_link(i, b2, 5);
  const auto rc = topo.add_router(c);
  topo.add_interdomain_link(b1, rc, Relationship::kPeer);
  topo.add_interdomain_link(b2, rc, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix target = f.network.topology().domain(c).prefix;
  ASSERT_NE(f.network.fib(i).find(target), nullptr);
  EXPECT_EQ(f.network.fib(i).find(target)->next_hop, m);

  f.network.topology().set_node_up(b1, false);
  f.bgp->on_node_change(b1, false);
  f.converge();
  const auto* entry = f.network.fib(i).find(target);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->next_hop, b2);
  EXPECT_EQ(entry->metric, 5u);

  f.network.topology().set_node_up(b1, true);
  f.bgp->on_node_change(b1, true);
  f.converge();
  EXPECT_EQ(f.network.fib(i).find(target)->next_hop, m);
}

TEST(BgpDetails, EgressDropsRouteOverUnusableLinkBeforeWithdrawal) {
  // The egress installs an eBGP route only over a usable link. A link that
  // went down without BGP being told yet (sessions still up, routes still
  // in the Loc-RIB) must still lose its FIB entry at the next install.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto c = topo.add_domain("c");
  const auto i = topo.add_router(a);
  const auto b = topo.add_router(a);
  topo.add_link(i, b, 1);
  const auto rc = topo.add_router(c);
  const auto link = topo.add_interdomain_link(b, rc, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix target = f.network.topology().domain(c).prefix;
  const auto* entry = f.network.fib(b).find(target);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->out_link, link);

  f.network.topology().set_link_up(link, false);
  f.bgp->install_routes();
  ASSERT_NE(f.bgp->best_route(b, target), nullptr);
  EXPECT_EQ(f.network.fib(b).find(target), nullptr);

  f.network.topology().set_link_up(link, true);
  f.bgp->install_routes();
  entry = f.network.fib(b).find(target);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->out_link, link);
}

TEST(BgpDetails, RepeatedInstallLeavesEveryEpoch) {
  // An install on an unchanged state rewrites nothing, so no router's
  // compiled forwarding table goes stale.
  net::TransitStubParams params;
  params.transit_domains = 3;
  params.stubs_per_transit = 2;
  params.seed = 9;
  Fixture f(net::generate_transit_stub(params));
  f.start_and_converge();
  std::vector<std::uint64_t> epochs;
  for (const auto& router : f.network.topology().routers()) {
    epochs.push_back(f.network.fib(router.id).epoch());
  }
  f.bgp->install_routes();
  f.bgp->install_routes();
  for (const auto& router : f.network.topology().routers()) {
    EXPECT_EQ(f.network.fib(router.id).epoch(), epochs[router.id.value()])
        << "router " << router.id.value();
  }
}

TEST(BgpDetails, UpdateBatchingBoundsMessages) {
  // Many prefixes originated in one burst are flushed in one batch per
  // session, not one message per prefix per decision round.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto before = f.bgp->messages_sent();
  for (std::uint32_t i = 0; i < 32; ++i) {
    f.bgp->originate(a, Prefix::host(Ipv4Addr{i + 1}), {});
  }
  f.converge();
  // 32 prefixes, one session: 32 updates flow, but no quadratic blowup
  // (each prefix advertised to b exactly once; nothing bounces back).
  EXPECT_LE(f.bgp->messages_sent() - before, 40u);
  EXPECT_NE(f.bgp->best_route(rb, Prefix::host(Ipv4Addr{32})), nullptr);
}

}  // namespace
}  // namespace evo::bgp
