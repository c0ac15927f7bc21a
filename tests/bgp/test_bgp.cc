#include "bgp/bgp.h"

#include <gtest/gtest.h>

#include <memory>

#include "igp/link_state.h"

namespace evo::bgp {
namespace {

using net::DomainId;
using net::Ipv4Addr;
using net::LinkId;
using net::NodeId;
using net::Prefix;
using net::Relationship;
using net::Topology;

/// Simulator + network + one link-state IGP per domain + BGP.
struct Fixture {
  explicit Fixture(Topology topo) : network(std::move(topo)) {
    for (const auto& domain : network.topology().domains()) {
      igps.push_back(std::make_unique<igp::LinkStateIgp>(simulator, network,
                                                         domain.id));
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

/// Three domains in a customer chain: a <- b <- c (b provider of a, c
/// provider of b). Two routers per domain.
Topology chain3() {
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto c = topo.add_domain("c");
  std::vector<std::vector<NodeId>> r;
  for (const auto d : {a, b, c}) {
    r.push_back({topo.add_router(d), topo.add_router(d)});
    topo.add_link(r.back()[0], r.back()[1], 1);
  }
  topo.add_interdomain_link(r[0][1], r[1][0], Relationship::kProvider);  // b provides a
  topo.add_interdomain_link(r[1][1], r[2][0], Relationship::kProvider);  // c provides b
  return topo;
}

TEST(BgpSystem, ChainReachability) {
  Fixture f(chain3());
  f.start_and_converge();
  const auto& topo = f.network.topology();
  // Every router can reach every other domain's routers.
  for (const auto& src : topo.routers()) {
    for (const auto& dst : topo.routers()) {
      const auto result = f.network.trace(src.id, dst.loopback);
      EXPECT_TRUE(result.delivered())
          << src.id.value() << " -> " << dst.id.value();
    }
  }
}

TEST(BgpSystem, AsPathRecorded) {
  Fixture f(chain3());
  f.start_and_converge();
  const auto& topo = f.network.topology();
  // a's border router sees c's prefix with path [b, c].
  const NodeId a_border = topo.domain(DomainId{0}).routers[1];
  const auto* route = f.bgp->best_route(a_border, topo.domain(DomainId{2}).prefix);
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->as_path.size(), 2u);
  EXPECT_EQ(route->as_path[0], DomainId{1});
  EXPECT_EQ(route->as_path[1], DomainId{2});
  EXPECT_EQ(route->learned, LearnedFrom::kProvider);
}

TEST(BgpSystem, LocRibSizes) {
  Fixture f(chain3());
  f.start_and_converge();
  const auto& topo = f.network.topology();
  const NodeId b_border = topo.domain(DomainId{1}).routers[0];
  // b sees its own prefix + a's + c's.
  EXPECT_EQ(f.bgp->loc_rib_size(b_border), 3u);
  EXPECT_EQ(f.bgp->loc_rib_size(b_border, /*anycast_only=*/true), 0u);
}

TEST(BgpSystem, NonSpeakerHasNoRib) {
  Fixture f(chain3());
  f.start_and_converge();
  const auto& topo = f.network.topology();
  const NodeId a_internal = topo.domain(DomainId{0}).routers[0];
  EXPECT_EQ(f.bgp->loc_rib_size(a_internal), 0u);
  EXPECT_EQ(f.bgp->best_route(a_internal, topo.domain(DomainId{2}).prefix), nullptr);
  // But its FIB still carries the routes (hot-potato install).
  EXPECT_GT(f.network.fib(a_internal).size_with_origin(net::RouteOrigin::kBgp), 0u);
}

TEST(BgpSystem, WithdrawPropagates) {
  Fixture f(chain3());
  f.start_and_converge();
  const auto& topo = f.network.topology();
  const Prefix extra{Ipv4Addr{0, 77, 0, 0}, 16};
  OriginationPolicy policy;
  f.bgp->originate(DomainId{2}, extra, policy);
  f.converge();
  const NodeId a_border = topo.domain(DomainId{0}).routers[1];
  ASSERT_NE(f.bgp->best_route(a_border, extra), nullptr);
  f.bgp->withdraw(DomainId{2}, extra);
  f.converge();
  EXPECT_EQ(f.bgp->best_route(a_border, extra), nullptr);
}

TEST(BgpSystem, SessionDownDropsRoutes) {
  Fixture f(chain3());
  f.start_and_converge();
  const auto& topo = f.network.topology();
  const NodeId a_border = topo.domain(DomainId{0}).routers[1];
  ASSERT_NE(f.bgp->best_route(a_border, topo.domain(DomainId{2}).prefix), nullptr);
  // Cut the a-b interdomain link.
  const LinkId cut = [&] {
    for (const auto& link : topo.links()) {
      if (link.interdomain &&
          topo.router(link.a).domain.value() + topo.router(link.b).domain.value() == 1) {
        return link.id;
      }
    }
    return LinkId::invalid();
  }();
  ASSERT_TRUE(cut.valid());
  f.network.topology().set_link_up(cut, false);
  f.bgp->on_link_change(cut);
  f.converge();
  EXPECT_EQ(f.bgp->best_route(a_border, topo.domain(DomainId{2}).prefix), nullptr);
}

TEST(BgpSystem, SessionRecoveryRestoresRoutes) {
  Fixture f(chain3());
  f.start_and_converge();
  const auto& topo = f.network.topology();
  const NodeId a_border = topo.domain(DomainId{0}).routers[1];
  const LinkId cut = [&] {
    for (const auto& link : topo.links()) {
      if (link.interdomain &&
          topo.router(link.a).domain.value() + topo.router(link.b).domain.value() == 1) {
        return link.id;
      }
    }
    return LinkId::invalid();
  }();
  f.network.topology().set_link_up(cut, false);
  f.bgp->on_link_change(cut);
  f.converge();
  f.network.topology().set_link_up(cut, true);
  f.bgp->on_link_change(cut);
  f.converge();
  EXPECT_NE(f.bgp->best_route(a_border, topo.domain(DomainId{2}).prefix), nullptr);
}

TEST(BgpSystem, MultiOriginAnycastFollowsPolicy) {
  // a - b - c chain (a is b's customer, c is b's provider); a and c both
  // originate the same anycast /32. Policy, not proximity, decides: every
  // b border prefers the *customer*-learned origin (a), exactly the
  // paper's point that ISPs control redirection through routing policy.
  Fixture f(chain3());
  f.start_and_converge();
  const Prefix anycast = Prefix::host(Ipv4Addr{0, 0, 0, 5});
  OriginationPolicy policy;
  policy.anycast = true;
  f.bgp->originate(DomainId{0}, anycast, policy);
  f.bgp->originate(DomainId{2}, anycast, policy);
  f.converge();
  const auto& topo = f.network.topology();
  const NodeId b0 = topo.domain(DomainId{1}).routers[0];
  const NodeId b1 = topo.domain(DomainId{1}).routers[1];
  const auto* at_b0 = f.bgp->best_route(b0, anycast);
  const auto* at_b1 = f.bgp->best_route(b1, anycast);
  ASSERT_NE(at_b0, nullptr);
  ASSERT_NE(at_b1, nullptr);
  EXPECT_EQ(at_b0->origin_domain(), DomainId{0});
  EXPECT_EQ(at_b0->learned, LearnedFrom::kCustomer);
  // b1 also picks the customer origin via iBGP despite having a direct
  // eBGP offer from its provider c: local-pref dominates.
  EXPECT_EQ(at_b1->origin_domain(), DomainId{0});
  EXPECT_TRUE(at_b1->via_ibgp);
  EXPECT_EQ(f.bgp->loc_rib_size(b0, /*anycast_only=*/true), 1u);
}

TEST(BgpSystem, ScopedExportOnlyReachesScope) {
  Fixture f(chain3());
  f.start_and_converge();
  const auto& topo = f.network.topology();
  const Prefix scoped = Prefix::host(Ipv4Addr{0, 0, 0, 9});
  OriginationPolicy policy;
  policy.export_scope = std::set<DomainId>{DomainId{1}};  // only to b
  policy.no_export = true;
  f.bgp->originate(DomainId{2}, scoped, policy);
  f.converge();
  const NodeId b_border = topo.domain(DomainId{1}).routers[1];
  EXPECT_NE(f.bgp->best_route(b_border, scoped), nullptr);
  // a must never see it: scope keeps c from exporting to anyone else and
  // no-export keeps b from re-advertising.
  const NodeId a_border = topo.domain(DomainId{0}).routers[1];
  EXPECT_EQ(f.bgp->best_route(a_border, scoped), nullptr);
}

TEST(BgpSystem, MessagesCounted) {
  Fixture f(chain3());
  f.start_and_converge();
  EXPECT_GT(f.bgp->messages_sent(), 0u);
}

TEST(BgpSystem, SpeakersOfListsBorders) {
  Fixture f(chain3());
  const auto& speakers = f.bgp->speakers_of(DomainId{1});
  ASSERT_EQ(speakers.size(), 2u);  // both b routers have interdomain links
  const auto& a_speakers = f.bgp->speakers_of(DomainId{0});
  ASSERT_EQ(a_speakers.size(), 1u);
}

TEST(BgpSystem, HotPotatoPrefersCloserEgress) {
  // Diamond: domain m has two borders, each linked to a different provider
  // that both reach a common origin. Internal routers exit via the closer
  // border.
  Topology topo;
  const auto m = topo.add_domain("m");
  const auto p1 = topo.add_domain("p1");
  const auto p2 = topo.add_domain("p2");
  const auto origin = topo.add_domain("origin");
  // m: b1 - i (cost 1) - far - b2 so b1 is closer to i.
  const auto b1 = topo.add_router(m);
  const auto i = topo.add_router(m);
  const auto far = topo.add_router(m);
  const auto b2 = topo.add_router(m);
  topo.add_link(b1, i, 1);
  topo.add_link(i, far, 5);
  topo.add_link(far, b2, 5);
  const auto p1r = topo.add_router(p1);
  const auto p2r = topo.add_router(p2);
  const auto o = topo.add_router(origin);
  topo.add_interdomain_link(b1, p1r, Relationship::kProvider);
  topo.add_interdomain_link(b2, p2r, Relationship::kProvider);
  topo.add_interdomain_link(p1r, o, Relationship::kCustomer);
  topo.add_interdomain_link(p2r, o, Relationship::kCustomer);

  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto& t = f.network.topology();
  const auto result = f.network.trace(i, t.domain(origin).prefix.address());
  // i's first hop must be b1 (cost 1), not the far b2 (cost 10).
  ASSERT_GE(result.hops.size(), 2u);
  EXPECT_EQ(result.hops[1], b1);
}

}  // namespace
}  // namespace evo::bgp
