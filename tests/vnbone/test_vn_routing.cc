// Routing over the vN-Bone (§3.3.2): native destinations, self-addressed
// destinations under the three egress-selection modes, and BGPv(N-1)
// knowledge import.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/evolvable_internet.h"
#include "core/scenario.h"
#include "net/topology_gen.h"

namespace evo::vnbone {
namespace {

using net::DomainId;
using net::IpvNAddr;
using net::NodeId;

TEST(VnRouting, NativeDestinationRoutedToAccessRouter) {
  auto fig = core::make_figure3();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.m);
  net.deploy_domain(fig.o);
  net.converge();
  const auto& topo = net.topology();
  // Destination: native address homed at O's router Y.
  const auto dst = IpvNAddr::native(8, fig.o.value(), fig.y.value(), 0);
  const NodeId ingress = topo.domain(fig.m).routers[0];
  const auto route = net.vnbone().route(ingress, dst);
  ASSERT_TRUE(route.ok);
  EXPECT_EQ(route.egress, fig.y);
  EXPECT_FALSE(route.exits_to_legacy);
  EXPECT_GE(route.vn_hop_count(), 1u);
}

TEST(VnRouting, NativeDestinationPartialDomainUsesNearestMember) {
  // Home domain deployed only partially: the egress is the deployed router
  // closest to the (legacy) access router, and the tail is legacy.
  core::Options options;
  core::EvolvableInternet net(net::single_domain_line(5), options);
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.deploy_router(routers[2]);
  net.converge();
  // Destination homed at router 4 (not deployed); nearest member is 2.
  const auto dst = IpvNAddr::native(8, 0, routers[4].value(), 0);
  const auto route = net.vnbone().route(routers[0], dst);
  ASSERT_TRUE(route.ok);
  EXPECT_EQ(route.egress, routers[2]);
  EXPECT_TRUE(route.exits_to_legacy);
}

TEST(VnRouting, SelfAddressExitAtIngress) {
  auto fig = core::make_figure3();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.m);
  net.deploy_domain(fig.o);
  net.converge();
  const auto& topo = net.topology();
  const auto dst = IpvNAddr::self(8, topo.host(fig.c).address);
  const NodeId ingress = topo.domain(fig.m).routers[0];
  const auto route = net.vnbone().route(ingress, dst, EgressMode::kExitAtIngress);
  ASSERT_TRUE(route.ok);
  EXPECT_EQ(route.egress, ingress);
  EXPECT_EQ(route.vn_hop_count(), 0u);
  EXPECT_TRUE(route.exits_to_legacy);
}

TEST(VnRouting, Figure3OwnPathKnowledgeExitsCloserToDestination) {
  auto fig = core::make_figure3();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.m);
  net.deploy_domain(fig.o);
  net.converge();
  const auto& topo = net.topology();
  const auto dst = IpvNAddr::self(8, topo.host(fig.c).address);
  const NodeId ingress = topo.host(fig.a).access_router;  // in M

  // With BGPv(N-1) import, the egress must be in O (the deployed domain
  // furthest along M's path to C's domain) — the figure's "last IPvN hop
  // is Y".
  const auto informed =
      net.vnbone().route(ingress, dst, EgressMode::kOwnPathKnowledge);
  ASSERT_TRUE(informed.ok);
  EXPECT_EQ(topo.router(informed.egress).domain, fig.o);
  EXPECT_GE(informed.vn_hop_count(), 1u);
}

TEST(VnRouting, ProxyAdvertisingFindsOffPathEgress) {
  auto fig = core::make_figure4();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.a);
  net.deploy_domain(fig.b);
  net.deploy_domain(fig.c);
  net.converge();
  const auto& topo = net.topology();
  const auto dst = IpvNAddr::self(8, topo.host(fig.dst).address);
  const NodeId ingress = topo.host(fig.src).access_router;  // in A

  // A's own BGPv(N-1) path to Z runs through legacy M and N only, so
  // own-path knowledge finds no deployed domain and exits at the ingress.
  const auto own = net.vnbone().route(ingress, dst, EgressMode::kOwnPathKnowledge);
  ASSERT_TRUE(own.ok);
  EXPECT_EQ(own.egress, ingress);

  // With advertising-by-proxy, C's short distance to Z is visible in
  // BGPvN: the route rides the bone to C.
  const auto proxy = net.vnbone().route(ingress, dst, EgressMode::kProxyAdvertising);
  ASSERT_TRUE(proxy.ok);
  EXPECT_EQ(topo.router(proxy.egress).domain, fig.c);
}

TEST(VnRouting, LegacyPathLengthMatchesBgp) {
  auto fig = core::make_figure4();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.a);
  net.converge();
  // A's AS-path to Z: [M, N, Z] => 3; C's would be 1 (direct customer).
  EXPECT_EQ(net.vnbone().legacy_path_length(fig.a, fig.z), 3u);
  EXPECT_EQ(net.vnbone().legacy_path_length(fig.c, fig.z), 1u);
  EXPECT_EQ(net.vnbone().legacy_path_length(fig.z, fig.z), 0u);
  const auto path = net.vnbone().legacy_path(fig.a, fig.z);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.back(), fig.z);
}

TEST(VnRouting, UnreachableWithoutIngressDeployment) {
  core::EvolvableInternet net(net::single_domain_line(3));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.converge();
  // Routing from a non-deployed router fails.
  const auto dst = IpvNAddr::self(8, net::Ipv4Addr{0, 1, 0, 2});
  const auto route = net.vnbone().route(routers[2], dst);
  EXPECT_FALSE(route.ok);
}

TEST(VnRouting, BogusNativeDestinationRejected) {
  core::EvolvableInternet net(net::single_domain_line(3));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.converge();
  const auto dst = IpvNAddr::native(8, /*domain=*/77, /*node=*/9999, 0);
  const auto route = net.vnbone().route(routers[0], dst);
  EXPECT_FALSE(route.ok);
}

TEST(VnRouting, VnRibSizeGrowsWithProxyEntries) {
  auto fig = core::make_figure4();
  core::Options options;
  options.vnbone.egress_mode = EgressMode::kProxyAdvertising;
  core::EvolvableInternet net(std::move(fig.topology), options);
  net.start();
  net.deploy_domain(fig.a);
  net.converge();
  const NodeId a0 = net.topology().domain(fig.a).routers[0];
  const auto with_one_domain = net.vnbone().vn_rib_size(a0);
  net.deploy_domain(fig.c);
  net.converge();
  const auto with_two_domains = net.vnbone().vn_rib_size(a0);
  EXPECT_GT(with_two_domains, with_one_domain);
  EXPECT_EQ(net.vnbone().vn_rib_size(NodeId{9999u}), 0u);
}

// ---- vN routing tables ------------------------------------------------------
// route() reads per-ingress trees, a proxy-distance table and a per-domain
// member index. Each test fills the tables, moves one of their inputs
// between two rebuild()s, and checks every (active ingress, host, mode)
// against reference_route(), which recomputes everything.

constexpr EgressMode kAllModes[] = {
    EgressMode::kExitAtIngress, EgressMode::kOwnPathKnowledge,
    EgressMode::kProxyAdvertising, EgressMode::kEndhostAdvertised};

void expect_tables_match_reference(const core::EvolvableInternet& net) {
  const auto& bone = net.vnbone();
  const auto& topo = net.topology();
  for (const NodeId ingress : bone.active_members()) {
    for (const auto& host : topo.hosts()) {
      const auto dst = net.hosts().ipvn_address(host.id);
      for (const EgressMode mode : kAllModes) {
        EXPECT_TRUE(bone.route(ingress, dst, mode) ==
                    bone.reference_route(ingress, dst, mode))
            << "ingress " << ingress.value() << " host " << host.id.value() << " "
            << to_string(mode);
      }
    }
  }
}

/// Figure 4 with A and C deployed, and B as well when `with_b`.
struct Figure4Bone {
  core::Figure4 fig = core::make_figure4();
  core::EvolvableInternet net{fig.topology};

  explicit Figure4Bone(bool with_b = true) {
    net.start();
    net.deploy_domain(fig.a);
    if (with_b) net.deploy_domain(fig.b);
    net.deploy_domain(fig.c);
    net.converge();
  }

  /// The proxy-advertising route from A's host toward Z's (egress in C
  /// while C's customer route to Z is up).
  VnBone::VnRoute proxy_route() const {
    const auto& topo = net.topology();
    return net.vnbone().route(topo.host(fig.src).access_router,
                              IpvNAddr::self(8, topo.host(fig.dst).address),
                              EgressMode::kProxyAdvertising);
  }
};

TEST(VnRoutingTables, BgpWithdrawalMovesProxyEgressWithoutRebuild) {
  Figure4Bone f;
  auto& net = f.net;
  const auto& fig = f.fig;
  const auto& topo = net.topology();
  ASSERT_EQ(topo.router(f.proxy_route().egress).domain, fig.c);
  expect_tables_match_reference(net);

  // Z stops originating its prefix. BGP runs to quiescence; no sync runs,
  // so the virtual links (and the trees) stay as they were.
  const auto links = net.vnbone().virtual_links().size();
  net.bgp().withdraw(fig.z, topo.domain(fig.z).prefix);
  net.simulator().run();
  ASSERT_EQ(net.vnbone().virtual_links().size(), links);
  EXPECT_EQ(net.vnbone().legacy_path_length(fig.c, fig.z), net::kInfiniteCost);
  const auto after = f.proxy_route();
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.egress, topo.host(fig.src).access_router);  // nobody reaches Z
  expect_tables_match_reference(net);
}

TEST(VnRoutingTables, InterDomainLinkFailureMovesProxyEgress) {
  Figure4Bone f;
  auto& net = f.net;
  const auto& fig = f.fig;
  const auto& topo = net.topology();
  ASSERT_EQ(topo.router(f.proxy_route().egress).domain, fig.c);
  expect_tables_match_reference(net);

  // Fail C's customer link to Z. C has no other valley-free route to Z, so
  // only A's path through M and N is left.
  net::LinkId c_z = net::LinkId::invalid();
  for (const auto& link : topo.links()) {
    const auto da = topo.router(link.a).domain;
    const auto db = topo.router(link.b).domain;
    if ((da == fig.c && db == fig.z) || (da == fig.z && db == fig.c)) c_z = link.id;
  }
  ASSERT_TRUE(c_z.valid());
  ASSERT_TRUE(net.set_link_up(c_z, false));
  net.simulator().run();
  const auto after = f.proxy_route();
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(topo.router(after.egress).domain, fig.a);
  expect_tables_match_reference(net);
}

TEST(VnRoutingTables, MemberCrashIsSeenWithoutRebuild) {
  Figure4Bone f;
  auto& net = f.net;
  const auto& fig = f.fig;
  const auto& topo = net.topology();
  const NodeId egress = f.proxy_route().egress;
  ASSERT_EQ(topo.router(egress).domain, fig.c);
  expect_tables_match_reference(net);

  // Crash the egress and route before the simulator runs: no sync, no
  // rebuild, so the virtual links still name the dead member.
  const auto links = net.vnbone().virtual_links().size();
  ASSERT_TRUE(net.set_node_up(egress, false));
  ASSERT_EQ(net.vnbone().virtual_links().size(), links);
  const auto after = f.proxy_route();
  ASSERT_TRUE(after.ok);
  EXPECT_NE(after.egress, egress);
  for (const auto& host : topo.hosts()) {
    const auto dst = net.hosts().ipvn_address(host.id);
    for (const EgressMode mode : kAllModes) {
      const auto route =
          net.vnbone().route(topo.host(fig.src).access_router, dst, mode);
      EXPECT_FALSE(route.ok && route.egress == egress) << to_string(mode);
    }
  }
  expect_tables_match_reference(net);
}

TEST(VnRoutingTables, DeployAndRebuildDropStaleTrees) {
  Figure4Bone f(/*with_b=*/false);
  auto& net = f.net;
  const auto& fig = f.fig;
  const auto before = f.proxy_route();
  ASSERT_TRUE(before.ok);
  expect_tables_match_reference(net);

  // B joins between A and C: the peering tunnels through B replace the
  // anycast bootstrap tunnel, so the tree from A's ingress changes.
  net.deploy_domain(fig.b);
  net.converge();
  const auto after = f.proxy_route();
  ASSERT_TRUE(after.ok);
  EXPECT_NE(after.vn_hops, before.vn_hops);
  const auto& topo = net.topology();
  EXPECT_TRUE(std::any_of(after.vn_hops.begin(), after.vn_hops.end(),
                          [&](NodeId r) { return topo.router(r).domain == fig.b; }));
  expect_tables_match_reference(net);
}

TEST(VnRoutingTables, UndeployUpdatesMemberIndex) {
  Figure4Bone f;
  auto& net = f.net;
  const auto& fig = f.fig;
  const auto& topo = net.topology();
  auto& bone = net.vnbone();
  expect_tables_match_reference(net);

  // Undeploy C router by router, routing between the steps without a
  // rebuild: first the proxy egress, then the rest of C.
  const NodeId egress = f.proxy_route().egress;
  ASSERT_EQ(topo.router(egress).domain, fig.c);
  net.undeploy_router(egress);
  EXPECT_FALSE(std::ranges::binary_search(bone.deployed_routers_in(fig.c), egress));
  EXPECT_NE(f.proxy_route().egress, egress);
  expect_tables_match_reference(net);

  for (const NodeId r : topo.domain(fig.c).routers) net.undeploy_router(r);
  EXPECT_TRUE(bone.deployed_routers_in(fig.c).empty());
  EXPECT_FALSE(bone.domain_deployed(fig.c));
  EXPECT_EQ(bone.deployed_domains(), (std::vector<DomainId>{fig.a, fig.b}));
  // B still advertises by proxy its route to Z through its peer C.
  const auto after = f.proxy_route();
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(topo.router(after.egress).domain, fig.b);
  expect_tables_match_reference(net);
}

TEST(VnRouting, ModeNamesRender) {
  EXPECT_STREQ(to_string(EgressMode::kExitAtIngress), "exit-at-ingress");
  EXPECT_STREQ(to_string(EgressMode::kOwnPathKnowledge), "own-path-knowledge");
  EXPECT_STREQ(to_string(EgressMode::kProxyAdvertising), "proxy-advertising");
  EXPECT_STREQ(to_string(VirtualLink::Source::kIntraK), "intra-k");
  EXPECT_STREQ(to_string(VirtualLink::Source::kAnycastBootstrap),
               "anycast-bootstrap");
}

}  // namespace
}  // namespace evo::vnbone
