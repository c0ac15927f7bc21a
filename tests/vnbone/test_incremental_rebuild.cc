// Incremental vN-Bone rebuild: each domain's intra-domain links are kept
// while their inputs are equal, and the per-ingress trees are kept while
// the link list is. After every kind of churn the links must equal a
// from-scratch build (reference_links()) and every route a from-scratch
// route (reference_route()).
#include <gtest/gtest.h>

#include "core/evolvable_internet.h"
#include "net/topology_gen.h"
#include "sim/random.h"

namespace evo::vnbone {
namespace {

using net::DomainId;
using net::IpvNAddr;
using net::LinkId;
using net::NodeId;

constexpr EgressMode kAllModes[] = {
    EgressMode::kExitAtIngress, EgressMode::kOwnPathKnowledge,
    EgressMode::kProxyAdvertising, EgressMode::kEndhostAdvertised};

/// Fills the trees of every active ingress; returns the routes taken.
std::size_t route_all(const core::EvolvableInternet& net) {
  std::size_t routes = 0;
  for (const NodeId ingress : net.vnbone().active_members()) {
    for (const auto& host : net.topology().hosts()) {
      for (const EgressMode mode : kAllModes) {
        net.vnbone().route(ingress, net.hosts().ipvn_address(host.id), mode);
        ++routes;
      }
    }
  }
  return routes;
}

/// The links equal a from-scratch build and every (active ingress, host,
/// egress mode) route equals a from-scratch route.
void expect_fixpoint(const core::EvolvableInternet& net, const std::string& step) {
  const auto& bone = net.vnbone();
  EXPECT_TRUE(bone.virtual_links() == bone.reference_links()) << step;
  for (const NodeId ingress : bone.active_members()) {
    for (const auto& host : net.topology().hosts()) {
      const IpvNAddr dst = net.hosts().ipvn_address(host.id);
      for (const EgressMode mode : kAllModes) {
        EXPECT_TRUE(bone.route(ingress, dst, mode) ==
                    bone.reference_route(ingress, dst, mode))
            << step << ": ingress " << ingress.value() << " host " << host.id.value()
            << " " << to_string(mode);
      }
    }
  }
}

/// Two transits and four single-homed stubs, one host per domain. Transit
/// 0 and two stubs deploy fully, transit 1 every other router, one stub a
/// single router; the last stub stays legacy.
struct Bone {
  core::EvolvableInternet net;

  static net::Topology topology() {
    auto topo = net::generate_transit_stub({.transit_domains = 2,
                                            .stubs_per_transit = 2,
                                            .transit_internal = {.routers = 5},
                                            .stub_internal = {.routers = 3},
                                            .multihoming_probability = 0,
                                            .seed = 11});
    sim::Rng rng{11};
    net::attach_hosts(topo, 1, rng);
    return topo;
  }

  explicit Bone(core::Options options = k1()) : net(topology(), options) {
    net.start();
    const auto& domains = net.topology().domains();
    for (const NodeId r : domains[0].routers) net.deploy_router(r);
    const auto& partial = domains[1].routers;
    for (std::size_t i = 0; i < partial.size(); i += 2) net.deploy_router(partial[i]);
    net.deploy_domain(domains[2].id);
    net.deploy_domain(domains[3].id);
    net.deploy_router(domains[4].routers.front());
    net.converge();
  }

  static core::Options k1() {
    core::Options options;
    options.vnbone.k_neighbors = 1;
    return options;
  }
};

TEST(IncrementalRebuild, IntraDomainLinkFlaps) {
  Bone f;
  auto& net = f.net;
  expect_fixpoint(net, "initial");
  const auto initial = net.vnbone().virtual_links();
  for (const auto& link : net.topology().links()) {
    if (link.interdomain) continue;
    const std::string name = "intra link " + std::to_string(link.id.value());
    net.set_link_up(link.id, false);
    net.converge();
    expect_fixpoint(net, name + " down");
    net.set_link_up(link.id, true);
    net.converge();
    expect_fixpoint(net, name + " up");
    EXPECT_TRUE(net.vnbone().virtual_links() == initial) << name;
  }
}

TEST(IncrementalRebuild, InterDomainLinkFlaps) {
  Bone f;
  auto& net = f.net;
  const auto initial = net.vnbone().virtual_links();
  for (const auto& link : net.topology().links()) {
    if (!link.interdomain) continue;
    const std::string name = "inter link " + std::to_string(link.id.value());
    net.set_link_up(link.id, false);
    net.converge();
    expect_fixpoint(net, name + " down");
    net.set_link_up(link.id, true);
    net.converge();
    expect_fixpoint(net, name + " up");
    EXPECT_TRUE(net.vnbone().virtual_links() == initial) << name;
  }
}

TEST(IncrementalRebuild, RouterCrashes) {
  Bone f;
  auto& net = f.net;
  const auto initial = net.vnbone().virtual_links();
  for (const auto& router : net.topology().routers()) {
    const std::string name = "router " + std::to_string(router.id.value());
    net.set_node_up(router.id, false);
    net.converge();
    expect_fixpoint(net, name + " crashed");
    net.set_node_up(router.id, true);
    net.converge();
    expect_fixpoint(net, name + " recovered");
    EXPECT_TRUE(net.vnbone().virtual_links() == initial) << name;
  }
}

TEST(IncrementalRebuild, MemberLossAndRejoin) {
  Bone f;
  auto& net = f.net;
  const auto initial = net.vnbone().virtual_links();
  for (const NodeId member : net.vnbone().deployed_routers()) {
    const std::string name = "member " + std::to_string(member.value());
    net.undeploy_router(member);
    net.converge();
    expect_fixpoint(net, name + " lost");
    net.deploy_router(member);
    net.converge();
    expect_fixpoint(net, name + " rejoined");
    EXPECT_TRUE(net.vnbone().virtual_links() == initial) << name;
  }
}

TEST(IncrementalRebuild, ManualTunnelAddAndRemove) {
  Bone f;
  auto& net = f.net;
  auto& bone = net.vnbone();
  const auto initial = bone.virtual_links();
  const auto& domains = net.topology().domains();
  // One tunnel inside transit 0 (it joins two members the intra rule
  // already links or not; either way the domain's cache key moves) and
  // one across domains; rebuild() is called directly, with no sync.
  const NodeId t0a = domains[0].routers.front();
  const NodeId t0b = domains[0].routers.back();
  const NodeId stub = domains[2].routers.front();
  bone.add_manual_tunnel(t0a, t0b);
  bone.rebuild();
  expect_fixpoint(net, "intra manual added");
  bone.add_manual_tunnel(t0a, stub);
  bone.rebuild();
  expect_fixpoint(net, "inter manual added");
  std::size_t manual = 0;
  for (const auto& l : bone.virtual_links()) {
    manual += l.source == VirtualLink::Source::kManual;
  }
  EXPECT_EQ(manual, 2u);
  bone.remove_manual_tunnel(t0a, t0b);
  bone.rebuild();
  expect_fixpoint(net, "intra manual removed");
  bone.remove_manual_tunnel(stub, t0a);
  bone.rebuild();
  expect_fixpoint(net, "inter manual removed");
  EXPECT_TRUE(bone.virtual_links() == initial);
}

TEST(IncrementalRebuild, PlainDistanceVectorBootstrapTree) {
  core::Options options = Bone::k1();
  options.igp = core::IgpKind::kDistanceVector;  // no member discovery
  options.vnbone.congruent_evolution = false;    // leave the tree rule alone
  Bone f(options);
  auto& net = f.net;
  EXPECT_GT(net.vnbone().bootstrap_tunnels(), 0u);
  expect_fixpoint(net, "initial");
  const auto bootstraps = net.vnbone().bootstrap_tunnels();
  for (const auto& link : net.topology().links()) {
    if (link.interdomain) continue;
    const std::string name = "intra link " + std::to_string(link.id.value());
    net.set_link_up(link.id, false);
    net.converge();
    expect_fixpoint(net, name + " down");
    net.set_link_up(link.id, true);
    net.converge();
    expect_fixpoint(net, name + " up");
    EXPECT_EQ(net.vnbone().bootstrap_tunnels(), bootstraps) << name;
  }
}

TEST(IncrementalRebuild, PartitionRepairFollowsIgpDistances) {
  // A line with k=1 and members in two pairs, (0,1) and (4,5): repair
  // bridges 1-4. Cutting the line physically splits the domain, so the
  // repair must go; restoring it must bring the repair back.
  core::Options options = Bone::k1();
  core::EvolvableInternet net(net::single_domain_line(6), options);
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  for (const std::size_t i : {0, 1, 4, 5}) net.deploy_router(routers[i]);
  net.converge();
  ASSERT_EQ(net.vnbone().partition_repairs(), 1u);
  expect_fixpoint(net, "joined");
  const auto joined = net.vnbone().virtual_links();
  net.set_link_up(LinkId{2}, false);  // 2-3
  net.converge();
  EXPECT_EQ(net.vnbone().partition_repairs(), 0u);
  expect_fixpoint(net, "split");
  net.set_link_up(LinkId{2}, true);
  net.converge();
  EXPECT_EQ(net.vnbone().partition_repairs(), 1u);
  expect_fixpoint(net, "rejoined");
  EXPECT_TRUE(net.vnbone().virtual_links() == joined);
}

TEST(IncrementalRebuild, PhysicallyHopelessComponent) {
  // Cut every uplink of the stub holding a single member: no overlay can
  // reach it, so the bootstrap loop marks it hopeless and carries on.
  Bone f;
  auto& net = f.net;
  const auto& stub = net.topology().domain(DomainId{4});
  std::vector<LinkId> uplinks;
  for (const auto& peering : stub.peerings) uplinks.push_back(peering.link);
  ASSERT_FALSE(uplinks.empty());
  for (const LinkId l : uplinks) net.set_link_up(l, false);
  net.converge();
  expect_fixpoint(net, "stub cut off");
  const auto comps = net::connected_components(net.vnbone().virtual_graph());
  const NodeId member = stub.routers.front();
  const NodeId anchor = net.topology().domain(DomainId{0}).routers.front();
  EXPECT_NE(comps.label[member.value()], comps.label[anchor.value()]);
  for (const LinkId l : uplinks) net.set_link_up(l, true);
  net.converge();
  expect_fixpoint(net, "stub back");
}

TEST(IncrementalRebuild, UnchangedInputsKeepTrees) {
  Bone f;
  auto& net = f.net;
  route_all(net);
  const auto builds = net.vnbone().tree_builds();
  ASSERT_GT(builds, 0u);
  net.vnbone().rebuild();
  route_all(net);
  EXPECT_EQ(net.vnbone().tree_builds(), builds);

  // A whole failure episode in the legacy stub moves no virtual link.
  const auto& legacy = net.topology().domain(DomainId{5});
  const LinkId inside = net.topology().router(legacy.routers.front()).links.front();
  ASSERT_FALSE(net.topology().link(inside).interdomain);
  const auto links = net.vnbone().virtual_links();
  net.set_link_up(inside, false);
  net.converge();
  net.set_link_up(inside, true);
  net.converge();
  ASSERT_TRUE(net.vnbone().virtual_links() == links);
  route_all(net);
  EXPECT_EQ(net.vnbone().tree_builds(), builds);
  expect_fixpoint(net, "legacy flap");
}

TEST(IncrementalRebuild, UnderlayCostChangeDropsTrees) {
  // Members 0 and 2 on a ring of 6: one tunnel over 0-1-2. Cutting 1-2
  // changes only its underlay cost (2 -> 4), and that alone must drop the
  // trees.
  core::EvolvableInternet net(net::single_domain_ring(6));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.deploy_router(routers[2]);
  net.converge();
  ASSERT_EQ(net.vnbone().virtual_links().size(), 1u);
  const auto& bone = net.vnbone();
  const IpvNAddr to_2 = IpvNAddr::native(8, 0, routers[2].value(), 0);
  EXPECT_EQ(bone.route(routers[0], to_2).vn_cost, 2u);
  const auto builds = bone.tree_builds();
  net.set_link_up(LinkId{1}, false);
  net.converge();
  ASSERT_EQ(bone.virtual_links().size(), 1u);
  EXPECT_EQ(bone.route(routers[0], to_2).vn_cost, 4u);
  EXPECT_EQ(bone.tree_builds(), builds + 1);
  EXPECT_TRUE(bone.route(routers[0], to_2) == bone.reference_route(routers[0], to_2));
}

}  // namespace
}  // namespace evo::vnbone
