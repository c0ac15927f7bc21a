// vN-Bone construction (§3.3.1): k-closest intra-domain neighbors,
// partition detection/repair, peering tunnels, anycast bootstrap, and the
// connected-to-default invariant.
#include <gtest/gtest.h>

#include "core/evolvable_internet.h"
#include "core/scenario.h"
#include "net/topology_gen.h"

namespace evo::vnbone {
namespace {

using net::DomainId;
using net::NodeId;

TEST(VnBoneConstruction, EmptyBeforeDeployment) {
  core::EvolvableInternet net(net::single_domain_line(4));
  net.start();
  EXPECT_TRUE(net.vnbone().virtual_links().empty());
  EXPECT_FALSE(net.vnbone().anycast_group().valid());
  EXPECT_TRUE(net.vnbone().deployed_domains().empty());
}

TEST(VnBoneConstruction, FirstDeployerBecomesDefault) {
  auto fig = core::make_figure1();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.y);
  net.converge();
  EXPECT_EQ(net.vnbone().default_domain(), fig.y);
  EXPECT_TRUE(net.vnbone().anycast_group().valid());
  // Option 2 default: the anycast address comes from Y's block.
  EXPECT_TRUE(net.topology().domain(fig.y).prefix.contains(
      net.vnbone().anycast_address()));
}

TEST(VnBoneConstruction, KClosestNeighborsWithinDomain) {
  core::Options options;
  options.vnbone.k_neighbors = 1;
  core::EvolvableInternet net(net::single_domain_line(5), options);
  net.start();
  for (const NodeId r : net.topology().domain(DomainId{0}).routers) {
    net.deploy_router(r);
  }
  net.converge();
  // With k=1 on a line, each router links to its nearest neighbor; repair
  // then stitches any leftover partitions. The result must be connected.
  const auto comps = net::connected_components(net.vnbone().virtual_graph());
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  for (const NodeId r : routers) {
    EXPECT_EQ(comps.label[r.value()], comps.label[routers[0].value()]);
  }
}

TEST(VnBoneConstruction, PartitionRepairCounted) {
  // A long line with k=1 and members only at the two ends: the two
  // singleton "components" must be repaired together.
  core::Options options;
  options.vnbone.k_neighbors = 1;
  core::EvolvableInternet net(net::single_domain_line(6), options);
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.deploy_router(routers[1]);
  net.deploy_router(routers[4]);
  net.deploy_router(routers[5]);
  net.converge();
  // k=1 links (0,1) and (4,5); repair must bridge the 1-4 gap.
  EXPECT_GE(net.vnbone().partition_repairs(), 1u);
  const auto comps = net::connected_components(net.vnbone().virtual_graph());
  EXPECT_EQ(comps.label[routers[0].value()], comps.label[routers[5].value()]);
}

TEST(VnBoneConstruction, VirtualLinkCostsMatchIgpDistance) {
  core::EvolvableInternet net(net::single_domain_line(4, /*cost=*/3));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.deploy_router(routers[2]);
  net.converge();
  ASSERT_EQ(net.vnbone().virtual_links().size(), 1u);
  EXPECT_EQ(net.vnbone().virtual_links()[0].underlay_cost, 6u);  // 2 hops * 3
}

TEST(VnBoneConstruction, PeeringTunnelBetweenAdjacentDeployedDomains) {
  auto fig = core::make_figure2();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.d);
  net.deploy_domain(fig.q);
  net.converge();
  // D and Q are not adjacent; they connect via bootstrap (no peering).
  std::size_t peering = 0;
  std::size_t bootstrap = 0;
  for (const auto& l : net.vnbone().virtual_links()) {
    if (l.source == VirtualLink::Source::kPeeringTunnel) ++peering;
    if (l.source == VirtualLink::Source::kAnycastBootstrap) ++bootstrap;
  }
  EXPECT_EQ(peering, 0u);
  EXPECT_GE(bootstrap, 1u);
  // Deploy P (adjacent to both): now policy tunnels appear.
  net.deploy_domain(fig.p);
  net.converge();
  peering = 0;
  for (const auto& l : net.vnbone().virtual_links()) {
    if (l.source == VirtualLink::Source::kPeeringTunnel) ++peering;
  }
  EXPECT_GE(peering, 2u);  // P-D and P-Q
}

TEST(VnBoneConstruction, ConnectedToDefaultInvariant) {
  // Whatever the deployment pattern, every deployed router must reach the
  // default provider's component (the §3.3.1 partition rule).
  auto topo = net::generate_transit_stub({.transit_domains = 3,
                                          .stubs_per_transit = 3,
                                          .seed = 17});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  // Deploy a scattered subset: one router in every third domain.
  const auto& domains = net.topology().domains();
  for (std::size_t i = 0; i < domains.size(); i += 3) {
    net.deploy_router(domains[i].routers.front());
  }
  net.converge();
  const auto deployed = net.vnbone().deployed_routers();
  ASSERT_GE(deployed.size(), 2u);
  const auto comps = net::connected_components(net.vnbone().virtual_graph());
  for (const NodeId r : deployed) {
    EXPECT_EQ(comps.label[r.value()], comps.label[deployed.front().value()])
        << "router " << r.value() << " stranded from the vN-Bone";
  }
}

TEST(VnBoneConstruction, UndeployShrinksBone) {
  core::EvolvableInternet net(net::single_domain_line(4));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  for (const NodeId r : routers) net.deploy_router(r);
  net.converge();
  const auto links_before = net.vnbone().virtual_links().size();
  net.undeploy_router(routers[3]);
  net.converge();
  EXPECT_LT(net.vnbone().virtual_links().size(), links_before);
  EXPECT_FALSE(net.vnbone().deployed(routers[3]));
}

TEST(VnBoneConstruction, DeployIsIdempotent) {
  core::EvolvableInternet net(net::single_domain_line(3));
  net.start();
  const auto r = net.topology().domain(DomainId{0}).routers[0];
  net.deploy_router(r);
  net.deploy_router(r);
  net.converge();
  EXPECT_EQ(net.vnbone().deployed_routers().size(), 1u);
}

TEST(VnBoneConstruction, DeployedDomainsSorted) {
  auto fig = core::make_figure1();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.z);
  net.deploy_domain(fig.x);
  net.converge();
  const auto domains = net.vnbone().deployed_domains();
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0], fig.x);
  EXPECT_EQ(domains[1], fig.z);
  EXPECT_TRUE(net.vnbone().domain_deployed(fig.x));
  EXPECT_FALSE(net.vnbone().domain_deployed(fig.y));
}

TEST(VnBoneConstruction, RebuildIsDeterministic) {
  auto topo = net::generate_transit_stub({.transit_domains = 2,
                                          .stubs_per_transit = 2,
                                          .seed = 5});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  for (const auto& d : net.topology().domains()) {
    net.deploy_router(net.topology().domain(d.id).routers.front());
  }
  net.converge();
  const auto first = net.vnbone().virtual_links();
  net.vnbone().rebuild();
  EXPECT_TRUE(net.vnbone().virtual_links() == first);
  EXPECT_TRUE(net.vnbone().reference_links() == first);
}

}  // namespace
}  // namespace evo::vnbone
