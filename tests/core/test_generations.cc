// Multiple concurrent IP generations (§3.2): IPv8 and IPv9 deployments
// coexisting over the same substrate, each with its own anycast address,
// vN-Bone, and host addressing.
#include <gtest/gtest.h>

#include "core/evolvable_internet.h"
#include "core/trace.h"
#include "ipvn_agreement.h"
#include "net/topology_gen.h"

namespace evo::core {
namespace {

using net::DomainId;
using net::HostId;

struct Fixture {
  Fixture() {
    auto topo = net::generate_transit_stub({.transit_domains = 2,
                                            .stubs_per_transit = 2,
                                            .seed = 91});
    sim::Rng rng{91};
    net::attach_hosts(topo, 1, rng);
    internet = std::make_unique<EvolvableInternet>(std::move(topo));
    internet->start();
    vnbone::VnBoneConfig v9;
    v9.version = 9;
    gen9 = internet->add_generation(v9);
  }

  std::unique_ptr<EvolvableInternet> internet;
  std::size_t gen9 = 0;
};

TEST(Generations, IndependentDeployments) {
  Fixture f;
  EXPECT_EQ(f.internet->generation_count(), 2u);
  // IPv8 deploys in domain 0; IPv9 in domain 1.
  f.internet->deploy_domain(DomainId{0});
  f.internet->generation(f.gen9).deploy_domain(DomainId{1});
  f.internet->converge();
  EXPECT_TRUE(f.internet->vnbone().domain_deployed(DomainId{0}));
  EXPECT_FALSE(f.internet->vnbone().domain_deployed(DomainId{1}));
  EXPECT_TRUE(f.internet->generation(f.gen9).domain_deployed(DomainId{1}));
  EXPECT_FALSE(f.internet->generation(f.gen9).domain_deployed(DomainId{0}));
}

TEST(Generations, DistinctAnycastAddresses) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->generation(f.gen9).deploy_domain(DomainId{0});
  f.internet->converge();
  EXPECT_NE(f.internet->vnbone().anycast_address(),
            f.internet->generation(f.gen9).anycast_address());
}

TEST(Generations, BothDeliverConcurrently) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->generation(f.gen9).deploy_domain(DomainId{1});
  f.internet->converge();
  const auto v8 = send_ipvn(*f.internet, HostId{0}, HostId{3});
  const auto v9 = send_ipvn_generation(*f.internet, f.gen9, HostId{0}, HostId{3});
  ASSERT_TRUE(v8.delivered) << v8.describe();
  ASSERT_TRUE(v9.delivered) << v9.describe();
  // Different generations entered through different ingress domains.
  EXPECT_EQ(f.internet->topology().router(v8.ingress).domain, DomainId{0});
  EXPECT_EQ(f.internet->topology().router(v9.ingress).domain, DomainId{1});
}

TEST(Generations, HostAddressVersionsDiffer) {
  Fixture f;
  const auto& topo = f.internet->topology();
  const DomainId host_domain =
      topo.router(topo.host(HostId{0}).access_router).domain;
  f.internet->deploy_domain(host_domain);
  f.internet->generation(f.gen9).deploy_domain(host_domain);
  f.internet->converge();
  const auto a8 = f.internet->hosts().ipvn_address(HostId{0});
  const auto a9 = f.internet->generation_hosts(f.gen9).ipvn_address(HostId{0});
  EXPECT_EQ(a8.version(), 8);
  EXPECT_EQ(a9.version(), 9);
  EXPECT_FALSE(a8.is_self_address());
  EXPECT_FALSE(a9.is_self_address());
}

TEST(Generations, StateCostIsAdditive) {
  // Each concurrent generation costs one anycast group (option 1: one
  // global route per member domain) — the paper's argument that the
  // count stays small keeps this affordable.
  auto topo = net::generate_transit_stub({.transit_domains = 2,
                                          .stubs_per_transit = 2,
                                          .seed = 92});
  Options options;
  options.vnbone.anycast_mode = anycast::InterDomainMode::kGlobalRoutes;
  EvolvableInternet internet(std::move(topo), options);
  internet.start();
  internet.deploy_domain(DomainId{0});
  internet.converge();
  const auto& borders = internet.bgp().speakers_of(DomainId{1});
  ASSERT_FALSE(borders.empty());
  const auto one_gen = internet.bgp().loc_rib_size(borders[0], true);
  vnbone::VnBoneConfig v9;
  v9.version = 9;
  v9.anycast_mode = anycast::InterDomainMode::kGlobalRoutes;
  const auto gen9 = internet.add_generation(v9);
  internet.generation(gen9).deploy_domain(DomainId{0});
  internet.converge();
  EXPECT_EQ(internet.bgp().loc_rib_size(borders[0], true), one_gen + 1);
}

TEST(Generations, UndeployOneLeavesOtherIntact) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->generation(f.gen9).deploy_domain(DomainId{0});
  f.internet->converge();
  for (const auto r : f.internet->vnbone().deployed_routers()) {
    f.internet->undeploy_router(r);
  }
  f.internet->converge();
  EXPECT_TRUE(f.internet->vnbone().deployed_routers().empty());
  EXPECT_FALSE(f.internet->generation(f.gen9).deployed_routers().empty());
  const auto v9 = send_ipvn_generation(*f.internet, f.gen9, HostId{0}, HostId{3});
  EXPECT_TRUE(v9.delivered);
}

TEST(Generations, TransportOnSecondGenerationAgreesWithTrace) {
  // A transport built on IPv9 enters through IPv9's anycast group and
  // routes over IPv9's vN-Bone, exactly as send_ipvn_generation does; IPv8
  // is deployed elsewhere so a generation-0 transport would disagree.
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->generation(f.gen9).deploy_domain(DomainId{1});
  f.internet->generation(f.gen9).deploy_domain(DomainId{3});  // v9 tunnels
  f.internet->converge();
  expect_trace_and_transport_agree(*f.internet, f.gen9);
}

}  // namespace
}  // namespace evo::core
