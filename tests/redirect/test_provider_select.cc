// User choice of IPvN provider (§2.1's variant): users pick which
// provider's vN-Bone entry point serves them, while providers keep
// operating the redirection.
#include "redirect/provider_select.h"

#include <gtest/gtest.h>

#include "../core/ipvn_agreement.h"
#include "net/topology_gen.h"

namespace evo::redirect {
namespace {

using net::DomainId;
using net::HostId;

struct Fixture {
  Fixture() {
    auto topo = net::generate_transit_stub({.transit_domains = 3,
                                            .stubs_per_transit = 2,
                                            .seed = 71});
    sim::Rng rng{71};
    net::attach_hosts(topo, 1, rng);
    internet = std::make_unique<core::EvolvableInternet>(std::move(topo));
    internet->start();
    // Two providers deploy.
    internet->deploy_domain(DomainId{0});
    internet->deploy_domain(DomainId{1});
    internet->converge();
  }

  std::unique_ptr<core::EvolvableInternet> internet;
};

TEST(ProviderSelect, AddressRootedInProvider) {
  Fixture f;
  ProviderSelect select(*f.internet);
  select.enable_provider(DomainId{0});
  select.enable_provider(DomainId{1});
  EXPECT_EQ(select.enabled_count(), 2u);
  const auto a0 = select.provider_address(DomainId{0});
  const auto a1 = select.provider_address(DomainId{1});
  ASSERT_TRUE(a0 && a1);
  EXPECT_NE(*a0, *a1);
  EXPECT_TRUE(f.internet->topology().domain(DomainId{0}).prefix.contains(*a0));
  EXPECT_TRUE(f.internet->topology().domain(DomainId{1}).prefix.contains(*a1));
  EXPECT_FALSE(select.provider_address(DomainId{2}).has_value());
}

TEST(ProviderSelect, UserChoiceControlsIngress) {
  Fixture f;
  ProviderSelect select(*f.internet);
  select.enable_provider(DomainId{0});
  select.enable_provider(DomainId{1});
  f.internet->converge();

  // The same host pair, two different chosen providers, two different
  // ingress domains — and both deliver.
  const auto via0 =
      send_ipvn_via_provider(*f.internet, select, DomainId{0}, HostId{0}, HostId{4});
  const auto via1 =
      send_ipvn_via_provider(*f.internet, select, DomainId{1}, HostId{0}, HostId{4});
  ASSERT_TRUE(via0.delivered) << via0.describe();
  ASSERT_TRUE(via1.delivered) << via1.describe();
  EXPECT_EQ(f.internet->topology().router(via0.ingress).domain, DomainId{0});
  EXPECT_EQ(f.internet->topology().router(via1.ingress).domain, DomainId{1});
}

TEST(ProviderSelect, UnenabledProviderFails) {
  Fixture f;
  ProviderSelect select(*f.internet);
  const auto trace =
      send_ipvn_via_provider(*f.internet, select, DomainId{0}, HostId{0}, HostId{4});
  EXPECT_FALSE(trace.delivered);
  EXPECT_EQ(trace.failure, core::EndToEndTrace::Failure::kNoDeployment);
}

TEST(ProviderSelect, RefreshTracksUndeployments) {
  Fixture f;
  ProviderSelect select(*f.internet);
  select.enable_provider(DomainId{0});
  f.internet->converge();
  // Provider 0 loses all but one router.
  const auto routers = f.internet->vnbone().deployed_routers_in(DomainId{0});
  for (std::size_t i = 0; i + 1 < routers.size(); ++i) {
    f.internet->undeploy_router(routers[i]);
  }
  select.refresh_provider(DomainId{0});
  f.internet->converge();
  const auto trace =
      send_ipvn_via_provider(*f.internet, select, DomainId{0}, HostId{0}, HostId{4});
  ASSERT_TRUE(trace.delivered) << trace.describe();
  EXPECT_EQ(trace.ingress, routers.back());
}

TEST(ProviderSelect, ProviderGroupsAreSeparateFromDeploymentGroup) {
  Fixture f;
  const auto before = f.internet->anycast().group_count();
  ProviderSelect select(*f.internet);
  select.enable_provider(DomainId{0});
  EXPECT_EQ(f.internet->anycast().group_count(), before + 1);
  // The deployment-wide anycast address keeps working unchanged.
  EXPECT_TRUE(core::send_ipvn(*f.internet, HostId{0}, HostId{4}).delivered);
}

TEST(ProviderSelect, PathFromIngressMatchesAnycast) {
  // Once the chosen provider's router is the one anycast would reach too,
  // the choice changes nothing downstream: same vN route, tunnels and tail.
  Fixture f;
  ProviderSelect select(*f.internet);
  select.enable_provider(DomainId{0});
  select.enable_provider(DomainId{1});
  f.internet->converge();
  const auto& topo = f.internet->topology();
  std::size_t compared = 0;
  std::size_t tunnels = 0;
  for (const DomainId provider : {DomainId{0}, DomainId{1}}) {
    for (const auto& src : topo.hosts()) {
      for (const auto& dst : topo.hosts()) {
        if (src.id == dst.id) continue;
        const auto chosen =
            send_ipvn_via_provider(*f.internet, select, provider, src.id, dst.id);
        const auto anycast = core::send_ipvn(*f.internet, src.id, dst.id);
        if (!chosen.ingress.valid() || chosen.ingress != anycast.ingress) continue;
        SCOPED_TRACE("provider " + std::to_string(provider.value()) + ", host " +
                     std::to_string(src.id.value()) + " -> host " +
                     std::to_string(dst.id.value()));
        ++compared;
        tunnels += core::expect_same_path_from_ingress(chosen, anycast);
      }
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(tunnels, 0u);
}

}  // namespace
}  // namespace evo::redirect
