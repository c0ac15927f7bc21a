// Application-level broker redirection (§2.2) — the rejected alternative,
// verified to fail exactly the ways the paper predicts: participation
// gaps and stale deployment views.
#include "redirect/broker.h"

#include <gtest/gtest.h>

#include "../core/ipvn_agreement.h"
#include "core/scenario.h"
#include "net/topology_gen.h"

namespace evo::redirect {
namespace {

using net::DomainId;
using net::HostId;

struct Fixture {
  Fixture() {
    auto topo = net::generate_transit_stub({.transit_domains = 2,
                                            .stubs_per_transit = 2,
                                            .seed = 61});
    sim::Rng rng{61};
    net::attach_hosts(topo, 2, rng);
    internet = std::make_unique<core::EvolvableInternet>(std::move(topo));
    internet->start();
  }

  std::unique_ptr<core::EvolvableInternet> internet;
};

TEST(Broker, EmptyDatabaseLocksClientsOut) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  BrokerService broker(*f.internet);
  broker.refresh();  // nobody participates yet
  EXPECT_EQ(broker.known_routers(), 0u);
  const auto trace = send_ipvn_via_broker(*f.internet, broker, HostId{0}, HostId{5});
  EXPECT_FALSE(trace.delivered);
  EXPECT_EQ(trace.failure, core::EndToEndTrace::Failure::kIngressFailed);
  // The anycast mechanism delivers regardless — that is the whole point.
  EXPECT_TRUE(core::send_ipvn(*f.internet, HostId{0}, HostId{5}).delivered);
}

TEST(Broker, ParticipationEnablesDelivery) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  BrokerService broker(*f.internet);
  broker.set_participation(DomainId{0}, true);
  EXPECT_TRUE(broker.participates(DomainId{0}));
  broker.refresh();
  EXPECT_GT(broker.known_routers(), 0u);
  const auto trace = send_ipvn_via_broker(*f.internet, broker, HostId{0}, HostId{5});
  EXPECT_TRUE(trace.delivered) << trace.describe();
}

TEST(Broker, PartialParticipationHidesCloserRouters) {
  Fixture f;
  // Both transits deploy; only transit 0 reports to the broker.
  f.internet->deploy_domain(DomainId{0});
  f.internet->deploy_domain(DomainId{1});
  f.internet->converge();
  BrokerService broker(*f.internet);
  broker.set_participation(DomainId{0}, true);
  broker.refresh();
  // Every broker answer is in domain 0, even for clients adjacent to
  // domain 1's routers.
  for (const auto& host : f.internet->topology().hosts()) {
    const auto target = broker.lookup(host.access_router);
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(f.internet->topology().router(*target).domain, DomainId{0});
  }
}

TEST(Broker, StaleAnswerFailsAfterUndeploy) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  BrokerService broker(*f.internet);
  broker.set_all_participating();
  broker.refresh();
  const auto fresh = send_ipvn_via_broker(*f.internet, broker, HostId{0}, HostId{5});
  ASSERT_TRUE(fresh.delivered);
  // The serving router undeploys; the broker has not refreshed.
  f.internet->undeploy_router(fresh.ingress);
  f.internet->converge();
  const auto stale = send_ipvn_via_broker(*f.internet, broker, HostId{0}, HostId{5});
  EXPECT_FALSE(stale.delivered);
  EXPECT_EQ(stale.failure, core::EndToEndTrace::Failure::kIngressFailed);
  // Anycast self-heals with no third party involved.
  EXPECT_TRUE(core::send_ipvn(*f.internet, HostId{0}, HostId{5}).delivered);
  // After a refresh the broker works again too.
  broker.refresh();
  EXPECT_TRUE(
      send_ipvn_via_broker(*f.internet, broker, HostId{0}, HostId{5}).delivered);
}

TEST(Broker, MissesDeploymentsUntilRefresh) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  BrokerService broker(*f.internet);
  broker.set_all_participating();
  broker.refresh();
  const auto before = broker.known_routers();
  f.internet->deploy_domain(DomainId{1});
  f.internet->converge();
  EXPECT_EQ(broker.known_routers(), before);  // still the old view
  broker.refresh();
  EXPECT_GT(broker.known_routers(), before);
}

TEST(Broker, LookupPrefersDomainLevelCloserRouters) {
  Fixture f;
  const auto& topo = f.internet->topology();
  // Deploy one router in a stub and one in a distant stub; a client inside
  // the first stub must be pointed at its own stub's router.
  DomainId first_stub = DomainId::invalid();
  DomainId last_stub = DomainId::invalid();
  for (const auto& d : topo.domains()) {
    if (!d.stub) continue;
    if (!first_stub.valid()) first_stub = d.id;
    last_stub = d.id;
  }
  f.internet->deploy_router(topo.domain(first_stub).routers.front());
  f.internet->deploy_router(topo.domain(last_stub).routers.front());
  f.internet->converge();
  BrokerService broker(*f.internet);
  broker.set_all_participating();
  broker.refresh();
  const auto target = broker.lookup(topo.domain(first_stub).routers.back());
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(topo.router(*target).domain, first_stub);
}

TEST(Broker, PathFromIngressMatchesAnycast) {
  // Once the broker's pick is the router anycast would reach too, the
  // broker changes nothing downstream: same vN route, tunnels and tail.
  Fixture f;
  const auto& topo = f.internet->topology();
  f.internet->deploy_router(topo.domain(DomainId{0}).routers.front());
  f.internet->deploy_router(topo.domain(DomainId{3}).routers.front());
  f.internet->converge();
  BrokerService broker(*f.internet);
  broker.set_all_participating();
  broker.refresh();
  std::size_t compared = 0;
  std::size_t tunnels = 0;
  for (const auto& src : topo.hosts()) {
    for (const auto& dst : topo.hosts()) {
      if (src.id == dst.id) continue;
      const auto brokered = send_ipvn_via_broker(*f.internet, broker, src.id, dst.id);
      const auto anycast = core::send_ipvn(*f.internet, src.id, dst.id);
      if (!brokered.ingress.valid() || brokered.ingress != anycast.ingress) continue;
      SCOPED_TRACE("host " + std::to_string(src.id.value()) + " -> host " +
                   std::to_string(dst.id.value()));
      ++compared;
      tunnels += core::expect_same_path_from_ingress(brokered, anycast);
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(tunnels, 0u);
}

}  // namespace
}  // namespace evo::redirect
