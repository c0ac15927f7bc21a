// Event-driven IPvN transport: datagrams as simulator events with real
// latency accrual across all three legs of the data path.
#include "core/transport.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ipvn_agreement.h"
#include "net/topology_gen.h"

namespace evo::core {
namespace {

using net::DomainId;
using net::HostId;

struct Fixture {
  explicit Fixture(Options options = {}) {
    auto topo = net::generate_transit_stub({.transit_domains = 2,
                                            .stubs_per_transit = 2,
                                            .seed = 55});
    sim::Rng rng{55};
    net::attach_hosts(topo, 2, rng);
    internet = std::make_unique<EvolvableInternet>(std::move(topo), options);
    internet->start();
  }

  std::unique_ptr<EvolvableInternet> internet;
};

TEST(IpvnTransport, DeliversWithPositiveLatency) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  IpvnTransport transport(*f.internet);
  sim::Duration latency;
  bool received = false;
  transport.listen(HostId{5}, [&](HostId from, HostId to, std::uint64_t id,
                                  sim::Duration elapsed) {
    received = true;
    EXPECT_EQ(from, HostId{0});
    EXPECT_EQ(to, HostId{5});
    EXPECT_EQ(id, 7u);
    latency = elapsed;
  });
  transport.send(HostId{0}, HostId{5}, 7);
  f.internet->simulator().run();
  ASSERT_TRUE(received);
  EXPECT_GT(latency, sim::Duration::zero());
  EXPECT_EQ(transport.datagrams_sent(), 1u);
  EXPECT_EQ(transport.datagrams_received(), 1u);
  EXPECT_EQ(transport.datagrams_failed(), 0u);
}

TEST(IpvnTransport, FailsWithoutDeployment) {
  Fixture f;
  IpvnTransport transport(*f.internet);
  bool failed = false;
  transport.send(HostId{0}, HostId{5}, 1,
                 [&](EndToEndTrace::Failure failure, std::uint64_t id) {
                   failed = true;
                   EXPECT_EQ(failure, EndToEndTrace::Failure::kNoDeployment);
                   EXPECT_EQ(id, 1u);
                 });
  f.internet->simulator().run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(transport.datagrams_failed(), 1u);
}

TEST(IpvnTransport, LatencyMatchesTraceTopology) {
  // The event-driven latency must equal the sum of per-link latencies
  // along the synchronous trace's segments, for every host pair.
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->deploy_domain(DomainId{3});  // a second domain: vN-Bone tunnels
  f.internet->converge();
  expect_trace_and_transport_agree(*f.internet);
}

TEST(IpvnTransport, AgreesWithTraceAfterInterdomainLinkFailure) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->deploy_domain(DomainId{3});  // a second domain: vN-Bone tunnels
  f.internet->converge();
  const auto& links = f.internet->topology().links();
  const auto failed = std::find_if(links.begin(), links.end(),
                                   [](const net::Link& l) { return l.interdomain; });
  ASSERT_NE(failed, links.end());
  ASSERT_TRUE(f.internet->set_link_up(failed->id, false));
  f.internet->converge();
  expect_trace_and_transport_agree(*f.internet);
}

/// The trace/transport agreement under each §3.3.2 egress mode, configured
/// as the internet's default, with tunnels (two deployed domains).
class IpvnTransportModes : public ::testing::TestWithParam<vnbone::EgressMode> {};

TEST_P(IpvnTransportModes, AgreesWithTraceForEveryHostPair) {
  Options options;
  options.vnbone.egress_mode = GetParam();
  Fixture f(options);
  f.internet->deploy_domain(DomainId{0});
  f.internet->deploy_domain(DomainId{3});
  f.internet->converge();
  if (GetParam() == vnbone::EgressMode::kEndhostAdvertised) {
    // Self-addressed hosts are reachable only once registered.
    for (const auto& h : f.internet->topology().hosts()) {
      register_endhost_route(*f.internet, h.id);
    }
    ASSERT_GT(f.internet->vnbone().endhost_route_count(), 0u);
  }
  expect_trace_and_transport_agree(*f.internet);
}

INSTANTIATE_TEST_SUITE_P(
    EgressModes, IpvnTransportModes,
    ::testing::Values(vnbone::EgressMode::kExitAtIngress,
                      vnbone::EgressMode::kOwnPathKnowledge,
                      vnbone::EgressMode::kProxyAdvertising,
                      vnbone::EgressMode::kEndhostAdvertised),
    [](const ::testing::TestParamInfo<vnbone::EgressMode>& info) {
      std::string name = vnbone::to_string(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(IpvnTransport, ManyDatagramsAllPairs) {
  Fixture f;
  f.internet->deploy_domain(DomainId{1});
  f.internet->converge();
  IpvnTransport transport(*f.internet);
  std::size_t received = 0;
  const auto& hosts = f.internet->topology().hosts();
  for (const auto& h : hosts) {
    transport.listen(h.id, [&](HostId, HostId, std::uint64_t, sim::Duration) {
      ++received;
    });
  }
  std::size_t sent = 0;
  for (const auto& src : hosts) {
    for (const auto& dst : hosts) {
      if (src.id == dst.id) continue;
      transport.send(src.id, dst.id, ++sent);
    }
  }
  f.internet->simulator().run();
  EXPECT_EQ(received, sent);
  EXPECT_EQ(transport.datagrams_received(), sent);
  EXPECT_EQ(transport.datagrams_failed(), 0u);
}

TEST(IpvnTransport, UnlistenedDeliveryStillCounts) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  IpvnTransport transport(*f.internet);
  transport.send(HostId{0}, HostId{5});
  f.internet->simulator().run();
  EXPECT_EQ(transport.datagrams_received(), 1u);
}

}  // namespace
}  // namespace evo::core
