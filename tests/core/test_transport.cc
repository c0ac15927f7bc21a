// Event-driven IPvN transport: datagrams as simulator events with real
// latency accrual across all three legs of the data path.
#include "core/transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "net/topology_gen.h"

namespace evo::core {
namespace {

using net::DomainId;
using net::HostId;

struct Fixture {
  Fixture() {
    auto topo = net::generate_transit_stub({.transit_domains = 2,
                                            .stubs_per_transit = 2,
                                            .seed = 55});
    sim::Rng rng{55};
    net::attach_hosts(topo, 2, rng);
    internet = std::make_unique<EvolvableInternet>(std::move(topo));
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

/// What one delivery path reports for one datagram: the failure (kNone when
/// delivered), the latency of a delivery, and the router each leg — the
/// anycast ingress, every tunnel, the egress tail — was delivered at.
struct SendResult {
  EndToEndTrace::Failure failure = EndToEndTrace::Failure::kNone;
  sim::Duration latency;
  std::vector<net::NodeId> arrivals;
};

/// Send one datagram per ordered host pair through send_ipvn and through
/// IpvnTransport; both walk one leg plan and must agree.
void expect_trace_and_transport_agree(EvolvableInternet& internet) {
  obs::Recorder recorder;
  recorder.set_capture_all(true);
  internet.set_recorder(&recorder);
  SendResult sent;
  IpvnTransport transport(internet);
  for (const auto& h : internet.topology().hosts()) {
    transport.listen(h.id, [&](HostId, HostId, std::uint64_t, sim::Duration elapsed) {
      sent.latency = elapsed;
    });
  }
  std::size_t delivered = 0;
  for (const auto& src : internet.topology().hosts()) {
    for (const auto& dst : internet.topology().hosts()) {
      if (src.id == dst.id) continue;
      SCOPED_TRACE("host " + std::to_string(src.id.value()) + " -> host " +
                   std::to_string(dst.id.value()));
      SendResult traced;
      const auto trace = send_ipvn(internet, src.id, dst.id);
      traced.failure = trace.failure;
      for (const auto& segment : trace.segments) {
        traced.latency += segment.trace.latency;
        if (segment.trace.delivered()) {
          traced.arrivals.push_back(segment.trace.delivered_at);
        }
      }

      sent = SendResult{};
      recorder.clear();
      transport.send(src.id, dst.id, 0,
                     [&](EndToEndTrace::Failure failure, std::uint64_t) {
                       sent.failure = failure;
                     });
      internet.simulator().run();
      for (const obs::Event& e : recorder.log()) {
        if (std::string_view(e.name) == "net.pkt.delivered") {
          sent.arrivals.push_back(net::NodeId{static_cast<std::uint32_t>(e.a)});
        }
      }

      EXPECT_EQ(sent.failure, traced.failure) << to_string(traced.failure);
      EXPECT_EQ(sent.arrivals, traced.arrivals);
      if (trace.delivered) {
        ++delivered;
        EXPECT_EQ(sent.latency, traced.latency);
      }
    }
  }
  internet.set_recorder(nullptr);
  EXPECT_GT(delivered, 0u);
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
