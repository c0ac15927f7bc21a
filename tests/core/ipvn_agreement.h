// Agreement checks between the ways an IPvN datagram can be carried: the
// synchronous tracer and the event-driven transport, and the anycast
// ingress against the broker's and the chosen provider's ingress.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace.h"
#include "core/transport.h"

namespace evo::core {

/// What one delivery path reports for one datagram: the failure (kNone when
/// delivered), the latency of a delivery, and the router each leg — the
/// anycast ingress, every tunnel, the egress tail — was delivered at.
struct SendResult {
  EndToEndTrace::Failure failure = EndToEndTrace::Failure::kNone;
  sim::Duration latency;
  std::vector<net::NodeId> arrivals;
};

/// Send one datagram per ordered host pair through send_ipvn_generation and
/// through an IpvnTransport on the same generation; both carry one walk and
/// must agree on the failure, every leg's arrival router, and the latency.
inline void expect_trace_and_transport_agree(EvolvableInternet& internet,
                                             std::size_t generation = 0) {
  obs::Recorder recorder;
  recorder.set_capture_all(true);
  internet.set_recorder(&recorder);
  SendResult sent;
  IpvnTransport transport(internet, generation);
  for (const auto& h : internet.topology().hosts()) {
    transport.listen(h.id, [&](net::HostId, net::HostId, std::uint64_t,
                               sim::Duration elapsed) { sent.latency = elapsed; });
  }
  std::size_t delivered = 0;
  for (const auto& src : internet.topology().hosts()) {
    for (const auto& dst : internet.topology().hosts()) {
      if (src.id == dst.id) continue;
      SCOPED_TRACE("host " + std::to_string(src.id.value()) + " -> host " +
                   std::to_string(dst.id.value()));
      SendResult traced;
      const auto trace = send_ipvn_generation(internet, generation, src.id, dst.id);
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

/// `redirected` (a broker's or a provider's trace) entered at the same
/// ingress as `anycast`; from there on the two must be the same datagram
/// path: vN route, egress, outcome, and every tunnel and egress segment.
/// Returns the number of tunnel segments compared.
inline std::size_t expect_same_path_from_ingress(const EndToEndTrace& redirected,
                                                 const EndToEndTrace& anycast) {
  EXPECT_EQ(redirected.ingress, anycast.ingress);
  EXPECT_EQ(redirected.failure, anycast.failure);
  EXPECT_EQ(redirected.delivered, anycast.delivered);
  EXPECT_EQ(redirected.egress, anycast.egress);
  EXPECT_EQ(redirected.vn_route.ok, anycast.vn_route.ok);
  EXPECT_EQ(redirected.vn_route.vn_hops, anycast.vn_route.vn_hops);
  EXPECT_EQ(redirected.vn_route.vn_cost, anycast.vn_route.vn_cost);
  EXPECT_EQ(redirected.vn_route.exits_to_legacy, anycast.vn_route.exits_to_legacy);
  EXPECT_EQ(redirected.segments.size(), anycast.segments.size());
  std::size_t tunnels = 0;
  for (std::size_t i = 1;
       i < std::min(redirected.segments.size(), anycast.segments.size()); ++i) {
    const Segment& a = redirected.segments[i];
    const Segment& b = anycast.segments[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.trace.outcome, b.trace.outcome);
    EXPECT_EQ(a.trace.hops, b.trace.hops);
    EXPECT_EQ(a.trace.delivered_at, b.trace.delivered_at);
    EXPECT_EQ(a.trace.cost, b.trace.cost);
    EXPECT_EQ(a.trace.latency, b.trace.latency);
    if (a.kind == Segment::Kind::kTunnel) ++tunnels;
  }
  return tunnels;
}

}  // namespace evo::core
