#include "core/transport.h"

namespace evo::core {

using net::HostId;
using net::NodeId;

struct IpvnTransport::Flight {
  HostId src;
  HostId dst;
  std::uint64_t payload_id = 0;
  net::IpvNHeader inner;
  sim::TimePoint sent_at;
  FailureFn on_failure;
  LegPlan plan;
  std::size_t next = 0;  // index of the next leg to inject
};

IpvnTransport::IpvnTransport(EvolvableInternet& internet)
    : internet_(internet), engine_(internet.simulator(), internet.network()) {
  engine_.set_recorder(internet.recorder());
}

void IpvnTransport::listen(HostId host, ReceiveFn fn) {
  listeners_[host.value()] = std::move(fn);
}

void IpvnTransport::fail(EndToEndTrace::Failure failure, const Flight& flight) {
  ++failed_;
  if (flight.on_failure) flight.on_failure(failure, flight.payload_id);
}

void IpvnTransport::finish(const Flight& flight) {
  ++received_;
  const auto it = listeners_.find(flight.dst.value());
  if (it != listeners_.end() && it->second) {
    it->second(flight.src, flight.dst, flight.payload_id,
               internet_.simulator().now() - flight.sent_at);
  }
}

void IpvnTransport::send(HostId src, HostId dst, std::uint64_t payload_id,
                         FailureFn on_failure) {
  ++sent_;
  auto flight = std::make_shared<Flight>();
  flight->src = src;
  flight->dst = dst;
  flight->payload_id = payload_id;
  flight->sent_at = internet_.simulator().now();
  flight->on_failure = std::move(on_failure);
  if (!internet_.vnbone().anycast_group().valid()) {
    fail(EndToEndTrace::Failure::kNoDeployment, *flight);
    return;
  }
  net::Packet packet = internet_.hosts().make_datagram(src, dst, payload_id);
  flight->inner = packet.layers().front().vn;
  const NodeId src_access = internet_.topology().host(src).access_router;

  engine_.inject(
      src_access, std::move(packet),
      [this, flight](NodeId at, const net::Packet&, sim::Duration) {
        // The encapsulated datagram reached an IPvN router: it decapsulates
        // and consults its vN routing state.
        if (!internet_.vnbone().deployed(at)) {
          fail(EndToEndTrace::Failure::kIngressFailed, *flight);
          return;
        }
        const auto route = internet_.vnbone().route(at, flight->inner.dst);
        if (!route.ok) {
          fail(EndToEndTrace::Failure::kVnRoutingFailed, *flight);
          return;
        }
        flight->plan =
            plan_legs(internet_.topology(), route, flight->inner, flight->dst);
        next_leg(flight);
      },
      [this, flight](net::Network::TraceResult::Outcome, NodeId, const net::Packet&) {
        fail(EndToEndTrace::Failure::kIngressFailed, *flight);
      });
}

void IpvnTransport::next_leg(const std::shared_ptr<Flight>& flight) {
  if (flight->next == flight->plan.legs.size()) {
    if (flight->plan.exit_failure == EndToEndTrace::Failure::kNone) {
      finish(*flight);
    } else {
      fail(flight->plan.exit_failure, *flight);
    }
    return;
  }
  const Leg& leg = flight->plan.legs[flight->next++];
  net::Packet packet;
  packet.push(net::HeaderLayer::ipvn(flight->inner));
  net::Ipv4Header outer;
  outer.src = internet_.topology().router(leg.from).loopback;
  outer.dst = leg.outer_dst;
  outer.proto = net::Ipv4Header::Proto::kIpvNEncap;
  packet.push(net::HeaderLayer::ipv4(outer));
  packet.payload_id = flight->payload_id;
  engine_.inject(
      leg.from, std::move(packet),
      [this, flight, arrive_at = leg.arrive_at, failure = leg.failure](
          NodeId at, const net::Packet&, sim::Duration) {
        if (at == arrive_at) {
          next_leg(flight);
        } else {
          fail(failure, *flight);
        }
      },
      [this, flight, failure = leg.failure](net::Network::TraceResult::Outcome,
                                            NodeId, const net::Packet&) {
        fail(failure, *flight);
      });
}

}  // namespace evo::core
