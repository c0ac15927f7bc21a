#include "core/transport.h"

namespace evo::core {

using net::HostId;
using net::NodeId;

struct IpvnTransport::Flight {
  HostId src;
  HostId dst;
  std::uint64_t payload_id = 0;
  sim::TimePoint sent_at;
  FailureFn on_failure;
  IpvnWalk walk;
};

IpvnTransport::IpvnTransport(EvolvableInternet& internet, std::size_t generation)
    : internet_(internet),
      generation_(generation),
      engine_(internet.simulator(), internet.network()) {
  engine_.set_recorder(internet.recorder());
}

void IpvnTransport::listen(HostId host, ReceiveFn fn) {
  listeners_[host.value()] = std::move(fn);
}

void IpvnTransport::send(HostId src, HostId dst, std::uint64_t payload_id,
                         FailureFn on_failure) {
  ++sent_;
  const auto& vnbone = internet_.generation(generation_);
  if (!vnbone.anycast_group().valid()) {
    ++failed_;
    if (on_failure) on_failure(EndToEndTrace::Failure::kNoDeployment, payload_id);
    return;
  }
  carry(std::make_shared<Flight>(
      Flight{src, dst, payload_id, internet_.simulator().now(), std::move(on_failure),
             IpvnWalk(internet_, generation_, src, dst, vnbone.anycast_address())}));
}

void IpvnTransport::carry(const std::shared_ptr<Flight>& flight) {
  const IpvnWalk& walk = flight->walk;
  if (walk.done()) {
    report(*flight);
    return;
  }
  const Leg& leg = walk.leg();
  net::Packet packet =
      net::make_encapsulated(walk.inner(), leg.outer_src, leg.outer_dst);
  packet.payload_id = flight->payload_id;
  // The walk resumes inside the event where the leg lands (or drops).
  engine_.inject(
      leg.from, std::move(packet),
      [this, flight](NodeId at, const net::Packet&, sim::Duration) {
        flight->walk.arrive(at);
        carry(flight);
      },
      [this, flight](net::Network::TraceResult::Outcome, NodeId, const net::Packet&) {
        flight->walk.arrive(NodeId::invalid());
        carry(flight);
      });
}

void IpvnTransport::report(const Flight& flight) {
  const EndToEndTrace& result = flight.walk.result();
  if (!result.delivered) {
    ++failed_;
    if (flight.on_failure) flight.on_failure(result.failure, flight.payload_id);
    return;
  }
  ++received_;
  const auto it = listeners_.find(flight.dst.value());
  if (it != listeners_.end() && it->second) {
    it->second(flight.src, flight.dst, flight.payload_id,
               internet_.simulator().now() - flight.sent_at);
  }
}

}  // namespace evo::core
