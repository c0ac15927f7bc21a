#include "net/delivery.h"

#include <cassert>

namespace evo::net {

DeliveryEngine::DeliveryEngine(sim::Simulator& simulator, const Network& network)
    : simulator_(simulator), network_(network) {}

void DeliveryEngine::inject(NodeId node, Packet packet, DeliveredFn on_delivered,
                            DroppedFn on_dropped) {
  assert(!packet.empty() && packet.outer().kind == HeaderLayer::Kind::kIpv4 &&
         "forwarding acts on an outer IPv4 header");
  step(node, std::move(packet), simulator_.now(), std::move(on_delivered),
       std::move(on_dropped));
}

void DeliveryEngine::drop(Network::TraceResult::Outcome reason, NodeId at,
                          const Packet& packet, const DroppedFn& on_dropped) {
  ++dropped_;
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kNet, "net.pkt.drop", at.value(),
                       static_cast<std::uint64_t>(reason));
  }
  if (on_dropped) on_dropped(reason, at, packet);
}

void DeliveryEngine::step(NodeId node, Packet packet, sim::TimePoint injected_at,
                          DeliveredFn on_delivered, DroppedFn on_dropped) {
  const Ipv4Addr dst = packet.outer().v4.dst;
  // A packet out of TTL may still be delivered here, but is never looked up.
  if (packet.outer().v4.ttl == 0 && !network_.delivers_locally(node, dst)) {
    drop(Network::TraceResult::Outcome::kTtlExpired, node, packet, on_dropped);
    return;
  }
  const Network::Step hop = network_.forward_step(node, dst);
  if (hop.action == Network::Step::Action::kDeliver) {
    ++delivered_;
    if (recorder_ != nullptr) {
      recorder_->instant(
          obs::Domain::kNet, "net.pkt.delivered", node.value(),
          static_cast<std::uint64_t>(
              (simulator_.now() - injected_at).count_micros()));
    }
    on_delivered(node, packet, simulator_.now() - injected_at);
    return;
  }
  if (hop.action == Network::Step::Action::kDrop) {
    drop(hop.drop_reason, node, packet, on_dropped);
    return;
  }
  --packet.outer().v4.ttl;
  ++hops_forwarded_;
  const NodeId next = hop.next;
  const LinkId out_link = hop.link;
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kNet, "net.pkt.hop", node.value(),
                       next.value());
  }
  auto continuation = [this, node, next, out_link, packet = std::move(packet),
                       injected_at, on_delivered = std::move(on_delivered),
                       on_dropped = std::move(on_dropped)]() mutable {
    // The link was usable when the packet departed, but it (or either
    // endpoint) may have died while the packet was in flight. Re-check
    // at arrival time — a packet cannot cross a link that no longer
    // exists, and LSA flooding already models this (link_state.cc).
    if (out_link.valid() && !network_.topology().link_usable(out_link)) {
      drop(Network::TraceResult::Outcome::kLinkDown, node, packet, on_dropped);
      return;
    }
    step(next, std::move(packet), injected_at, std::move(on_delivered),
         std::move(on_dropped));
  };
  // EventFn's inline buffer is sized for exactly this capture: per-hop
  // scheduling must never heap-allocate the continuation.
  static_assert(sizeof(continuation) <= sim::EventFn::inline_capacity);
  simulator_.schedule_after(hop.latency, std::move(continuation));
}

}  // namespace evo::net
