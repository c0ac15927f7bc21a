// Event-driven packet forwarding: packets move hop-by-hop through the
// simulator, accruing link latencies and decrementing TTL. Each hop is one
// Network::forward_step, the same decision Network::trace loops over
// synchronously.
#pragma once

#include <cstdint>
#include <functional>

#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace evo::net {

class DeliveryEngine {
 public:
  /// Called when the packet is locally delivered somewhere.
  using DeliveredFn =
      std::function<void(NodeId at, const Packet& packet, sim::Duration elapsed)>;
  /// Called when the packet is dropped (no route, TTL, link down, loop cap).
  using DroppedFn = std::function<void(Network::TraceResult::Outcome reason,
                                       NodeId at, const Packet& packet)>;

  /// References must outlive the engine and any in-flight packets.
  DeliveryEngine(sim::Simulator& simulator, const Network& network);

  /// Telemetry sink for per-hop packet records (hop, delivered, drop).
  /// Null by default; must outlive any in-flight packets when set.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Inject `packet` at `node`. Exactly one of the callbacks fires,
  /// possibly synchronously (local delivery at the injection point).
  /// `on_dropped` may be empty. Forwarding acts on the packet's outermost
  /// IPv4 header.
  void inject(NodeId node, Packet packet, DeliveredFn on_delivered,
              DroppedFn on_dropped = {});

  std::uint64_t packets_forwarded() const { return hops_forwarded_; }
  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t packets_dropped() const { return dropped_; }

 private:
  void step(NodeId node, Packet packet, sim::TimePoint injected_at,
            DeliveredFn on_delivered, DroppedFn on_dropped);

  void drop(Network::TraceResult::Outcome reason, NodeId at, const Packet& packet,
            const DroppedFn& on_dropped);

  sim::Simulator& simulator_;
  const Network& network_;
  obs::Recorder* recorder_ = nullptr;
  std::uint64_t hops_forwarded_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace evo::net
