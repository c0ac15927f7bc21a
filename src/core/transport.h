// Event-driven IPvN datagram transport — the latency-accurate, socket-like
// counterpart of the synchronous tracer in core/trace.h.
//
// A datagram rides the full paper data path as simulator events: the
// encapsulated packet travels hop-by-hop to the anycast ingress, then the
// legs plan_legs() lays out (one v4 tunnel per vN-Bone virtual hop, then the
// native egress tail) are injected one after another; link latencies accrue
// in simulated time. Hosts register receive callbacks; senders may register
// failure callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "core/evolvable_internet.h"
#include "core/trace.h"
#include "net/delivery.h"

namespace evo::core {

class IpvnTransport {
 public:
  using ReceiveFn =
      std::function<void(net::HostId from, net::HostId to,
                         std::uint64_t payload_id, sim::Duration latency)>;
  using FailureFn =
      std::function<void(EndToEndTrace::Failure failure, std::uint64_t payload_id)>;

  /// `internet` must outlive the transport and all in-flight datagrams.
  /// Per-hop packet records go to the recorder attached to `internet` at
  /// construction, if any.
  explicit IpvnTransport(EvolvableInternet& internet);

  /// Register (or replace) the receive callback of `host`. Datagrams for
  /// hosts without a listener count as received but invoke nothing.
  void listen(net::HostId host, ReceiveFn fn);

  /// Send an IPvN datagram. Delivery or failure is signalled through the
  /// callbacks as the simulation runs; call simulator().run() to drain.
  void send(net::HostId src, net::HostId dst, std::uint64_t payload_id = 0,
            FailureFn on_failure = {});

  std::uint64_t datagrams_sent() const { return sent_; }
  std::uint64_t datagrams_received() const { return received_; }
  std::uint64_t datagrams_failed() const { return failed_; }

 private:
  /// One datagram in flight: its identity, callbacks and leg plan.
  struct Flight;

  /// Inject the flight's next planned leg, or finish once all have arrived.
  void next_leg(const std::shared_ptr<Flight>& flight);

  void finish(const Flight& flight);
  void fail(EndToEndTrace::Failure failure, const Flight& flight);

  EvolvableInternet& internet_;
  net::DeliveryEngine engine_;
  std::unordered_map<std::uint32_t, ReceiveFn> listeners_;  // by HostId value
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace evo::core
