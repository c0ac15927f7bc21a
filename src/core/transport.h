// Event-driven IPvN datagram transport — the latency-accurate, socket-like
// counterpart of the synchronous tracer in core/trace.h.
//
// The transport is the event-driven carrier of an IpvnWalk: it injects each
// leg the walk hands out (the encapsulated datagram to the anycast ingress,
// one v4 tunnel per vN-Bone virtual hop, the native egress tail) into a
// DeliveryEngine and resumes the walk from the event where the leg landed,
// so link latencies accrue in simulated time. The walk decides routes and
// failures; the transport only reports them. Hosts register receive
// callbacks; senders may register failure callbacks.
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

  /// Carry datagrams through IP generation `generation` (its vN-Bone,
  /// anycast group and host addressing), as send_ipvn_generation does.
  /// `internet` must outlive the transport and all in-flight datagrams.
  /// Per-hop packet records go to the recorder attached to `internet` at
  /// construction, if any.
  explicit IpvnTransport(EvolvableInternet& internet, std::size_t generation = 0);

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
  /// One datagram in flight: its identity, callbacks and walk.
  struct Flight;

  /// Inject the flight's next leg, or report its outcome once the walk is
  /// done.
  void carry(const std::shared_ptr<Flight>& flight);

  /// Count and signal a finished walk's outcome: delivery to the
  /// destination's listener, or its failure to the sender's callback.
  void report(const Flight& flight);

  EvolvableInternet& internet_;
  std::size_t generation_;
  net::DeliveryEngine engine_;
  std::unordered_map<std::uint32_t, ReceiveFn> listeners_;  // by HostId value
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace evo::core
