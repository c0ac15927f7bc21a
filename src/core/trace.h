// End-to-end IPvN delivery tracing across all three legs of the paper's
// data path: anycast ingress (host -> closest IPvN router), vN-Bone
// transit (tunneled virtual hops), and egress (native IPv(N-1) tail to a
// legacy destination, or native IPvN delivery at the access router).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/evolvable_internet.h"

namespace evo::core {

struct Segment {
  enum class Kind : std::uint8_t {
    kAnycastIngress,  // encapsulated packet riding unicast to the anycast addr
    kTunnel,          // one vN-Bone virtual hop (v4 tunnel between routers)
    kLegacyEgress,    // native IPv(N-1) tail from the egress to the dest
  };
  Kind kind = Kind::kAnycastIngress;
  net::Network::TraceResult trace;
};

const char* to_string(Segment::Kind kind);

struct EndToEndTrace {
  enum class Failure : std::uint8_t {
    kNone,
    kNoDeployment,     // no IPvN router exists anywhere
    kIngressFailed,    // anycast packet was not delivered to any member
    kVnRoutingFailed,  // no vN-Bone route toward the destination
    kTunnelFailed,     // a virtual hop's underlay path failed
    kEgressFailed,     // the native tail did not reach the destination
  };

  bool delivered = false;
  Failure failure = Failure::kNone;
  net::NodeId ingress;
  net::NodeId egress;
  vnbone::VnBone::VnRoute vn_route;
  std::vector<Segment> segments;

  /// Total underlay cost across all segments.
  net::Cost total_cost() const;
  /// Total underlay (physical) hops across all segments.
  std::size_t total_hops() const;
  /// Cost of the legacy (IPv(N-1)) tail only — the part of the path the
  /// IPvN deployment does not control (Figure 3's metric).
  net::Cost legacy_tail_cost() const;

  std::string describe() const;
};

const char* to_string(EndToEndTrace::Failure failure);

/// One leg of the data path past the ingress: an IPv(N-1) packet sent from
/// `from` toward `outer_dst` that must be delivered at `arrive_at`, or the
/// datagram fails with `failure`.
struct Leg {
  Segment::Kind kind = Segment::Kind::kTunnel;
  net::NodeId from;
  net::Ipv4Addr outer_dst;
  net::NodeId arrive_at;
  EndToEndTrace::Failure failure = EndToEndTrace::Failure::kNone;
};

/// The legs an IPvN datagram takes after its ingress, in order: one tunnel
/// per vN-Bone virtual hop, then the native IPv(N-1) tail when the route
/// exits to a legacy destination. `exit_failure` is reported once every leg
/// has arrived: kEgressFailed when the route ends natively at a router other
/// than the destination's access router, kNone (delivered) otherwise.
struct LegPlan {
  std::vector<Leg> legs;
  EndToEndTrace::Failure exit_failure = EndToEndTrace::Failure::kNone;
};

/// Plan the legs of `route` (an ok route whose first vN hop is the ingress)
/// for a datagram with IPvN header `inner` bound for host `dst`. Both
/// send_ipvn (synchronous traces) and IpvnTransport (simulator events)
/// walk this plan.
LegPlan plan_legs(const net::Topology& topology,
                  const vnbone::VnBone::VnRoute& route,
                  const net::IpvNHeader& inner, net::HostId dst);

/// Send one IPvN datagram from `src` to `dst` through the full paper
/// data path. `mode` overrides the configured egress-selection mode.
EndToEndTrace send_ipvn(const EvolvableInternet& internet, net::HostId src,
                        net::HostId dst,
                        std::optional<vnbone::EgressMode> mode = std::nullopt);

/// One src->dst probe of a batched send.
struct HostPair {
  net::HostId src;
  net::HostId dst;
};

/// Send one IPvN datagram per pair through the full data path. The batch
/// counterpart of send_ipvn: per-router compiled forwarding tables are
/// compiled at most once per route epoch across the whole batch, so probe
/// sweeps (benches, the universal-access verifier) pay compilation once
/// instead of per packet. results[i] corresponds to pairs[i] and is
/// identical to what send_ipvn(pairs[i]...) would return.
std::vector<EndToEndTrace> send_ipvn_batch(const EvolvableInternet& internet,
                                           std::span<const HostPair> pairs,
                                           std::optional<vnbone::EgressMode> mode =
                                               std::nullopt);

/// Like send_ipvn but through a non-primary IP generation (its own
/// vN-Bone, anycast group, and host addressing).
EndToEndTrace send_ipvn_generation(const EvolvableInternet& internet,
                                   std::size_t generation, net::HostId src,
                                   net::HostId dst,
                                   std::optional<vnbone::EgressMode> mode =
                                       std::nullopt);

/// The ingress leg every IPvN driver shares: the encapsulated packet rides
/// unicast from `from` toward `outer_dst` (an anycast address, or a
/// broker's unicast pick) and is recorded as the kAnycastIngress segment
/// of `result`. The router it lands on becomes `result.ingress` when
/// `vnbone` has it deployed and `accept` (the caller's own rule, if any)
/// agrees; otherwise `result.failure` is kIngressFailed. Returns whether
/// the ingress was accepted.
bool enter_at_ingress(const net::Network& network, const vnbone::VnBone& vnbone,
                      net::NodeId from, net::Ipv4Addr outer_dst,
                      EndToEndTrace& result,
                      const std::function<bool(net::NodeId)>& accept = nullptr);

/// Complete a delivery whose ingress was already determined (by anycast,
/// a broker lookup, or a user-selected provider): runs the vN-Bone leg
/// and the egress leg, appending segments to `result` and setting
/// delivered/failure. `result.ingress` must be a deployed router.
void complete_from_ingress(const EvolvableInternet& internet,
                           const net::IpvNHeader& inner, net::HostId dst,
                           std::optional<vnbone::EgressMode> mode,
                           EndToEndTrace& result, std::size_t generation = 0);

/// §3.3.2 endhost route advertisement: `host` uses anycast to find a
/// nearby IPvN router and registers its temporary (self) address there
/// for BGPvN advertisement. Returns the advertiser, or invalid() when the
/// host has a native address (no registration needed) or no IPvN router
/// is reachable. "An endhost would periodically repeat this process" —
/// callers re-invoke after deployment or topology changes.
net::NodeId register_endhost_route(EvolvableInternet& internet, net::HostId host);

/// Oracle: cheapest physical cost between the two hosts' access routers
/// (for stretch metrics; ignores policy).
net::Cost oracle_host_distance(const EvolvableInternet& internet, net::HostId src,
                               net::HostId dst);

}  // namespace evo::core
