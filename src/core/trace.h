// End-to-end IPvN delivery across the paper's data path (§3.2–§3.3): an
// encapsulated leg to an IPvN ingress (found by anycast, a broker, or a
// chosen provider), one tunnel per vN-Bone virtual hop, then the native
// IPv(N-1) tail to a legacy destination (or native IPvN delivery at the
// destination's access router).
//
// One IpvnWalk decides every step of that path for one datagram: which
// router may act as its ingress, the vN route, the legs, and every failure
// class. Carriers only move its legs. The synchronous carrier here traces
// each leg and records it as a Segment (send_ipvn and friends);
// IpvnTransport (core/transport.h) injects each leg into the event-driven
// DeliveryEngine.
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

/// One leg of a datagram's path: an IPv(N-1) packet from `outer_src`,
/// injected at router `from` toward `outer_dst`. The ingress leg may land
/// on any router the walk accepts as an ingress; every later leg must be
/// delivered at `arrive_at`, or the datagram fails with `failure`.
struct Leg {
  Segment::Kind kind = Segment::Kind::kTunnel;
  net::NodeId from;
  net::Ipv4Addr outer_src;
  net::Ipv4Addr outer_dst;
  net::NodeId arrive_at;
  EndToEndTrace::Failure failure = EndToEndTrace::Failure::kNone;
};

/// A caller's own condition on the router an ingress leg lands on (a
/// broker's pick, a provider's domain), on top of it being deployed.
using IngressRule = std::function<bool(net::NodeId)>;

/// One IPvN datagram's walk along its legs, as a resumable state machine:
/// a carrier sends leg(), reports where it landed with arrive(), and
/// repeats until done(). The walk pauses between the two calls, so an
/// event-driven carrier can resume it from inside a simulator event.
///
/// The first leg is the ingress leg, from the source's access router
/// toward `outer_dst`. When it lands on a deployed router that `accept`
/// (if any) allows, that router routes the datagram over the vN-Bone once,
/// and the walk goes on with one tunnel per virtual hop and then, for a
/// legacy destination, the native tail. The walk allocates nothing beyond
/// its vN route; result() carries the outcome, and the segments a
/// synchronous carrier appends to it.
class IpvnWalk {
 public:
  /// A datagram from `src` to `dst` through IP generation `generation`.
  /// `accept` may be null and must otherwise outlive the walk. A walk
  /// with an invalid `dst` ends at its accepted ingress (§3.3.2's
  /// registration probe); it carries no IPvN header.
  IpvnWalk(const EvolvableInternet& internet, std::size_t generation, net::HostId src,
           net::HostId dst, net::Ipv4Addr outer_dst,
           const IngressRule* accept = nullptr,
           std::optional<vnbone::EgressMode> mode = std::nullopt);

  /// True once the datagram was delivered or has failed.
  bool done() const { return done_; }
  /// The leg to carry next. Requires !done().
  const Leg& leg() const { return leg_; }
  /// Report the router leg() was delivered at (invalid() when it was
  /// dropped) and advance to the next leg, or finish.
  void arrive(net::NodeId at);

  /// The datagram's IPvN header, which every leg encapsulates.
  const net::IpvNHeader& inner() const { return inner_; }
  /// Ingress, vN route, egress, failure and delivery so far.
  const EndToEndTrace& result() const { return result_; }
  EndToEndTrace& result() { return result_; }

 private:
  /// Set leg_ to the tunnel after the current vN hop, or the legacy tail,
  /// or finish once the last leg has arrived.
  void next_leg();
  void finish(EndToEndTrace::Failure failure);

  const net::Topology& topology_;
  const vnbone::VnBone& vnbone_;
  const IngressRule* accept_;
  std::optional<vnbone::EgressMode> mode_;
  net::HostId dst_;
  net::IpvNHeader inner_;
  Leg leg_;
  std::size_t hop_ = 0;  // index in vn_route.vn_hops where leg_ starts
  bool done_ = false;
  EndToEndTrace result_;
};

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

/// Send one IPvN datagram through the primary generation whose ingress leg
/// goes to `outer_dst` instead of the anycast address: a broker's unicast
/// pick, or a provider's own address. The landing router must also pass
/// `accept` (empty: any deployed router); from there on the path is the
/// anycast one.
EndToEndTrace send_ipvn_to(const EvolvableInternet& internet, net::HostId src,
                           net::HostId dst, net::Ipv4Addr outer_dst,
                           const IngressRule& accept,
                           std::optional<vnbone::EgressMode> mode = std::nullopt);

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
