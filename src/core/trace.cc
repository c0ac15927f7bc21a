#include "core/trace.h"

namespace evo::core {

using net::Cost;
using net::HostId;
using net::NodeId;

const char* to_string(Segment::Kind kind) {
  switch (kind) {
    case Segment::Kind::kAnycastIngress: return "anycast-ingress";
    case Segment::Kind::kTunnel: return "tunnel";
    case Segment::Kind::kLegacyEgress: return "legacy-egress";
  }
  return "?";
}

const char* to_string(EndToEndTrace::Failure failure) {
  switch (failure) {
    case EndToEndTrace::Failure::kNone: return "none";
    case EndToEndTrace::Failure::kNoDeployment: return "no-deployment";
    case EndToEndTrace::Failure::kIngressFailed: return "ingress-failed";
    case EndToEndTrace::Failure::kVnRoutingFailed: return "vn-routing-failed";
    case EndToEndTrace::Failure::kTunnelFailed: return "tunnel-failed";
    case EndToEndTrace::Failure::kEgressFailed: return "egress-failed";
  }
  return "?";
}

Cost EndToEndTrace::total_cost() const {
  Cost total = 0;
  for (const auto& s : segments) total += s.trace.cost;
  return total;
}

std::size_t EndToEndTrace::total_hops() const {
  std::size_t total = 0;
  for (const auto& s : segments) total += s.trace.hop_count();
  return total;
}

Cost EndToEndTrace::legacy_tail_cost() const {
  Cost total = 0;
  for (const auto& s : segments) {
    if (s.kind == Segment::Kind::kLegacyEgress) total += s.trace.cost;
  }
  return total;
}

std::string EndToEndTrace::describe() const {
  std::string out = delivered ? "delivered" : std::string("failed: ") +
                                                  to_string(failure);
  out += " (cost " + std::to_string(total_cost()) + ", hops " +
         std::to_string(total_hops()) + ", vn-hops " +
         std::to_string(vn_route.vn_hop_count()) + ")";
  return out;
}

IpvnWalk::IpvnWalk(const EvolvableInternet& internet, std::size_t generation,
                   HostId src, HostId dst, net::Ipv4Addr outer_dst,
                   const IngressRule* accept, std::optional<vnbone::EgressMode> mode)
    : topology_(internet.topology()),
      vnbone_(internet.generation(generation)),
      accept_(accept),
      mode_(mode),
      dst_(dst) {
  if (dst.valid()) inner_ = internet.generation_hosts(generation).make_header(src, dst);
  // Leg 1: the encapsulated datagram rides unicast toward `outer_dst`; the
  // network delivers it to a router that may become the ingress.
  const auto& host = topology_.host(src);
  leg_ = Leg{Segment::Kind::kAnycastIngress, host.access_router, host.address,
             outer_dst, NodeId::invalid(), EndToEndTrace::Failure::kIngressFailed};
}

void IpvnWalk::arrive(NodeId at) {
  if (leg_.kind == Segment::Kind::kAnycastIngress) {
    if (!at.valid() || !vnbone_.deployed(at) ||
        (accept_ != nullptr && !(*accept_)(at))) {
      return finish(EndToEndTrace::Failure::kIngressFailed);
    }
    result_.ingress = at;
    if (!dst_.valid()) return finish(EndToEndTrace::Failure::kNone);
    // The ingress decapsulates and routes over the vN-Bone.
    result_.vn_route = vnbone_.route(at, inner_.dst, mode_);
    if (!result_.vn_route.ok) return finish(EndToEndTrace::Failure::kVnRoutingFailed);
    result_.egress = result_.vn_route.egress;
  } else if (at != leg_.arrive_at) {
    return finish(leg_.failure);
  }
  next_leg();
}

void IpvnWalk::next_leg() {
  const auto& route = result_.vn_route;
  if (hop_ + 1 < route.vn_hops.size()) {
    const NodeId a = route.vn_hops[hop_];
    const NodeId b = route.vn_hops[++hop_];
    leg_ = Leg{Segment::Kind::kTunnel, a, topology_.router(a).loopback,
               topology_.router(b).loopback, b, EndToEndTrace::Failure::kTunnelFailed};
    return;
  }
  // Exit: either a native IPv(N-1) tail to the legacy destination, or
  // native IPvN delivery at the destination's access router.
  const NodeId dst_access = topology_.host(dst_).access_router;
  if (route.exits_to_legacy && leg_.kind != Segment::Kind::kLegacyEgress) {
    leg_ = Leg{Segment::Kind::kLegacyEgress, route.egress,
               topology_.router(route.egress).loopback, inner_.legacy_dst, dst_access,
               EndToEndTrace::Failure::kEgressFailed};
    return;
  }
  finish(route.exits_to_legacy || route.egress == dst_access
             ? EndToEndTrace::Failure::kNone
             : EndToEndTrace::Failure::kEgressFailed);
}

void IpvnWalk::finish(EndToEndTrace::Failure failure) {
  done_ = true;
  result_.failure = failure;
  result_.delivered = failure == EndToEndTrace::Failure::kNone;
}

namespace {

/// The synchronous carrier: trace each leg of `walk` and record it as a
/// segment of the result.
EndToEndTrace trace_walk(const net::Network& network, IpvnWalk& walk) {
  EndToEndTrace& result = walk.result();
  while (!walk.done()) {
    const Leg& leg = walk.leg();
    Segment& segment = result.segments.emplace_back();
    segment.kind = leg.kind;
    segment.trace = network.trace(leg.from, leg.outer_dst);
    walk.arrive(segment.trace.delivered() ? segment.trace.delivered_at
                                          : NodeId::invalid());
  }
  return std::move(result);
}

}  // namespace

EndToEndTrace send_ipvn(const EvolvableInternet& internet, HostId src, HostId dst,
                        std::optional<vnbone::EgressMode> mode) {
  return send_ipvn_generation(internet, 0, src, dst, mode);
}

std::vector<EndToEndTrace> send_ipvn_batch(const EvolvableInternet& internet,
                                           std::span<const HostPair> pairs,
                                           std::optional<vnbone::EgressMode> mode) {
  // Each send walks several trace legs; the amortization lives in
  // Network's epoch-cached compiled FIBs, which stay warm across the
  // batch because nothing here mutates routes.
  std::vector<EndToEndTrace> results;
  results.reserve(pairs.size());
  for (const HostPair& pair : pairs) {
    results.push_back(send_ipvn(internet, pair.src, pair.dst, mode));
  }
  return results;
}

EndToEndTrace send_ipvn_generation(const EvolvableInternet& internet,
                                   std::size_t generation, HostId src, HostId dst,
                                   std::optional<vnbone::EgressMode> mode) {
  const auto& vnbone = internet.generation(generation);
  if (!vnbone.anycast_group().valid()) {
    EndToEndTrace result;
    result.failure = EndToEndTrace::Failure::kNoDeployment;
    return result;
  }
  IpvnWalk walk(internet, generation, src, dst, vnbone.anycast_address(), nullptr,
                mode);
  return trace_walk(internet.network(), walk);
}

EndToEndTrace send_ipvn_to(const EvolvableInternet& internet, HostId src, HostId dst,
                           net::Ipv4Addr outer_dst, const IngressRule& accept,
                           std::optional<vnbone::EgressMode> mode) {
  IpvnWalk walk(internet, 0, src, dst, outer_dst, accept ? &accept : nullptr, mode);
  return trace_walk(internet.network(), walk);
}

NodeId register_endhost_route(EvolvableInternet& internet, HostId host) {
  auto& vnbone = internet.vnbone();
  if (!vnbone.anycast_group().valid()) return NodeId::invalid();
  const auto addr = internet.hosts().ipvn_address(host);
  if (!addr.is_self_address()) return NodeId::invalid();
  IpvnWalk probe(internet, 0, host, HostId::invalid(), vnbone.anycast_address());
  const NodeId advertiser = trace_walk(internet.network(), probe).ingress;
  if (advertiser.valid()) vnbone.register_endhost_route(addr, advertiser);
  return advertiser;
}

Cost oracle_host_distance(const EvolvableInternet& internet, HostId src, HostId dst) {
  const auto& topo = internet.topology();
  const net::Graph graph = topo.physical_graph();
  const auto paths = net::dijkstra(graph, topo.host(src).access_router);
  return paths.distance_to(topo.host(dst).access_router);
}

}  // namespace evo::core
