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
  EndToEndTrace result;
  const auto& network = internet.network();
  const auto& topo = network.topology();
  const auto& vnbone = internet.generation(generation);

  if (!vnbone.anycast_group().valid()) {
    result.failure = EndToEndTrace::Failure::kNoDeployment;
    return result;
  }

  const net::Packet packet =
      internet.generation_hosts(generation).make_datagram(src, dst);
  // Leg 1: encapsulated packet rides unicast to the anycast address; the
  // network delivers it to the closest IPvN router (the ingress).
  if (enter_at_ingress(network, vnbone, topo.host(src).access_router,
                       packet.outer().v4.dst, result)) {
    complete_from_ingress(internet, packet.layers().front().vn, dst, mode, result,
                          generation);
  }
  return result;
}

bool enter_at_ingress(const net::Network& network, const vnbone::VnBone& vnbone,
                      NodeId from, net::Ipv4Addr outer_dst, EndToEndTrace& result,
                      const std::function<bool(NodeId)>& accept) {
  Segment& segment = result.segments.emplace_back();
  segment.kind = Segment::Kind::kAnycastIngress;
  segment.trace = network.trace(from, outer_dst);
  const NodeId at = segment.trace.delivered_at;
  if (!segment.trace.delivered() || !vnbone.deployed(at) || (accept && !accept(at))) {
    result.failure = EndToEndTrace::Failure::kIngressFailed;
    return false;
  }
  result.ingress = at;
  return true;
}

LegPlan plan_legs(const net::Topology& topology,
                  const vnbone::VnBone::VnRoute& route,
                  const net::IpvNHeader& inner, HostId dst) {
  LegPlan plan;
  plan.legs.reserve(route.vn_hops.size());
  for (std::size_t i = 0; i + 1 < route.vn_hops.size(); ++i) {
    const NodeId b = route.vn_hops[i + 1];
    plan.legs.push_back(Leg{Segment::Kind::kTunnel, route.vn_hops[i],
                            topology.router(b).loopback, b,
                            EndToEndTrace::Failure::kTunnelFailed});
  }
  // Exit: either a native IPv(N-1) tail to the legacy destination, or
  // native IPvN delivery at the destination's access router.
  const NodeId dst_access = topology.host(dst).access_router;
  if (route.exits_to_legacy) {
    plan.legs.push_back(Leg{Segment::Kind::kLegacyEgress, route.egress,
                            inner.legacy_dst, dst_access,
                            EndToEndTrace::Failure::kEgressFailed});
  } else if (route.egress != dst_access) {
    plan.exit_failure = EndToEndTrace::Failure::kEgressFailed;
  }
  return plan;
}

void complete_from_ingress(const EvolvableInternet& internet,
                           const net::IpvNHeader& inner, HostId dst,
                           std::optional<vnbone::EgressMode> mode,
                           EndToEndTrace& result, std::size_t generation) {
  const auto& network = internet.network();

  // The ingress decapsulates and routes over the vN-Bone.
  result.vn_route = internet.generation(generation).route(result.ingress, inner.dst,
                                                          mode);
  if (!result.vn_route.ok) {
    result.failure = EndToEndTrace::Failure::kVnRoutingFailed;
    return;
  }
  result.egress = result.vn_route.egress;
  const LegPlan plan = plan_legs(network.topology(), result.vn_route, inner, dst);
  for (const Leg& leg : plan.legs) {
    Segment& segment = result.segments.emplace_back();
    segment.kind = leg.kind;
    segment.trace = network.trace(leg.from, leg.outer_dst);
    if (!segment.trace.delivered() || segment.trace.delivered_at != leg.arrive_at) {
      result.failure = leg.failure;
      return;
    }
  }
  result.failure = plan.exit_failure;
  result.delivered = plan.exit_failure == EndToEndTrace::Failure::kNone;
}

NodeId register_endhost_route(EvolvableInternet& internet, HostId host) {
  auto& vnbone = internet.vnbone();
  if (!vnbone.anycast_group().valid()) return NodeId::invalid();
  const auto addr = internet.hosts().ipvn_address(host);
  if (!addr.is_self_address()) return NodeId::invalid();
  EndToEndTrace leg;
  if (!enter_at_ingress(internet.network(), vnbone,
                        internet.topology().host(host).access_router,
                        vnbone.anycast_address(), leg)) {
    return NodeId::invalid();
  }
  vnbone.register_endhost_route(addr, leg.ingress);
  return leg.ingress;
}

Cost oracle_host_distance(const EvolvableInternet& internet, HostId src, HostId dst) {
  const auto& topo = internet.topology();
  const net::Graph graph = topo.physical_graph();
  const auto paths = net::dijkstra(graph, topo.host(src).access_router);
  return paths.distance_to(topo.host(dst).access_router);
}

}  // namespace evo::core
