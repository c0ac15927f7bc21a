#include "redirect/broker.h"

#include <algorithm>

namespace evo::redirect {

using net::DomainId;
using net::HostId;
using net::NodeId;

BrokerService::BrokerService(const core::EvolvableInternet& internet)
    : internet_(internet) {}

void BrokerService::set_participation(DomainId domain, bool participates) {
  if (participates) {
    participating_.insert(domain);
  } else {
    participating_.erase(domain);
  }
}

void BrokerService::set_all_participating() {
  for (const auto& domain : internet_.topology().domains()) {
    participating_.insert(domain.id);
  }
}

bool BrokerService::participates(DomainId domain) const {
  return participating_.contains(domain);
}

void BrokerService::refresh() {
  database_.clear();
  for (const NodeId router : internet_.vnbone().deployed_routers()) {
    if (participating_.contains(internet_.topology().router(router).domain)) {
      database_.push_back(router);
    }
  }
}

std::optional<NodeId> BrokerService::lookup(NodeId client_access) const {
  if (database_.empty()) return std::nullopt;
  const auto& topo = internet_.topology();
  // The broker's proximity estimate: domain-level hops from the client's
  // domain (public AS-adjacency knowledge; no ISP-interior visibility).
  const auto domain_graph = topo.domain_level_graph();
  const auto hops = net::bfs_hops(
      domain_graph, NodeId{topo.router(client_access).domain.value()});
  NodeId best = NodeId::invalid();
  std::uint32_t best_hops = std::numeric_limits<std::uint32_t>::max();
  for (const NodeId candidate : database_) {
    const auto d = hops[topo.router(candidate).domain.value()];
    if (d < best_hops || (d == best_hops && candidate < best)) {
      best = candidate;
      best_hops = d;
    }
  }
  if (!best.valid() || best_hops == std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  return best;
}

core::EndToEndTrace send_ipvn_via_broker(const core::EvolvableInternet& internet,
                                         const BrokerService& broker, HostId src,
                                         HostId dst,
                                         std::optional<vnbone::EgressMode> mode) {
  core::EndToEndTrace result;
  if (!internet.vnbone().anycast_group().valid()) {
    result.failure = core::EndToEndTrace::Failure::kNoDeployment;
    return result;
  }

  const auto& topo = internet.topology();
  const auto target = broker.lookup(topo.host(src).access_router);
  if (!target) {
    // The broker knows no IPvN router: the client is locked out even
    // though a deployment may exist (non-participating ISPs).
    result.failure = core::EndToEndTrace::Failure::kIngressFailed;
    return result;
  }

  // The client tunnels the encapsulated datagram to the broker-provided
  // *unicast* address (no anycast involved). Staleness bites here: the
  // router must still be deployed to accept the encapsulated packet. From
  // the ingress onward the path is identical to the anycast case.
  return core::send_ipvn_to(internet, src, dst, topo.router(*target).loopback,
                            [&](NodeId at) { return at == *target; }, mode);
}

}  // namespace evo::redirect
