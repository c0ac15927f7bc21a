#include "igp/link_state.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace evo::igp {

using net::Cost;
using net::DomainId;
using net::FibEntry;
using net::Ipv4Addr;
using net::LinkId;
using net::NodeId;
using net::Prefix;
using net::RouteOrigin;

namespace {

/// First hop from the SPF source toward `to` (reachable), read off the
/// predecessor chain without materializing the path; the source itself
/// when `to` is the source.
NodeId first_hop(const net::ShortestPaths& spf, NodeId to) {
  NodeId hop = to;
  for (NodeId up = spf.predecessor[hop.value()];
       up.valid() && spf.predecessor[up.value()].valid();
       up = spf.predecessor[hop.value()]) {
    hop = up;
  }
  return hop;
}

/// Position of `node` in the sorted `nodes`, if there.
std::optional<std::uint32_t> local_index(const std::vector<NodeId>& nodes,
                                         NodeId node) {
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
  if (it == nodes.end() || *it != node) return std::nullopt;
  return static_cast<std::uint32_t>(it - nodes.begin());
}

}  // namespace

LinkStateIgp::LinkStateIgp(sim::Simulator& simulator, net::Network& network,
                           DomainId domain, LinkStateConfig config)
    : simulator_(simulator), network_(network), domain_(domain), config_(config) {
  for (const NodeId node : network_.topology().domain(domain_).routers) {
    states_.emplace(node.value(), RouterState{});
  }
}

bool LinkStateIgp::in_domain(NodeId node) const {
  return network_.topology().router(node).domain == domain_;
}

LinkStateIgp::RouterState& LinkStateIgp::state(NodeId node) {
  auto it = states_.find(node.value());
  assert(it != states_.end() && "router not in this IGP's domain");
  return it->second;
}

const LinkStateIgp::RouterState& LinkStateIgp::state(NodeId node) const {
  auto it = states_.find(node.value());
  assert(it != states_.end() && "router not in this IGP's domain");
  return it->second;
}

void LinkStateIgp::start() {
  started_ = true;
  for (const NodeId node : network_.topology().domain(domain_).routers) {
    originate(node);
  }
}

void LinkStateIgp::add_anycast_member(NodeId router, Ipv4Addr anycast) {
  assert(in_domain(router));
  auto& st = state(router);
  if (!st.memberships.insert(anycast).second) return;
  if (started_) originate(router);
}

void LinkStateIgp::remove_anycast_member(NodeId router, Ipv4Addr anycast) {
  assert(in_domain(router));
  auto& st = state(router);
  if (st.memberships.erase(anycast) == 0) return;
  if (started_) originate(router);
}

std::vector<NodeId> LinkStateIgp::discovered_members(NodeId viewpoint,
                                                     Ipv4Addr anycast) const {
  const auto& st = state(viewpoint);
  std::vector<NodeId> members;
  for (const auto& [origin, lsa] : st.lsdb) {
    if (std::find(lsa.anycast_addresses.begin(), lsa.anycast_addresses.end(),
                  anycast) != lsa.anycast_addresses.end()) {
      members.push_back(origin);
    }
  }
  return members;  // lsdb is an ordered map => sorted by NodeId
}

Cost LinkStateIgp::distance(NodeId from, NodeId to) const {
  const auto& st = state(from);
  const auto i = local_index(st.spf_nodes, to);
  if (!st.spf_valid || !i) return net::kInfiniteCost;
  return st.spf.distance[*i];
}

NodeId LinkStateIgp::next_hop(NodeId from, NodeId to) const {
  const auto& st = state(from);
  const auto i = local_index(st.spf_nodes, to);
  if (!st.spf_valid || !i || !st.spf.reachable(NodeId{*i})) return NodeId::invalid();
  return st.spf_nodes[first_hop(st.spf, NodeId{*i}).value()];
}

void LinkStateIgp::on_link_change(LinkId link) {
  const auto& l = network_.topology().link(link);
  if (l.interdomain) return;
  if (network_.topology().router(l.a).domain != domain_) return;
  if (started_) {
    originate(l.a);
    originate(l.b);
    if (network_.topology().link_usable(link)) {
      // Adjacency came up: exchange full databases across it (OSPF DB
      // exchange). Without this, third-party LSAs that changed on the far
      // side of a partition are never re-flooded — both sides already hold
      // a (stale) copy whose sequence number blocks normal flooding.
      sync_database(l.a, l.b, link);
      sync_database(l.b, l.a, link);
    }
  }
}

void LinkStateIgp::sync_database(NodeId from, NodeId to, LinkId via) {
  const auto& st = state(from);
  const auto& topo = network_.topology();
  const auto latency = topo.link(via).latency;
  for (const auto& [origin, lsa] : st.lsdb) {
    ++messages_sent_;
    simulator_.schedule_after(latency, [this, to, lsa = lsa, via] {
      if (network_.topology().link_usable(via)) {
        receive(to, lsa, via);
      }
    });
  }
}

void LinkStateIgp::originate(NodeId router) {
  auto& st = state(router);
  Lsa lsa;
  lsa.origin = router;
  lsa.sequence = ++st.own_sequence;
  const auto& topo = network_.topology();
  for (const LinkId link_id : topo.router(router).links) {
    const auto& link = topo.link(link_id);
    if (link.interdomain || !topo.link_usable(link_id)) continue;
    lsa.adjacencies.push_back(
        LsaAdjacency{link.other_end(router), link.cost, link_id});
  }
  lsa.anycast_addresses.assign(st.memberships.begin(), st.memberships.end());

  // Self-install and flood everywhere.
  st.lsdb[router] = lsa;
  schedule_spf(router);
  flood(router, lsa, LinkId::invalid());
}

void LinkStateIgp::receive(NodeId router, Lsa lsa, LinkId via_link) {
  auto& st = state(router);
  auto it = st.lsdb.find(lsa.origin);
  if (it != st.lsdb.end() && it->second.sequence >= lsa.sequence) {
    return;  // stale or duplicate
  }
  st.lsdb[lsa.origin] = lsa;
  schedule_spf(router);
  flood(router, lsa, via_link);
}

void LinkStateIgp::flood(NodeId router, const Lsa& lsa, LinkId except) {
  const auto& topo = network_.topology();
  for (const LinkId link_id : topo.router(router).links) {
    if (link_id == except) continue;
    const auto& link = topo.link(link_id);
    if (link.interdomain || !topo.link_usable(link_id)) continue;
    const NodeId neighbor = link.other_end(router);
    ++messages_sent_;
    simulator_.schedule_after(link.latency, [this, neighbor, lsa, link_id] {
      // Re-check at delivery: the link (or an endpoint) may have failed
      // in flight.
      if (network_.topology().link_usable(link_id)) {
        receive(neighbor, lsa, link_id);
      }
    });
  }
}

void LinkStateIgp::schedule_spf(NodeId router) {
  auto& st = state(router);
  if (st.spf_pending) return;
  st.spf_pending = true;
  simulator_.schedule_after(config_.spf_delay, [this, router] { run_spf(router); });
}

net::Graph LinkStateIgp::lsdb_graph(const RouterState& st,
                                    std::vector<NodeId>& nodes) const {
  nodes.clear();
  for (const auto& [origin, lsa] : st.lsdb) nodes.push_back(origin);
  net::Graph graph(nodes.size());
  // A directed edge is used only when both endpoints report it (two-way
  // connectivity check), matching OSPF behavior on half-broken links.
  std::uint32_t from = 0;
  for (const auto& [origin, lsa] : st.lsdb) {
    for (const auto& adj : lsa.adjacencies) {
      const auto other = st.lsdb.find(adj.neighbor);
      if (other == st.lsdb.end()) continue;
      const bool reciprocal =
          std::any_of(other->second.adjacencies.begin(),
                      other->second.adjacencies.end(),
                      [&](const LsaAdjacency& back) { return back.neighbor == origin; });
      if (reciprocal) {
        graph.add_edge(NodeId{from}, NodeId{*local_index(nodes, adj.neighbor)},
                       adj.cost, adj.link);
      }
    }
    ++from;
  }
  return graph;
}

void LinkStateIgp::run_spf(NodeId router) {
  auto& st = state(router);
  st.spf_pending = false;
  ++spf_runs_;
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kIgp, "igp.ls.spf", domain_.value(),
                       router.value());
  }

  // Every SPF run follows an LSDB write at this router, its own LSA
  // included, so the router is in its graph.
  const net::Graph graph = lsdb_graph(st, st.spf_nodes);
  const auto self_index = local_index(st.spf_nodes, router);
  assert(self_index.has_value());
  const NodeId self{*self_index};
  st.spf = net::dijkstra(graph, self);
  st.spf_valid = true;

  // Accumulate the full IGP+anycast table, then swap it in with one
  // replace_origins call: the Fib bumps its route epoch (invalidating the
  // router's compiled forwarding table) only when this SPF run actually
  // changed something.
  std::vector<FibEntry> routes;
  const auto& topo = network_.topology();
  // The first hop toward LSDB router i, and the LSDB link to it (the first
  // adjacency reported for it).
  const auto hop_to = [&](std::uint32_t i) {
    const NodeId hop = first_hop(st.spf, NodeId{i});
    for (const net::Graph::Edge& e : graph.neighbors(self)) {
      if (e.to == hop) return std::make_pair(st.spf_nodes[hop.value()], e.link);
    }
    return std::make_pair(st.spf_nodes[hop.value()], LinkId::invalid());
  };

  // Unicast routes to every other router in the LSDB.
  for (std::uint32_t i = 0; i < st.spf_nodes.size(); ++i) {
    const NodeId origin = st.spf_nodes[i];
    if (origin == router || !st.spf.reachable(NodeId{i})) continue;
    const auto [hop, out] = hop_to(i);
    const auto& r = topo.router(origin);
    const Cost metric = st.spf.distance[i];
    routes.push_back(
        FibEntry{Prefix::host(r.loopback), hop, out, RouteOrigin::kIgp, metric});
    routes.push_back(FibEntry{net::Topology::router_subnet(r.domain, r.index_in_domain),
                              hop, out, RouteOrigin::kIgp, metric});
  }

  // Anycast routes: pick the closest member (deterministic tiebreak on
  // NodeId). The member's high-cost stub link contributes equally for all
  // members, so it is added for fidelity but cannot change the winner.
  // Members are LSDB indices, whose order is NodeId order.
  std::map<Ipv4Addr, std::pair<Cost, std::uint32_t>> best;
  std::uint32_t i = 0;
  for (const auto& [origin, lsa] : st.lsdb) {
    const std::uint32_t member = i++;
    if (!st.spf.reachable(NodeId{member})) continue;
    for (const Ipv4Addr addr : lsa.anycast_addresses) {
      const Cost total = st.spf.distance[member] + config_.anycast_stub_cost;
      auto [it, inserted] = best.emplace(addr, std::make_pair(total, member));
      if (!inserted && (total < it->second.first ||
                        (total == it->second.first && member < it->second.second))) {
        it->second = {total, member};
      }
    }
  }
  for (const auto& [addr, winner] : best) {
    const auto& [metric, member] = winner;
    if (st.spf_nodes[member] == router) continue;  // delivered locally; no route needed
    const auto [hop, out] = hop_to(member);
    routes.push_back(
        FibEntry{Prefix::host(addr), hop, out, RouteOrigin::kAnycast, metric});
  }

  network_.fib(router).replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast},
                                       routes);
}

}  // namespace evo::igp
