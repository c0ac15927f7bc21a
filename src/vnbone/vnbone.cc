#include "vnbone/vnbone.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace evo::vnbone {

using net::Cost;
using net::DomainId;
using net::Graph;
using net::GroupId;
using net::Ipv4Addr;
using net::IpvNAddr;
using net::NodeId;
using net::Prefix;

const char* to_string(EgressMode mode) {
  switch (mode) {
    case EgressMode::kExitAtIngress: return "exit-at-ingress";
    case EgressMode::kOwnPathKnowledge: return "own-path-knowledge";
    case EgressMode::kProxyAdvertising: return "proxy-advertising";
    case EgressMode::kEndhostAdvertised: return "endhost-advertised";
  }
  return "?";
}

const char* to_string(VirtualLink::Source source) {
  switch (source) {
    case VirtualLink::Source::kIntraK: return "intra-k";
    case VirtualLink::Source::kPartitionRepair: return "partition-repair";
    case VirtualLink::Source::kPeeringTunnel: return "peering-tunnel";
    case VirtualLink::Source::kAnycastBootstrap: return "anycast-bootstrap";
    case VirtualLink::Source::kManual: return "manual";
    case VirtualLink::Source::kCongruent: return "congruent";
  }
  return "?";
}

VnBone::VnBone(net::Network& network, bgp::BgpSystem* bgp,
               std::function<igp::Igp*(net::DomainId)> igp_of,
               anycast::AnycastService& anycast_service, VnBoneConfig config)
    : network_(network),
      bgp_(bgp),
      igp_of_(std::move(igp_of)),
      anycast_(anycast_service),
      config_(config) {}

Ipv4Addr VnBone::anycast_address() const {
  assert(group_.valid() && "no router deployed yet");
  return anycast_.group(group_).address;
}

igp::Igp* VnBone::igp_for_node(NodeId node) const {
  return igp_of_(network_.topology().router(node).domain);
}

void VnBone::ensure_group(DomainId first_domain) {
  if (group_.valid()) return;
  default_domain_ = first_domain;
  anycast::GroupConfig gc;
  gc.mode = config_.anycast_mode;
  gc.default_domain = first_domain;
  gc.ip_version = config_.version;
  group_ = anycast_.create_group(gc);
}

void VnBone::deploy_router(NodeId router) {
  if (deployed(router)) return;
  if (deployed_.size() <= router.value()) {
    deployed_.resize(std::max<std::size_t>(router.value() + 1,
                                           network_.topology().router_count()));
  }
  deployed_[router.value()] = true;
  ++deployed_count_;
  const DomainId domain = network_.topology().router(router).domain;
  if (members_.size() <= domain.value()) members_.resize(domain.value() + 1);
  auto& members = members_[domain.value()];
  members.insert(std::lower_bound(members.begin(), members.end(), router), router);
  if (members.size() == 1) {
    domains_.insert(std::lower_bound(domains_.begin(), domains_.end(), domain), domain);
  }
  ensure_group(domain);
  anycast_.add_member(group_, router);
}

void VnBone::undeploy_router(NodeId router) {
  if (!deployed(router)) return;
  deployed_[router.value()] = false;
  --deployed_count_;
  const DomainId domain = network_.topology().router(router).domain;
  auto& members = members_[domain.value()];
  members.erase(std::lower_bound(members.begin(), members.end(), router));
  if (members.empty()) {
    domains_.erase(std::lower_bound(domains_.begin(), domains_.end(), domain));
  }
  anycast_.remove_member(group_, router);
}

void VnBone::deploy_domain(DomainId domain) {
  for (const NodeId r : network_.topology().domain(domain).routers) {
    deploy_router(r);
  }
}

std::vector<NodeId> VnBone::deployed_routers() const {
  std::vector<NodeId> out;
  out.reserve(deployed_count_);
  for (std::uint32_t r = 0; r < deployed_.size(); ++r) {
    if (deployed_[r]) out.push_back(NodeId{r});
  }
  return out;
}

const std::vector<NodeId>& VnBone::deployed_routers_in(DomainId domain) const {
  static const std::vector<NodeId> kNone;
  return domain.value() < members_.size() ? members_[domain.value()] : kNone;
}

bool VnBone::active(NodeId router) const {
  return deployed(router) && network_.topology().router(router).up;
}

bool VnBone::domain_active(DomainId domain) const {
  const auto& members = deployed_routers_in(domain);
  return std::any_of(members.begin(), members.end(), [&](NodeId r) {
    return network_.topology().router(r).up;
  });
}

std::vector<NodeId> VnBone::active_routers() const {
  std::vector<NodeId> out;
  for (std::uint32_t r = 0; r < deployed_.size(); ++r) {
    if (active(NodeId{r})) out.push_back(NodeId{r});
  }
  return out;
}

std::vector<NodeId> VnBone::active_routers_in(DomainId domain) const {
  std::vector<NodeId> out;
  for (const NodeId r : deployed_routers_in(domain)) {
    if (network_.topology().router(r).up) out.push_back(r);
  }
  return out;
}

void VnBone::add_manual_tunnel(NodeId a, NodeId b) {
  assert(a != b);
  manual_tunnels_.insert({std::min(a, b), std::max(a, b)});
}

void VnBone::remove_manual_tunnel(NodeId a, NodeId b) {
  manual_tunnels_.erase({std::min(a, b), std::max(a, b)});
}

namespace {

/// An unordered router pair as one sortable key: (low << 32) | high.
std::uint64_t pair_key(NodeId a, NodeId b) {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return lo << 32 | hi;
}

/// Union-find over dense indices. A set's root is its smallest index, so
/// comparing roots orders components by their lowest member, the order in
/// which net::connected_components numbers them.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), count_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t i) {
    while (parent_[i] != i) i = parent_[i] = parent_[parent_[i]];
    return i;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    parent_[std::max(a, b)] = std::min(a, b);
    --count_;
  }
  /// Number of sets.
  std::size_t count() const { return count_; }

 private:
  std::vector<std::uint32_t> parent_;
  std::size_t count_;
};

}  // namespace

void VnBone::compute_intra(IntraLinks& out) const {
  const IntraKey& key = out.key;
  out.links.clear();
  out.repairs = 0;
  out.bootstraps = 0;
  const auto& members = key.members;
  const std::size_t n = members.size();
  if (n < 2 || key.distances.empty()) return;

  auto dist = [&](std::size_t i, std::size_t j) { return key.distances[i * n + j]; };
  // Member pairs already linked, and the components they form.
  std::vector<bool> linked(n * n);
  UnionFind comps(n);
  auto join = [&](std::size_t i, std::size_t j) {
    linked[i * n + j] = linked[j * n + i] = true;
    comps.unite(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
  };
  auto index_of = [&](std::uint64_t node) {
    const NodeId r{static_cast<std::uint32_t>(node)};
    return static_cast<std::size_t>(
        std::lower_bound(members.begin(), members.end(), r) - members.begin());
  };
  for (const std::uint64_t pair : key.joined) {
    join(index_of(pair >> 32), index_of(pair & 0xFFFFFFFFu));
  }
  auto add = [&](std::size_t i, std::size_t j, Cost cost, VirtualLink::Source source) {
    if (linked[i * n + j]) return;
    join(i, j);
    out.links.push_back(VirtualLink{members[i], members[j], cost, false, source});
  };

  if (!key.discovery) {
    // Footnote-3 fallback: no member enumeration, so no k-closest rule.
    // Each member (in join order) anycasts to find its nearest existing
    // member and tunnels to it — a connected tree by construction.
    // (Members are in NodeId order == join-order model.)
    for (std::size_t i = 1; i < n; ++i) {
      std::size_t nearest = 0;
      for (std::size_t j = 1; j < i; ++j) {
        if (dist(i, j) < dist(i, nearest)) nearest = j;
      }
      if (dist(i, nearest) != net::kInfiniteCost) {
        add(i, nearest, dist(i, nearest), VirtualLink::Source::kAnycastBootstrap);
        ++out.bootstraps;
      }
    }
    return;
  }

  std::vector<std::pair<Cost, std::size_t>> ranked;
  for (std::size_t i = 0; i < n; ++i) {
    // Rank other members by (distance, id); take the k nearest.
    ranked.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i && dist(i, j) != net::kInfiniteCost) ranked.push_back({dist(i, j), j});
    }
    std::sort(ranked.begin(), ranked.end());
    const std::size_t k = std::min<std::size_t>(config_.k_neighbors, ranked.size());
    for (std::size_t t = 0; t < k; ++t) {
      add(i, ranked[t].second, ranked[t].first, VirtualLink::Source::kIntraK);
    }
  }

  // Partition detection & repair: "such [partitions] can be easily
  // detected and repaired because every router has complete knowledge of
  // all other IPvN routers" (§3.3.1). Greedily connect components with
  // the cheapest member pair (a, b), a's component ordered before b's;
  // pairs are visited in (a, b) order, so the first cheapest one wins.
  std::vector<std::uint32_t> root(n);
  while (comps.count() > 1) {
    for (std::size_t i = 0; i < n; ++i) {
      root[i] = comps.find(static_cast<std::uint32_t>(i));
    }
    std::optional<std::pair<std::size_t, std::size_t>> best;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (root[i] >= root[j]) continue;
        if (!best || dist(i, j) < dist(best->first, best->second)) best = {i, j};
      }
    }
    const Cost cost = best ? dist(best->first, best->second) : net::kInfiniteCost;
    if (cost == net::kInfiniteCost) break;  // physically split
    add(best->first, best->second, cost, VirtualLink::Source::kPartitionRepair);
    ++out.repairs;
  }
}

void VnBone::rebuild() {
  obs::SpanId span;
  if (recorder_ != nullptr) {
    span = recorder_->open_span(obs::Domain::kVnBone, "vnbone.rebuild",
                                deployed_count_);
  }
  std::vector<VirtualLink> previous = std::move(links_);
  links_.clear();
  links_.reserve(previous.size());
  partition_repairs_ = 0;
  bootstrap_tunnels_ = 0;
  if (deployed_count_ != 0) build_links();
  // The trees are a function of the links alone: an equal list keeps them.
  if (links_ != previous) {
    graph_.reset();
    trees_.clear();
  }
  if (recorder_ != nullptr) {
    recorder_->close_span(span, links_.size(),
                          (std::uint64_t{partition_repairs_} << 32) |
                              static_cast<std::uint32_t>(bootstrap_tunnels_));
  }
}

void VnBone::build_links() {
  const auto& topo = network_.topology();
  const auto& domains = deployed_domains();
  std::optional<Graph> physical;
  auto physical_graph = [&]() -> const Graph& {
    if (!physical) physical = topo.physical_graph();
    return *physical;
  };

  // ---- operator-configured (manual) tunnels -----------------------------
  // Added first: explicit configuration takes precedence over (and is not
  // absorbed by) the automatic rules.
  std::vector<std::uint64_t> manual;  // their pair keys, sorted
  for (const auto& [a, b] : manual_tunnels_) {
    if (!active(a) || !active(b)) continue;  // dormant until both deploy & up
    const auto paths = net::dijkstra(physical_graph(), a);
    if (!paths.reachable(b)) continue;
    const bool interdomain = topo.router(a).domain != topo.router(b).domain;
    links_.push_back(VirtualLink{a, b, paths.distance_to(b), interdomain,
                                 VirtualLink::Source::kManual});
    manual.push_back(pair_key(a, b));
  }
  auto is_manual = [&](NodeId a, NodeId b) {
    return std::binary_search(manual.begin(), manual.end(), pair_key(a, b));
  };

  // ---- per domain: active members, congruent links, intra-domain links --
  // A domain's intra-domain links are recomputed only when their inputs
  // (IntraKey) moved since the last rebuild.
  if (intra_.size() < topo.domain_count()) intra_.resize(topo.domain_count());
  std::vector<net::LinkId> congruent;
  IntraKey next;  // swapped into an entry whose key moved, so buffers are reused
  for (const DomainId domain : domains) {
    next.members.clear();
    for (const NodeId r : deployed_routers_in(domain)) {
      if (topo.router(r).up) next.members.push_back(r);
    }
    next.joined.clear();
    for (const auto& l : links_) {  // the manual links
      if (!l.interdomain && topo.router(l.a).domain == domain) {
        next.joined.push_back(pair_key(l.a, l.b));
      }
    }
    // Congruence evolution adopts the physical links between members.
    for (const NodeId r : next.members) {
      if (!config_.congruent_evolution) break;
      for (const net::LinkId id : topo.router(r).links) {
        const auto& link = topo.link(id);
        if (link.a != r || link.interdomain || !topo.link_usable(id) ||
            !active(link.b)) {
          continue;
        }
        congruent.push_back(id);
        next.joined.push_back(pair_key(link.a, link.b));
      }
    }
    igp::Igp* igp = igp_of_(domain);
    next.discovery = !config_.respect_discovery_limits ||
                     (igp != nullptr && igp->supports_member_discovery());
    const std::size_t n = next.members.size();
    next.distances.assign(igp != nullptr && n >= 2 ? n * n : 0, 0);
    for (std::size_t i = 0; i < n && !next.distances.empty(); ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) {
          next.distances[i * n + j] = igp->distance(next.members[i], next.members[j]);
        }
      }
    }
    auto& entry = intra_[domain.value()];
    if (!(entry.key == next)) {
      std::swap(entry.key, next);
      compute_intra(entry);
    }
    partition_repairs_ += entry.repairs;
    bootstrap_tunnels_ += entry.bootstraps;
  }
  static const std::vector<NodeId> kNone;
  auto members_of = [&](DomainId domain) -> const std::vector<NodeId>& {
    return domain_deployed(domain) ? intra_[domain.value()].key.members : kNone;
  };

  // Congruent links in link-id order; a pair a manual link or a parallel
  // link of lower id already joins is skipped.
  std::sort(congruent.begin(), congruent.end());
  for (const net::LinkId id : congruent) {
    const auto& link = topo.link(id);
    const auto& incident = topo.router(link.a).links;
    if (is_manual(link.a, link.b) ||
        std::any_of(incident.begin(), incident.end(), [&](net::LinkId other) {
          return other < id && topo.link(other).other_end(link.a) == link.b &&
                 topo.link_usable(other);
        })) {
      continue;
    }
    links_.push_back(VirtualLink{link.a, link.b, link.cost, false,
                                 VirtualLink::Source::kCongruent});
  }

  // ---- intra-domain: k closest neighbors, then partition repair --------
  for (const DomainId domain : domains) {
    const auto& links = intra_[domain.value()].links;
    links_.insert(links_.end(), links.begin(), links.end());
  }

  // ---- inter-domain: tunnels along peerings ------------------------------
  for (const DomainId da : domains) {
    // Two tunnels can only share endpoints when they join the same two
    // domains, so a duplicate is looked for among da's tunnels alone.
    const std::size_t first = links_.size();
    for (const auto& peering : topo.domain(da).peerings) {
      const DomainId db = peering.neighbor;
      if (da >= db) continue;  // each pair once (peerings are symmetric)
      if (members_of(db).empty()) continue;
      const auto& link = topo.link(peering.link);
      if (!topo.link_usable(peering.link)) continue;
      // Tunnel endpoints: each side's IPvN router closest (by IGP) to its
      // end of the physical peering link.
      const NodeId end_a =
          topo.router(link.a).domain == da ? link.a : link.b;
      const NodeId end_b = link.other_end(end_a);
      auto closest_member = [&](DomainId domain, NodeId to) {
        igp::Igp* igp = igp_of_(domain);
        NodeId best = NodeId::invalid();
        Cost best_d = net::kInfiniteCost;
        for (const NodeId m : members_of(domain)) {
          const Cost d =
              (m == to) ? 0 : (igp ? igp->distance(m, to) : net::kInfiniteCost);
          if (d < best_d || (d == best_d && m < best)) {
            best = m;
            best_d = d;
          }
        }
        return std::make_pair(best, best_d);
      };
      const auto [ra, da_cost] = closest_member(da, end_a);
      const auto [rb, db_cost] = closest_member(db, end_b);
      if (!ra.valid() || !rb.valid()) continue;
      if (da_cost == net::kInfiniteCost || db_cost == net::kInfiniteCost) continue;
      if (is_manual(ra, rb) ||
          std::any_of(links_.begin() + static_cast<std::ptrdiff_t>(first), links_.end(),
                      [&](const VirtualLink& l) {
                        return pair_key(l.a, l.b) == pair_key(ra, rb);
                      })) {
        continue;
      }
      links_.push_back(VirtualLink{ra, rb, da_cost + link.cost + db_cost, true,
                                   VirtualLink::Source::kPeeringTunnel});
    }
  }

  // ---- anycast bootstrap: connect stranded components to the default ----
  // "a newly joined ISP could reuse the anycast mechanism as the initial
  // bootstrap"; "every domain [should] ensure that it is connected ... to
  // the 'default' provider of the anycast address" (§3.3.1).
  // The default component holds the default domain's first active router
  // (the default domain always had one: it deployed first).
  const auto& default_members = members_of(default_domain_);
  if (default_members.empty()) return;  // default fully dark: no anchor
  const auto routers = static_cast<std::uint32_t>(deployed_.size());
  UnionFind comps(topo.router_count());
  for (const auto& l : links_) comps.unite(l.a.value(), l.b.value());
  // Routers proven physically unreachable from every other component stay
  // stranded; skipping their whole component keeps the loop repairing
  // everyone else.
  std::vector<bool> hopeless(routers);
  while (true) {
    const std::uint32_t anchor = comps.find(default_members.front().value());
    // Find a stranded active router (lowest id for determinism).
    NodeId stranded = NodeId::invalid();
    for (std::uint32_t r = 0; r < routers; ++r) {
      if (active(NodeId{r}) && !hopeless[r] && comps.find(r) != anchor) {
        stranded = NodeId{r};
        break;
      }
    }
    if (!stranded.valid()) break;

    // Bootstrap: the stranded router reaches the nearest *foreign-
    // component* IPvN router through the anycast mechanism (modeled as the
    // closest member by unicast distance — valid because the stranded ISP
    // is not yet advertising the anycast route itself, per the paper's
    // footnote).
    const std::uint32_t home = comps.find(stranded.value());
    const auto paths = net::dijkstra(physical_graph(), stranded);
    NodeId target = NodeId::invalid();
    Cost target_d = net::kInfiniteCost;
    for (std::uint32_t m = 0; m < routers; ++m) {
      if (!active(NodeId{m}) || comps.find(m) == home) continue;
      const Cost d = paths.distance_to(NodeId{m});
      if (d < target_d) {  // ascending ids: the lowest wins ties
        target = NodeId{m};
        target_d = d;
      }
    }
    if (!target.valid()) {
      // Physically cut off; no overlay can help. Mark the whole component
      // hopeless and keep repairing the rest.
      for (std::uint32_t r = 0; r < routers; ++r) {
        if (comps.find(r) == home) hopeless[r] = true;
      }
      continue;
    }
    // Different components, so no existing link joins the pair.
    links_.push_back(VirtualLink{stranded, target, target_d, true,
                                 VirtualLink::Source::kAnycastBootstrap});
    comps.unite(stranded.value(), target.value());
    ++bootstrap_tunnels_;
  }
}

std::vector<VirtualLink> VnBone::reference_links() const {
  std::vector<VirtualLink> links;
  if (deployed_count_ == 0) return links;

  const auto& topo = network_.topology();
  const auto& domains = deployed_domains();
  auto graph_of = [&]() {
    Graph g(topo.router_count());
    for (const auto& l : links) g.add_undirected_edge(l.a, l.b, l.underlay_cost);
    return g;
  };

  // Dedup helper: canonical (low, high) pairs already linked.
  std::set<std::pair<std::uint32_t, std::uint32_t>> have;
  auto add_link = [&](NodeId a, NodeId b, Cost cost, bool interdomain,
                      VirtualLink::Source source) {
    const std::uint32_t lo = std::min(a.value(), b.value());
    const std::uint32_t hi = std::max(a.value(), b.value());
    if (!have.insert({lo, hi}).second) return;
    links.push_back(VirtualLink{a, b, cost, interdomain, source});
  };

  for (const auto& [a, b] : manual_tunnels_) {
    if (!active(a) || !active(b)) continue;
    const auto paths = net::dijkstra(topo.physical_graph(), a);
    if (!paths.reachable(b)) continue;
    const bool interdomain = topo.router(a).domain != topo.router(b).domain;
    add_link(a, b, paths.distance_to(b), interdomain, VirtualLink::Source::kManual);
  }

  if (config_.congruent_evolution) {
    for (const auto& link : topo.links()) {
      if (link.interdomain || !topo.link_usable(link.id)) continue;
      if (active(link.a) && active(link.b)) {
        add_link(link.a, link.b, link.cost, false, VirtualLink::Source::kCongruent);
      }
    }
  }

  for (const DomainId domain : domains) {
    const auto members = active_routers_in(domain);
    igp::Igp* igp = igp_of_(domain);
    if (members.size() < 2 || igp == nullptr) continue;
    auto dist = [&](NodeId a, NodeId b) { return igp->distance(a, b); };

    if (config_.respect_discovery_limits && !igp->supports_member_discovery()) {
      for (std::size_t i = 1; i < members.size(); ++i) {
        NodeId nearest = NodeId::invalid();
        Cost nearest_d = net::kInfiniteCost;
        for (std::size_t j = 0; j < i; ++j) {
          const Cost d = dist(members[i], members[j]);
          if (d < nearest_d || (d == nearest_d && members[j] < nearest)) {
            nearest = members[j];
            nearest_d = d;
          }
        }
        if (nearest.valid() && nearest_d != net::kInfiniteCost) {
          add_link(members[i], nearest, nearest_d, false,
                   VirtualLink::Source::kAnycastBootstrap);
        }
      }
      continue;
    }

    for (const NodeId r : members) {
      std::vector<std::pair<Cost, NodeId>> ranked;
      for (const NodeId m : members) {
        if (m == r) continue;
        const Cost d = dist(r, m);
        if (d == net::kInfiniteCost) continue;
        ranked.push_back({d, m});
      }
      std::sort(ranked.begin(), ranked.end());
      const std::size_t k = std::min<std::size_t>(config_.k_neighbors, ranked.size());
      for (std::size_t i = 0; i < k; ++i) {
        add_link(r, ranked[i].second, ranked[i].first, false,
                 VirtualLink::Source::kIntraK);
      }
    }

    while (true) {
      Graph g(topo.router_count());
      for (const auto& l : links) {
        if (!l.interdomain && topo.router(l.a).domain == domain) {
          g.add_undirected_edge(l.a, l.b, l.underlay_cost);
        }
      }
      const auto comps = net::connected_components(g);
      std::set<std::uint32_t> labels;
      for (const NodeId m : members) labels.insert(comps.label[m.value()]);
      if (labels.size() <= 1) break;

      Cost best_cost = net::kInfiniteCost;
      NodeId best_a = NodeId::invalid();
      NodeId best_b = NodeId::invalid();
      for (const NodeId a : members) {
        for (const NodeId b : members) {
          if (comps.label[a.value()] >= comps.label[b.value()]) continue;
          const Cost d = dist(a, b);
          if (d < best_cost ||
              (d == best_cost && (a < best_a || (a == best_a && b < best_b)))) {
            best_cost = d;
            best_a = a;
            best_b = b;
          }
        }
      }
      if (!best_a.valid() || best_cost == net::kInfiniteCost) break;
      add_link(best_a, best_b, best_cost, false, VirtualLink::Source::kPartitionRepair);
    }
  }

  for (const DomainId da : domains) {
    for (const auto& peering : topo.domain(da).peerings) {
      const DomainId db = peering.neighbor;
      if (da >= db) continue;
      if (!domain_active(db)) continue;
      const auto& link = topo.link(peering.link);
      if (!topo.link_usable(peering.link)) continue;
      const NodeId end_a = topo.router(link.a).domain == da ? link.a : link.b;
      const NodeId end_b = link.other_end(end_a);
      auto closest_member = [&](DomainId domain, NodeId to) {
        igp::Igp* igp = igp_of_(domain);
        NodeId best = NodeId::invalid();
        Cost best_d = net::kInfiniteCost;
        for (const NodeId m : active_routers_in(domain)) {
          const Cost d =
              (m == to) ? 0 : (igp ? igp->distance(m, to) : net::kInfiniteCost);
          if (d < best_d || (d == best_d && m < best)) {
            best = m;
            best_d = d;
          }
        }
        return std::make_pair(best, best_d);
      };
      const auto [ra, da_cost] = closest_member(da, end_a);
      const auto [rb, db_cost] = closest_member(db, end_b);
      if (!ra.valid() || !rb.valid()) continue;
      if (da_cost == net::kInfiniteCost || db_cost == net::kInfiniteCost) continue;
      add_link(ra, rb, da_cost + link.cost + db_cost, true,
               VirtualLink::Source::kPeeringTunnel);
    }
  }

  const net::Graph physical = topo.physical_graph();
  const auto active = active_routers();
  std::set<NodeId> hopeless;
  while (true) {
    const auto comps = net::connected_components(graph_of());
    const auto default_members = active_routers_in(default_domain_);
    if (default_members.empty()) break;
    const std::uint32_t anchor = comps.label[default_members.front().value()];

    NodeId stranded = NodeId::invalid();
    for (const NodeId r : active) {
      if (comps.label[r.value()] != anchor && !hopeless.contains(r)) {
        stranded = r;
        break;
      }
    }
    if (!stranded.valid()) break;

    const auto paths = net::dijkstra(physical, stranded);
    NodeId target = NodeId::invalid();
    Cost target_d = net::kInfiniteCost;
    for (const NodeId m : active) {
      if (comps.label[m.value()] == comps.label[stranded.value()]) continue;
      const Cost d = paths.distance_to(m);
      if (d < target_d || (d == target_d && m < target)) {
        target = m;
        target_d = d;
      }
    }
    if (!target.valid() || target_d == net::kInfiniteCost) {
      for (const NodeId r : active) {
        if (comps.label[r.value()] == comps.label[stranded.value()]) {
          hopeless.insert(r);
        }
      }
      continue;
    }
    add_link(stranded, target, target_d, true, VirtualLink::Source::kAnycastBootstrap);
  }
  return links;
}

void VnBone::register_endhost_route(IpvNAddr self_addr, NodeId advertiser) {
  assert(self_addr.is_self_address());
  endhost_routes_[self_addr] = advertiser;
}

void VnBone::unregister_endhost_route(IpvNAddr self_addr) {
  endhost_routes_.erase(self_addr);
}

std::optional<NodeId> VnBone::endhost_route(IpvNAddr self_addr) const {
  const auto it = endhost_routes_.find(self_addr);
  if (it == endhost_routes_.end()) return std::nullopt;
  return it->second;
}

Graph VnBone::virtual_graph() const {
  Graph g(network_.topology().router_count());
  for (const auto& l : links_) {
    g.add_undirected_edge(l.a, l.b, l.underlay_cost);
  }
  return g;
}

VnBone::LegacyReach VnBone::scan_legacy(DomainId domain, DomainId target) const {
  if (domain == target) return {0, NodeId::invalid()};
  LegacyReach reach;
  if (bgp_ == nullptr) return reach;
  const Prefix prefix = net::Topology::domain_prefix(target);
  for (const NodeId b : bgp_->speakers_of(domain)) {
    const bgp::Route* route = bgp_->best_route(b, prefix);
    if (route != nullptr && route->as_path.size() < reach.length) {
      reach = {route->as_path.size(), b};
    }
  }
  return reach;
}

VnBone::LegacyReach VnBone::table_legacy(DomainId domain, DomainId target) const {
  if (bgp_ == nullptr) return scan_legacy(domain, target);
  if (legacy_version_ != bgp_->loc_rib_version()) {
    legacy_.clear();
    legacy_version_ = bgp_->loc_rib_version();
  }
  // Only deployed domains advertise, so most rows are never allocated.
  const std::size_t n = network_.topology().domain_count();
  if (legacy_.size() != n) legacy_.resize(n);
  auto& row = legacy_[domain.value()];
  if (row.size() != n) row.assign(n, std::nullopt);
  auto& entry = row[target.value()];
  if (!entry) entry = scan_legacy(domain, target);
  return *entry;
}

Cost VnBone::legacy_path_length(DomainId domain, DomainId target) const {
  return scan_legacy(domain, target).length;
}

std::vector<DomainId> VnBone::legacy_path(DomainId domain, DomainId target) const {
  const LegacyReach reach = scan_legacy(domain, target);
  if (!reach.border.valid()) return {};
  const auto& path =
      bgp_->best_route(reach.border, net::Topology::domain_prefix(target))->as_path;
  return {path.begin(), path.end()};
}

const net::ShortestPaths& VnBone::tree_from(NodeId ingress) const {
  if (!graph_ || graph_->size() != network_.topology().router_count()) {
    graph_ = virtual_graph();
    trees_.assign(graph_->size(), std::nullopt);
  }
  auto& tree = trees_[ingress.value()];
  if (!tree) {
    tree = net::dijkstra(*graph_, ingress);
    ++tree_builds_;
  }
  return *tree;
}

VnBone::VnRoute VnBone::route(NodeId ingress, IpvNAddr dst,
                              std::optional<EgressMode> mode) const {
  if (!active(ingress)) return {};
  return select_route(ingress, dst, mode.value_or(config_.egress_mode),
                      tree_from(ingress), &VnBone::table_legacy);
}

VnBone::VnRoute VnBone::reference_route(NodeId ingress, IpvNAddr dst,
                                        std::optional<EgressMode> mode) const {
  if (!active(ingress)) return {};
  return select_route(ingress, dst, mode.value_or(config_.egress_mode),
                      net::dijkstra(virtual_graph(), ingress), &VnBone::scan_legacy);
}

VnBone::VnRoute VnBone::select_route(NodeId ingress, IpvNAddr dst, EgressMode mode,
                                     const net::ShortestPaths& paths,
                                     LegacyFn reach_of) const {
  VnRoute result;
  const auto& topo = network_.topology();

  auto finish_at = [&](NodeId egress, bool legacy) {
    if (egress != ingress && !paths.reachable(egress)) return;
    result.ok = true;
    result.egress = egress;
    result.exits_to_legacy = legacy;
    if (egress == ingress) {
      result.vn_hops = {ingress};
      result.vn_cost = 0;
    } else {
      result.vn_hops = paths.path_to(egress);
      result.vn_cost = paths.distance_to(egress);
    }
  };

  if (!dst.is_self_address()) {
    // Native destination: its home domain "advertises this address into
    // the IPvN-Bone routing topology". If the access router is itself
    // IPvN, it is the egress and delivery is fully native; under partial
    // intra-domain deployment (A1) the egress is the home domain's
    // IGP-closest IPvN router, and the final stretch rides IPv(N-1).
    const NodeId home{dst.native_node()};
    const DomainId home_domain{dst.native_domain()};
    if (home.value() >= topo.router_count() ||
        home_domain.value() >= topo.domain_count()) {
      return result;
    }
    if (active(home)) {
      finish_at(home, /*legacy=*/false);
      return result;
    }
    igp::Igp* igp = igp_of_(home_domain);
    NodeId egress = NodeId::invalid();
    Cost egress_d = net::kInfiniteCost;
    for (const NodeId r : deployed_routers_in(home_domain)) {
      if (!topo.router(r).up) continue;
      const Cost d = igp ? igp->distance(r, home) : net::kInfiniteCost;
      if (d < egress_d || (d == egress_d && r < egress)) {
        egress = r;
        egress_d = d;
      }
    }
    if (egress.valid() && egress_d != net::kInfiniteCost) {
      finish_at(egress, /*legacy=*/true);
    }
    return result;
  }

  // Self-addressed destination in a (possibly) legacy domain.
  const Ipv4Addr legacy_dst = dst.embedded_v4();
  const auto target_domain = topo.domain_of_address(legacy_dst);
  if (!target_domain) return result;

  switch (mode) {
    case EgressMode::kExitAtIngress: {
      finish_at(ingress, /*legacy=*/true);
      return result;
    }
    case EgressMode::kOwnPathKnowledge: {
      // Walk my own BGPv(N-1) path to the target; ride the vN-Bone to the
      // deployed domain furthest along it (Figure 3).
      const DomainId my_domain = topo.router(ingress).domain;
      if (*target_domain == my_domain) {
        finish_at(ingress, /*legacy=*/true);
        return result;
      }
      const LegacyReach reach = (this->*reach_of)(my_domain, *target_domain);
      DomainId chosen = DomainId::invalid();
      if (reach.border.valid()) {
        const auto& path =
            bgp_->best_route(reach.border, net::Topology::domain_prefix(*target_domain))
                ->as_path;
        // Nearest the target first.
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          if (domain_active(*it)) {
            chosen = *it;
            break;
          }
        }
      }
      if (!chosen.valid()) {
        finish_at(ingress, /*legacy=*/true);
        return result;
      }
      // Within the chosen domain, use the vN-closest deployed router.
      NodeId egress = NodeId::invalid();
      Cost egress_d = net::kInfiniteCost;
      for (const NodeId r : deployed_routers_in(chosen)) {
        if (!topo.router(r).up) continue;
        const Cost d = (r == ingress) ? 0 : paths.distance_to(r);
        if (d < egress_d || (d == egress_d && r < egress)) {
          egress = r;
          egress_d = d;
        }
      }
      if (!egress.valid() || egress_d == net::kInfiniteCost) {
        finish_at(ingress, /*legacy=*/true);
      } else {
        finish_at(egress, /*legacy=*/true);
      }
      return result;
    }
    case EgressMode::kEndhostAdvertised: {
      // The destination must have registered; the route is only as alive
      // as its advertising router (fate-sharing).
      const auto advertiser = endhost_route(dst);
      if (!advertiser || !active(*advertiser)) return result;  // no route
      finish_at(*advertiser, /*legacy=*/true);
      return result;
    }
    case EgressMode::kProxyAdvertising: {
      // Every deployed domain advertises its BGPv(N-1) distance to the
      // target into BGPvN (Figure 4); pick the globally cheapest
      // (vN underlay + weighted AS hops) egress.
      NodeId egress = NodeId::invalid();
      Cost best_score = net::kInfiniteCost;
      for (const DomainId d : deployed_domains()) {
        const Cost legacy_len = (this->*reach_of)(d, *target_domain).length;
        if (legacy_len == net::kInfiniteCost) continue;
        for (const NodeId r : deployed_routers_in(d)) {
          if (!topo.router(r).up) continue;
          const Cost vn_d = (r == ingress) ? 0 : paths.distance_to(r);
          if (vn_d == net::kInfiniteCost) continue;
          const Cost score = vn_d + config_.as_hop_weight * legacy_len;
          if (score < best_score || (score == best_score && r < egress)) {
            egress = r;
            best_score = score;
          }
        }
      }
      if (!egress.valid()) {
        finish_at(ingress, /*legacy=*/true);
      } else {
        finish_at(egress, /*legacy=*/true);
      }
      return result;
    }
  }
  return result;
}

std::size_t VnBone::vn_rib_size(NodeId router) const {
  if (!deployed(router)) return 0;
  const auto& domains = deployed_domains();
  std::size_t size = domains.size();  // native vN prefixes
  if (config_.egress_mode == EgressMode::kProxyAdvertising && bgp_ != nullptr) {
    // One proxy entry per (deployed domain, reachable legacy domain).
    for (const DomainId d : domains) {
      for (const auto& target : network_.topology().domains()) {
        if (domain_deployed(target.id)) continue;
        if (table_legacy(d, target.id).length != net::kInfiniteCost) ++size;
      }
    }
  }
  return size;
}

}  // namespace evo::vnbone
