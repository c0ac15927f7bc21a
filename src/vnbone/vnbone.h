// The vN-Bone: the virtual IPvN network overlaid on the IPv(N-1) Internet
// (paper §3.3).
//
// Deployment is per-router (assumption A1 allows partial deployment even
// within an ISP). Every deployed router joins the deployment's anycast
// group, so encapsulated IPvN packets reach the vN-Bone from anywhere
// (universal access). The virtual topology is built per the paper:
//
//   intra-domain:  every IPvN router picks its k closest IPvN routers
//                  (IGP distance) as vN-Bone neighbors; partitions are
//                  detected and repaired using the members' complete view;
//   inter-domain:  tunnels follow peering policy (one per peering between
//                  deployed domains); a newly joined ISP with no deployed
//                  neighbor bootstraps through the anycast mechanism; and
//                  every component must stay connected to the *default*
//                  provider of the anycast address.
//
// Routing over the vN-Bone distinguishes (§3.3.2):
//   native destinations — routed on the IPvN address to the home domain;
//   self-addressed destinations — an egress IPvN router is selected using
//     imported BGPv(N-1) knowledge (Fig. 3) or advertising-by-proxy
//     (Fig. 4); the packet then exits the vN-Bone and travels natively.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "anycast/anycast.h"
#include "bgp/bgp.h"
#include "igp/igp.h"
#include "net/graph.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace evo::vnbone {

/// How an egress router is chosen for self-addressed (legacy-domain)
/// destinations — the three §3.3.2 strategies, in increasing capability.
enum class EgressMode : std::uint8_t {
  /// "Just exit the vN-Bone and forward the packet directly to the
  /// destination's IPv(N-1) address" at the first IPvN router.
  kExitAtIngress,
  /// Figure 3: the ingress uses its own domain's BGPv(N-1) path to the
  /// destination and rides the vN-Bone to the deployed domain furthest
  /// along that path.
  kOwnPathKnowledge,
  /// Figure 4: IPvN border routers advertise their BGPv(N-1) distance to
  /// legacy domains into BGPvN; the ingress picks the globally best
  /// (vN distance + advertised legacy distance) egress.
  kProxyAdvertising,
  /// §3.3.2's rejected-but-appealing alternative: "have the IPvN client
  /// use anycast to locate a closeby IPvN router and have that router
  /// advertise the client's temporary IPvN address." Gives the best
  /// possible egress (a router near the destination) at the price of
  /// per-host routing state and fate-sharing between the endhost and its
  /// advertising router.
  kEndhostAdvertised,
};

const char* to_string(EgressMode mode);

struct VnBoneConfig {
  /// The IP version being deployed (e.g. 8 for the paper's "IPv8").
  std::uint8_t version = 8;
  /// Intra-domain virtual degree: each router's k closest IPvN routers.
  std::uint32_t k_neighbors = 2;
  EgressMode egress_mode = EgressMode::kProxyAdvertising;
  /// §3.3.1: "as deployment spreads, the vN-Bone topology should evolve
  /// to be congruent with the underlying physical topology." When set,
  /// every physical intra-domain link whose both endpoints are deployed
  /// becomes a virtual link, so at full deployment the bone *is* the
  /// physical topology (no overlay stretch).
  bool congruent_evolution = true;
  /// Honor IGP capability limits (paper footnotes 2-3): in a domain whose
  /// IGP cannot enumerate anycast members (plain distance-vector), the
  /// k-closest rule is unavailable — construction falls back to "explicit
  /// neighbor discovery leveraging anycast for the initial bootstrap":
  /// each member tunnels to the member the anycast mechanism finds for
  /// it, yielding a join-order tree (plus congruent links, which need only
  /// local knowledge). Set false to grant every IGP full discovery.
  bool respect_discovery_limits = true;
  /// Control-plane weight of one BGPv(N-1) AS hop when comparing egress
  /// candidates against vN-Bone underlay costs (proxy advertising only).
  net::Cost as_hop_weight = 5;
  /// Anycast deployment option for the group serving this vN-Bone.
  anycast::InterDomainMode anycast_mode = anycast::InterDomainMode::kDefaultRoute;
};

struct VirtualLink {
  enum class Source : std::uint8_t {
    kIntraK,           // k-closest neighbor rule
    kPartitionRepair,  // added to reconnect an intra-domain partition
    kPeeringTunnel,    // inter-domain tunnel along a peering
    kAnycastBootstrap, // inter-domain tunnel found via anycast bootstrap
    kManual,           // operator-configured (MBone-style) tunnel
    kCongruent,        // physical link whose both ends deployed (§3.3.1
                       // congruence evolution)
  };
  net::NodeId a;
  net::NodeId b;
  net::Cost underlay_cost = 0;
  bool interdomain = false;
  Source source = Source::kIntraK;

  friend bool operator==(const VirtualLink&, const VirtualLink&) = default;
};

const char* to_string(VirtualLink::Source source);

class VnBone {
 public:
  /// `bgp` may be null only for single-domain setups. All references must
  /// outlive this object.
  VnBone(net::Network& network, bgp::BgpSystem* bgp,
         std::function<igp::Igp*(net::DomainId)> igp_of,
         anycast::AnycastService& anycast_service, VnBoneConfig config = {});

  const VnBoneConfig& config() const { return config_; }

  /// The anycast group assigned to this deployment; invalid until the
  /// first router deploys.
  net::GroupId anycast_group() const { return group_; }
  net::Ipv4Addr anycast_address() const;

  /// The default provider — the first ISP to deploy (owns the anycast
  /// address under option 2). Invalid before any deployment.
  net::DomainId default_domain() const { return default_domain_; }

  // --- deployment ---------------------------------------------------------
  void deploy_router(net::NodeId router);
  void undeploy_router(net::NodeId router);
  /// Deploy every router of `domain`.
  void deploy_domain(net::DomainId domain);

  bool deployed(net::NodeId router) const {
    return router.value() < deployed_.size() && deployed_[router.value()];
  }
  bool domain_deployed(net::DomainId domain) const {
    return !deployed_routers_in(domain).empty();
  }
  /// Every deployed router, sorted by NodeId.
  std::vector<net::NodeId> deployed_routers() const;
  /// `domain`'s deployed routers, sorted by NodeId.
  const std::vector<net::NodeId>& deployed_routers_in(net::DomainId domain) const;
  /// Domains with at least one deployed router, sorted.
  const std::vector<net::DomainId>& deployed_domains() const { return domains_; }

  /// The routers actually participating in the bone right now: deployed
  /// AND up. Const inspection point for invariant oracles (the fuzzer's
  /// vN-Bone connectivity check compares these against virtual_graph()).
  std::vector<net::NodeId> active_members() const { return active_routers(); }

  // --- virtual topology ----------------------------------------------------
  /// Rebuild the virtual topology from the (converged) substrate. Call
  /// after deployment changes and after the simulator reaches quiescence.
  ///
  /// The work follows what changed. A domain's intra-domain links (k
  /// closest, partition repairs, the bootstrap tree of a plain-DV domain)
  /// are kept from the last rebuild while their inputs are equal: the
  /// domain's active members, the IGP distances between them, whether its
  /// IGP supports member discovery, and the member pairs its manual and
  /// congruent links already join. The cache compares these itself, so a
  /// caller needs no notification. When the rebuilt link list equals the
  /// old one, the vN routing trees (see route()) are kept too.
  void rebuild();

  /// The virtual links rebuild() would produce from scratch, with no
  /// cache: the vnbone-fixpoint oracle compares them to virtual_links().
  std::vector<VirtualLink> reference_links() const;

  /// MBone-style manual configuration (§3.3: "many ISPs might, as in the
  /// past, simply choose to configure their networks by hand"): a
  /// persistent operator-configured tunnel, re-applied on every rebuild
  /// while both ends remain deployed. Underlay cost follows the physical
  /// topology.
  void add_manual_tunnel(net::NodeId a, net::NodeId b);
  void remove_manual_tunnel(net::NodeId a, net::NodeId b);
  std::size_t manual_tunnel_count() const { return manual_tunnels_.size(); }

  const std::vector<VirtualLink>& virtual_links() const { return links_; }
  /// Weighted graph over router NodeIds (only deployed routers have
  /// edges).
  net::Graph virtual_graph() const;

  /// Diagnostics from the last rebuild().
  std::size_t partition_repairs() const { return partition_repairs_; }
  std::size_t bootstrap_tunnels() const { return bootstrap_tunnels_; }
  /// Per-ingress routing trees built by route() so far.
  std::size_t tree_builds() const { return tree_builds_; }

  /// Telemetry sink: rebuild() episodes become spans carrying link and
  /// repair counts. Null by default.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  // --- vN routing -----------------------------------------------------------
  struct VnRoute {
    bool ok = false;
    /// Virtual hops, ingress first, egress last.
    std::vector<net::NodeId> vn_hops;
    /// Sum of tunnel underlay costs along vn_hops.
    net::Cost vn_cost = 0;
    net::NodeId egress;
    /// True when the packet exits the vN-Bone at the egress and continues
    /// natively over IPv(N-1) to a legacy destination.
    bool exits_to_legacy = false;

    std::size_t vn_hop_count() const {
      return vn_hops.empty() ? 0 : vn_hops.size() - 1;
    }

    friend bool operator==(const VnRoute&, const VnRoute&) = default;
  };

  /// Route an IPvN packet from `ingress` (a deployed router) toward `dst`
  /// under `mode`; the config's mode is used when `mode` is nullopt.
  ///
  /// Routing reads the vN routing state an IPvN router holds, kept in
  /// tables filled on first use, each cleared by the one input it derives
  /// from:
  ///   - the shortest-path tree from each ingress over the virtual links
  ///     (cleared by a rebuild() that changes the links, the only thing
  ///     that does; a rebuild that yields an equal link list keeps them);
  ///   - the proxy-distance table: per (domain, target domain), the
  ///     BGPv(N-1) path length and the border router holding that route
  ///     (cleared when BgpSystem::loc_rib_version() moves);
  ///   - the deployed routers of each domain (kept by deploy_router and
  ///     undeploy_router).
  /// Whether a router is up and IGP distances are read live on every
  /// call, so routes taken during a failure, before the next rebuild,
  /// see crashed members at once. The tables are filled from const calls,
  /// so a VnBone must not be routed from by two threads at once; parallel
  /// sweeps give each cell its own internet.
  VnRoute route(net::NodeId ingress, net::IpvNAddr dst,
                std::optional<EgressMode> mode = std::nullopt) const;

  /// route() computed without the tables: a fresh Dijkstra over
  /// virtual_graph() and direct legacy_path_length() scans. Same egress
  /// selection; the vn-route-fixpoint oracle compares the two.
  VnRoute reference_route(net::NodeId ingress, net::IpvNAddr dst,
                          std::optional<EgressMode> mode = std::nullopt) const;

  /// BGPv(N-1) AS-path length from `domain` to `target` (min over the
  /// domain's border routers); kInfiniteCost when unknown. This is the
  /// information an IPvN border router "acquires from its domain's
  /// IPv(N-1) border router" (Fig. 3) and advertises by proxy (Fig. 4).
  /// Read from the Loc-RIBs on every call.
  net::Cost legacy_path_length(net::DomainId domain, net::DomainId target) const;

  /// The BGPv(N-1) AS path from `domain` to `target` (shortest among the
  /// domain's borders); empty when unknown.
  std::vector<net::DomainId> legacy_path(net::DomainId domain,
                                         net::DomainId target) const;

  // --- endhost route advertisement (§3.3.2 alternative) -------------------
  /// Register `self_addr` as advertised into BGPvN by `advertiser` (found
  /// by the endhost through anycast). Re-registering replaces the entry.
  void register_endhost_route(net::IpvNAddr self_addr, net::NodeId advertiser);
  void unregister_endhost_route(net::IpvNAddr self_addr);
  /// The advertiser currently serving `self_addr`'s route, if any — the
  /// route fate-shares with it: a dead/undeployed advertiser means no
  /// route until the endhost re-registers.
  std::optional<net::NodeId> endhost_route(net::IpvNAddr self_addr) const;
  std::size_t endhost_route_count() const { return endhost_routes_.size(); }

  /// Modeled BGPvN RIB size at a deployed router: one entry per deployed
  /// domain (native prefixes) plus, under proxy advertising, one entry per
  /// (advertising domain, legacy domain) pair.
  std::size_t vn_rib_size(net::NodeId router) const;

 private:
  /// A domain's BGPv(N-1) reach toward a target domain: the shortest AS
  /// path length over its border routers and the first border (in NodeId
  /// order) holding a route that short. The border is invalid when the
  /// domain is the target or has no route.
  struct LegacyReach {
    net::Cost length = net::kInfiniteCost;
    net::NodeId border;
  };
  /// Read from the Loc-RIBs.
  LegacyReach scan_legacy(net::DomainId domain, net::DomainId target) const;
  /// Read from the proxy-distance table, filling the entry on first use.
  LegacyReach table_legacy(net::DomainId domain, net::DomainId target) const;
  using LegacyFn = LegacyReach (VnBone::*)(net::DomainId, net::DomainId) const;

  /// The shortest-path tree from `ingress` over the virtual links, built
  /// on first use after a rebuild() that changed the links.
  const net::ShortestPaths& tree_from(net::NodeId ingress) const;

  /// The egress selection behind route() and reference_route(), given the
  /// tree from an active `ingress` and a source of legacy reach.
  VnRoute select_route(net::NodeId ingress, net::IpvNAddr dst, EgressMode mode,
                       const net::ShortestPaths& paths, LegacyFn reach_of) const;

  /// The inputs of one domain's intra-domain links (see rebuild()).
  struct IntraKey {
    std::vector<net::NodeId> members;  // active, sorted
    /// IGP distances, members x members, row-major; empty without an IGP.
    std::vector<net::Cost> distances;
    std::vector<std::uint64_t> joined;  // pair keys of manual and congruent links
    bool discovery = true;              // the k-closest rule is available

    friend bool operator==(const IntraKey&, const IntraKey&) = default;
  };
  /// A domain's intra-domain links as computed from `key`. A
  /// default-constructed entry is consistent: its key yields no links.
  struct IntraLinks {
    IntraKey key;
    std::vector<VirtualLink> links;
    std::size_t repairs = 0;
    std::size_t bootstraps = 0;
  };
  /// Fills `out.links` and its counters from `out.key` alone.
  void compute_intra(IntraLinks& out) const;
  /// rebuild()'s body on a non-empty deployment: fills links_ and the
  /// diagnostics.
  void build_links();

  void ensure_group(net::DomainId first_domain);
  igp::Igp* igp_for_node(net::NodeId node) const;

  /// A router participates in the vN-Bone only while deployed AND up: a
  /// crashed member drops out of the virtual topology (and of egress
  /// selection) until it recovers. Deployment itself is configuration and
  /// survives the crash.
  bool active(net::NodeId router) const;
  bool domain_active(net::DomainId domain) const;
  std::vector<net::NodeId> active_routers() const;
  std::vector<net::NodeId> active_routers_in(net::DomainId domain) const;

  net::Network& network_;
  bgp::BgpSystem* bgp_;
  std::function<igp::Igp*(net::DomainId)> igp_of_;
  anycast::AnycastService& anycast_;
  obs::Recorder* recorder_ = nullptr;
  VnBoneConfig config_;

  net::GroupId group_ = net::GroupId::invalid();
  net::DomainId default_domain_ = net::DomainId::invalid();
  std::vector<bool> deployed_;                     // by NodeId value
  std::size_t deployed_count_ = 0;
  std::vector<std::vector<net::NodeId>> members_;  // deployed, by DomainId value
  std::vector<net::DomainId> domains_;             // deployed domains, sorted
  std::set<std::pair<net::NodeId, net::NodeId>> manual_tunnels_;  // (low, high)
  std::map<net::IpvNAddr, net::NodeId> endhost_routes_;
  std::vector<VirtualLink> links_;
  std::size_t partition_repairs_ = 0;
  std::size_t bootstrap_tunnels_ = 0;
  std::vector<IntraLinks> intra_;  // by DomainId value

  // vN routing tables (see route()).
  mutable std::optional<net::Graph> graph_;
  mutable std::vector<std::optional<net::ShortestPaths>> trees_;  // by NodeId value
  mutable std::size_t tree_builds_ = 0;
  // Proxy-distance table, [domain][target]; rows allocated on first use.
  mutable std::vector<std::vector<std::optional<LegacyReach>>> legacy_;
  mutable std::uint64_t legacy_version_ = 0;
};

}  // namespace evo::vnbone
