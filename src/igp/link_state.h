// Link-state IGP (OSPF-shaped) with the paper's anycast extension.
//
// Every router originates an LSA describing its intra-domain adjacencies,
// its own addresses, and — when it is an anycast member — a high-cost stub
// "link" to each anycast address it terminates. LSAs flood hop-by-hop with
// link latency; each router runs SPF over its link-state database
// (debounced) and installs routes into its FIB.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "igp/igp.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace evo::igp {

struct LinkStateConfig {
  /// Cost of the virtual stub link to an anycast address. "This high cost
  /// is necessary to prevent routers from attempting to route through an
  /// anycast address" (§3.2). It is added symmetrically to every member,
  /// so it never changes which member is closest.
  net::Cost anycast_stub_cost = 1000;
  /// Debounce between an LSDB change and the SPF run it triggers.
  sim::Duration spf_delay = sim::Duration::millis(10);
};

class LinkStateIgp final : public Igp {
 public:
  /// `network` and `simulator` must outlive this object.
  LinkStateIgp(sim::Simulator& simulator, net::Network& network,
               net::DomainId domain, LinkStateConfig config = {});

  net::DomainId domain() const override { return domain_; }
  void start() override;
  void add_anycast_member(net::NodeId router, net::Ipv4Addr anycast) override;
  void remove_anycast_member(net::NodeId router, net::Ipv4Addr anycast) override;
  bool supports_member_discovery() const override { return true; }
  std::vector<net::NodeId> discovered_members(net::NodeId viewpoint,
                                              net::Ipv4Addr anycast) const override;
  net::Cost distance(net::NodeId from, net::NodeId to) const override;
  net::NodeId next_hop(net::NodeId from, net::NodeId to) const override;
  void on_link_change(net::LinkId link) override;
  std::uint64_t messages_sent() const override { return messages_sent_; }

  /// Number of SPF runs executed (for overhead experiments).
  std::uint64_t spf_runs() const { return spf_runs_; }

 private:
  struct LsaAdjacency {
    net::NodeId neighbor;
    net::Cost cost;
    net::LinkId link;
  };

  struct Lsa {
    net::NodeId origin;
    std::uint64_t sequence = 0;
    std::vector<LsaAdjacency> adjacencies;
    std::vector<net::Ipv4Addr> anycast_addresses;  // the high-cost stubs
  };

  struct RouterState {
    std::map<net::NodeId, Lsa> lsdb;
    std::set<net::Ipv4Addr> memberships;  // anycast addresses terminated here
    std::uint64_t own_sequence = 0;
    bool spf_pending = false;
    // Converged SPF snapshot for distance()/next_hop() queries, over the
    // LSDB's routers as of that run: node i of `spf` is spf_nodes[i].
    net::ShortestPaths spf;
    std::vector<net::NodeId> spf_nodes;  // sorted
    bool spf_valid = false;
  };

  bool in_domain(net::NodeId node) const;
  RouterState& state(net::NodeId node);
  const RouterState& state(net::NodeId node) const;

  /// Build and flood a fresh LSA for `router`.
  void originate(net::NodeId router);

  /// Process an LSA arriving at `router` via `via_link`.
  void receive(net::NodeId router, Lsa lsa, net::LinkId via_link);

  /// Flood `lsa` from `router` on all usable intra-domain links except
  /// `except` (the link it arrived on).
  void flood(net::NodeId router, const Lsa& lsa, net::LinkId except);

  /// Send `from`'s entire LSDB to `to` over `via` (OSPF-style database
  /// exchange when an adjacency comes up); re-floods whatever is newer.
  void sync_database(net::NodeId from, net::NodeId to, net::LinkId via);

  void schedule_spf(net::NodeId router);
  void run_spf(net::NodeId router);

  /// Graph as seen in `st`'s LSDB, over its routers only: node i is
  /// `nodes[i]`, the LSDB's routers in NodeId order (so ties break as they
  /// would over NodeIds).
  net::Graph lsdb_graph(const RouterState& st, std::vector<net::NodeId>& nodes) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  net::DomainId domain_;
  LinkStateConfig config_;
  std::unordered_map<std::uint32_t, RouterState> states_;  // by NodeId value
  std::uint64_t messages_sent_ = 0;
  std::uint64_t spf_runs_ = 0;
  bool started_ = false;
};

}  // namespace evo::igp
