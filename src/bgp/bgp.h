// Inter-domain routing: an event-driven path-vector protocol with
// Gao-Rexford policies, per-border-router RIBs, iBGP route sharing within
// a domain, and hot-potato FIB installation.
//
// One BgpSystem manages every speaker in the topology. Border routers
// (routers with inter-domain links) are eBGP speakers; border routers of
// the same domain form an iBGP full mesh. Internal routers are not
// speakers — they receive routes at FIB-installation time, forwarding
// toward the IGP-closest border router holding a best route (hot potato).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/route.h"
#include "igp/igp.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace evo::bgp {

struct BgpConfig {
  /// Latency of iBGP propagation between border routers of one domain.
  sim::Duration ibgp_latency = sim::Duration::millis(2);
  /// Debounce between a Loc-RIB change and the UPDATEs it triggers.
  sim::Duration update_delay = sim::Duration::millis(5);
};

class BgpSystem {
 public:
  /// `network`, `simulator` and the IGP map must outlive this object.
  /// `igp_of` maps each domain to its running IGP (used for hot-potato
  /// distances at FIB-install time).
  BgpSystem(sim::Simulator& simulator, net::Network& network,
            std::function<const igp::Igp*(net::DomainId)> igp_of,
            BgpConfig config = {});

  /// Create sessions and originate every domain's own prefix. Run the
  /// simulator afterwards to converge.
  void start();

  /// Originate `prefix` from `domain` (announced by all of its border
  /// routers) under `policy`.
  void originate(net::DomainId domain, net::Prefix prefix,
                 OriginationPolicy policy = {});

  /// Withdraw a locally originated prefix.
  void withdraw(net::DomainId domain, net::Prefix prefix);

  /// Push converged routes into every router's FIB (hot potato through the
  /// domain's IGP). Call after the simulator reaches quiescence. Only the
  /// work whose inputs moved since the last call is redone: prefixes whose
  /// Loc-RIB entry or origination changed at one of the domain's border
  /// routers, and the whole table of a router that ends a link whose
  /// usability changed or whose FIB another protocol rewrote (IGP
  /// distances and shadowing non-BGP entries become visible that way).
  void install_routes();

  /// The BGP tables of `domain`'s routers recomputed from scratch, one per
  /// router in `Domain::routers` order: what install_routes() installs
  /// there when everything is dirty. The domain's plan is built once and
  /// shared by its routers. Every table is empty in a domain without
  /// border routers.
  std::vector<std::vector<net::FibEntry>> recompute_routes(net::DomainId domain) const;

  /// Best route for `prefix` at `speaker`'s Loc-RIB, if any.
  const Route* best_route(net::NodeId speaker, net::Prefix prefix) const;

  /// Visit every Loc-RIB best route at `speaker` in prefix order, without
  /// materializing prefix lists. No-op for non-speakers. Const inspection
  /// point for policy-compliance oracles (e.g. Gao-Rexford audits).
  void for_each_best_route(net::NodeId speaker,
                           const std::function<void(const Route&)>& fn) const;

  /// Loc-RIB size (for routing-state experiments). `anycast_only` counts
  /// just anycast routes.
  std::size_t loc_rib_size(net::NodeId speaker, bool anycast_only = false) const;

  std::uint64_t messages_sent() const { return messages_sent_; }

  /// The speakers (border routers) of a domain, sorted by NodeId.
  const std::vector<net::NodeId>& speakers_of(net::DomainId domain) const {
    return borders_[domain.value()];
  }

  /// Moves whenever some speaker's Loc-RIB may have changed (an insert,
  /// replace or erase by the decision process, or a crash wiping it), so a
  /// reader can cache what it derives from Loc-RIBs and drop the cache
  /// when this moves.
  std::uint64_t loc_rib_version() const { return loc_rib_version_; }

  /// Notify that an inter-domain link changed state: sessions over it come
  /// up or go down and routes are re-evaluated.
  void on_link_change(net::LinkId link);

  /// Notify that a router crashed (up=false) or recovered (up=true). A
  /// crashed speaker loses all volatile RIB state (originations survive as
  /// configuration); its peers withdraw everything learned from it. On
  /// recovery the speaker re-seeds its self-originated routes and peers
  /// re-advertise their Loc-RIBs toward it.
  void on_node_change(net::NodeId node, bool up);

  /// Telemetry sink for protocol point events (originations, session
  /// transitions, update flushes). Null by default; records nothing unset.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

 private:
  struct Session {
    net::NodeId local;
    net::NodeId remote;
    net::LinkId link;                 // invalid() for iBGP
    net::Relationship relationship;   // of remote as seen from local (eBGP)
    bool ibgp = false;
    /// The same session seen from `remote` (where this side's updates
    /// arrive); set once in the constructor.
    std::size_t twin = 0;
    /// `local`'s index in speakers_, and this session's slot: its position
    /// in that speaker's `sessions`.
    std::uint32_t speaker = 0;
    std::uint32_t slot = 0;
  };

  /// One UPDATE message for the prefix with id `prefix_id`. The sender
  /// fills the route's prefix, AS path and carried attributes (no_export,
  /// propagation_ttl, anycast); the receiver fills the fields that depend
  /// on the session it arrived on.
  struct Update {
    bool withdraw = false;
    std::uint32_t prefix_id = 0;
    Route route;
  };

  /// Sentinel slot for self-originated Adj-RIB-In entries; sorts last.
  static constexpr std::uint32_t kSelfSlot = static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kNoSpeaker = static_cast<std::uint32_t>(-1);

  /// One Adj-RIB-In entry: the best known offer over one session slot.
  /// Keying by session (not neighbor) keeps parallel sessions to the same
  /// neighbor independent.
  struct Offer {
    std::uint32_t slot;
    Route route;
  };

  /// Per-prefix flags of a speaker.
  enum : std::uint8_t {
    kInLocRib = 1,  // loc_rib[id] holds the best route
    kDirty = 2,     // id is in `dirty`
  };

  /// One speaker's RIBs, flat: every per-prefix array is indexed by prefix
  /// id and sized to prefix_capacity_.
  struct SpeakerState {
    net::NodeId node;
    net::DomainId domain;
    std::vector<std::size_t> sessions;  // indices into sessions_, by slot
    /// Adj-RIB-In: the offers per prefix, in slot order (self last).
    std::vector<std::vector<Offer>> adj_rib_in;
    /// Loc-RIB: the winning route per prefix, valid where kInLocRib is set.
    std::vector<Route> loc_rib;
    std::vector<std::uint8_t> flags;
    std::size_t loc_rib_count = 0;
    /// Adj-RIB-Out: one bit per session slot (out_words words per prefix)
    /// where an advertisement exists, so withdrawals are sent only there.
    std::vector<std::uint64_t> adj_rib_out;
    std::size_t out_words = 1;
    /// Prefixes originated locally (shared per domain but stored per
    /// speaker for uniform processing).
    std::map<net::Prefix, OriginationPolicy> originated;
    /// Ids of the prefixes whose best changed and need (re-)advertisement;
    /// each also carries kDirty.
    std::vector<std::uint32_t> dirty;
    bool send_pending = false;

    bool has_best(std::uint32_t id) const { return (flags[id] & kInLocRib) != 0; }
    void mark_for_send(std::uint32_t id) {
      if ((flags[id] & kDirty) != 0) return;
      flags[id] |= kDirty;
      dirty.push_back(id);
    }
  };

  std::uint32_t speaker_index(net::NodeId node) const {
    return node.value() < speaker_of_.size() ? speaker_of_[node.value()] : kNoSpeaker;
  }
  bool is_speaker(net::NodeId node) const { return speaker_index(node) != kNoSpeaker; }
  SpeakerState& speaker(net::NodeId node) {
    return speakers_[speaker_of_[node.value()]];
  }
  const SpeakerState& speaker(net::NodeId node) const {
    return speakers_[speaker_of_[node.value()]];
  }

  /// Resize every speaker's per-prefix arrays to `capacity` prefixes.
  void grow_prefix_capacity(std::size_t capacity);
  /// The dense id of `prefix`, interned on first use.
  std::uint32_t intern(net::Prefix prefix);
  /// The id of an interned `prefix`, or nullopt.
  std::optional<std::uint32_t> find_id(net::Prefix prefix) const;
  /// `head` followed by `tail`, interned: one hash probe.
  AsPath prepend(net::DomainId head, AsPath tail);

  /// Set the offer over `slot` (kept in slot order), or erase it; erase
  /// returns whether there was one.
  static void put_offer(std::vector<Offer>& offers, std::uint32_t slot,
                        const Route& route);
  static bool erase_offer(std::vector<Offer>& offers, std::uint32_t slot);

  void send(std::size_t session_index, Update update);
  /// Deliver `update`, sent over `session_index`, at that session's twin.
  void receive(std::size_t session_index, Update update);

  /// Install the self-originated route for `prefix` at `node` under
  /// `policy`, re-decide, and force a (re-)advertisement pass: a
  /// re-origination may change only export policy, which the decision
  /// process cannot see.
  void seed_self_route(SpeakerState& st, net::Prefix prefix,
                       const OriginationPolicy& policy);

  /// Tear down `st`'s sessions for which `dead` holds: forget what was
  /// learned and advertised over them and re-decide the prefixes they
  /// carried.
  void drop_sessions(SpeakerState& st,
                     const std::function<bool(const Session&)>& dead);

  /// Mark `st`'s whole Loc-RIB for re-advertisement (session
  /// re-establishment) and schedule a send.
  void readvertise_all(SpeakerState& st);

  /// Re-run the decision process for prefix `id` at `st`; queue updates if
  /// the best route changed.
  void decide(SpeakerState& st, std::uint32_t id);

  /// True if `route` may be exported over `session` (Gao-Rexford + scope +
  /// no-export + iBGP rules).
  bool exportable(const SpeakerState& st, const Route& route,
                  const Session& session) const;

  void schedule_send(SpeakerState& st);
  void flush_updates(SpeakerState& st);

  /// True when the session can carry updates right now: both speakers up
  /// and (for eBGP) the underlying link usable.
  bool session_usable(const Session& session) const;

  /// Total ordering on routes: true if `a` is preferred over `b`.
  static bool preferred(const Route& a, const Route& b);

  /// Find the cheapest up link between adjacent routers (for FIB entries).
  net::LinkId connecting_link(net::NodeId a, net::NodeId b) const;

  /// Hot-potato inputs one domain's routers share for a set of prefixes:
  /// per prefix, the candidate egress border routers.
  struct InstallPlan {
    struct Egress {
      std::uint32_t border;  // index into `borders`
      /// The entry the egress itself installs (an eBGP route over a usable
      /// link), if any.
      std::optional<net::FibEntry> at_egress;
    };
    struct PrefixEgresses {
      net::Prefix prefix;
      std::uint32_t first = 0, last = 0;  // range of `egresses`, by border
    };
    const std::vector<net::NodeId>* borders = nullptr;
    const igp::Igp* igp = nullptr;
    std::vector<PrefixEgresses> prefixes;
    std::vector<Egress> egresses;
  };

  /// What install_routes() must redo in one domain since its last run.
  struct InstallDirt {
    bool all = true;                    // every prefix at every router
    std::vector<net::Prefix> prefixes;  // unsorted, may repeat
  };

  /// Note that `prefix`'s install inputs changed in `domain`; moves
  /// loc_rib_version().
  void mark_dirty(net::DomainId domain, net::Prefix prefix);

  /// Build `domain`'s plan for the sorted prefixes in `only`, or for every
  /// prefix one of its border routers has a best route for when null.
  /// Prefixes the domain must not route over BGP (its own aggregate,
  /// anything it originates) are left out.
  InstallPlan plan_install(net::DomainId domain,
                           const std::vector<net::Prefix>* only) const;

  /// Append `router`'s hot-potato entries for the plan's prefixes to `out`.
  void plan_routes(net::NodeId router, const InstallPlan& plan,
                   std::vector<net::FibEntry>& out) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  std::function<const igp::Igp*(net::DomainId)> igp_of_;
  BgpConfig config_;
  std::vector<Session> sessions_;
  std::vector<SpeakerState> speakers_;       // in NodeId order
  std::vector<std::uint32_t> speaker_of_;    // by NodeId value; kNoSpeaker if none
  /// Interned prefixes: each by id, the ids in prefix order, and the id
  /// of each prefix.
  std::vector<net::Prefix> prefixes_;
  std::vector<std::uint32_t> prefix_order_;
  std::unordered_map<net::Prefix, std::uint32_t> prefix_ids_;
  /// Size of every speaker's per-prefix arrays; grows geometrically.
  std::size_t prefix_capacity_ = 0;
  /// Interned AS paths: records (stable addresses), their element storage
  /// in fixed chunks, and the record of each (head, tail id) pair.
  std::deque<AsPath::Record> path_records_;
  std::vector<std::unique_ptr<net::DomainId[]>> path_chunks_;
  std::size_t path_chunk_used_ = 0;
  std::unordered_map<std::uint64_t, const AsPath::Record*> path_index_;
  /// Reused by flush_updates: the dirty ids and each slot's usability.
  std::vector<std::uint32_t> flush_scratch_;
  std::vector<std::uint8_t> usable_scratch_;
  /// Border routers of each domain, sorted (by DomainId value).
  std::vector<std::vector<net::NodeId>> borders_;
  std::vector<InstallDirt> install_dirt_;  // by DomainId value
  /// Each router's Fib::epoch() right after install_routes() last wrote or
  /// checked its table; 0 forces a whole recompute (nothing installed yet,
  /// or a link of the router changed usability). By NodeId value.
  std::vector<std::uint64_t> installed_epoch_;
  /// Each link's usability as of the last install (by LinkId value).
  std::vector<bool> link_usable_;
  obs::Recorder* recorder_ = nullptr;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t loc_rib_version_ = 0;
  bool started_ = false;
};

}  // namespace evo::bgp
