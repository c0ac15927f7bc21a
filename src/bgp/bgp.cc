#include "bgp/bgp.h"

#include <algorithm>
#include <cassert>

namespace evo::bgp {

using net::Cost;
using net::DomainId;
using net::FibEntry;
using net::LinkId;
using net::NodeId;
using net::Prefix;
using net::Relationship;
using net::RouteOrigin;

const char* to_string(LearnedFrom learned) {
  switch (learned) {
    case LearnedFrom::kSelf: return "self";
    case LearnedFrom::kCustomer: return "customer";
    case LearnedFrom::kPeer: return "peer";
    case LearnedFrom::kProvider: return "provider";
  }
  return "?";
}

std::string Route::describe() const {
  std::string out = prefix.to_string() + " path[";
  for (std::size_t i = 0; i < as_path.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(as_path[i].value());
  }
  out += "] pref=" + std::to_string(local_pref);
  out += std::string(" from=") + to_string(learned);
  if (anycast) out += " anycast";
  if (no_export) out += " no-export";
  return out;
}

namespace {

/// The Gao-Rexford class of a route whose neighbor domain has relationship
/// `rel` to the receiving domain. No relationship (an iBGP copy whose first
/// AS hop is not a neighbor) counts as peer.
LearnedFrom learned_from(std::optional<Relationship> rel) {
  if (!rel) return LearnedFrom::kPeer;
  switch (*rel) {
    case Relationship::kCustomer: return LearnedFrom::kCustomer;
    case Relationship::kPeer: return LearnedFrom::kPeer;
    case Relationship::kProvider: return LearnedFrom::kProvider;
  }
  return LearnedFrom::kPeer;
}

/// Elements per AS-path storage chunk (a longer path gets its own chunk).
constexpr std::size_t kPathChunk = 4096;

}  // namespace

BgpSystem::BgpSystem(sim::Simulator& simulator, net::Network& network,
                     std::function<const igp::Igp*(net::DomainId)> igp_of,
                     BgpConfig config)
    : simulator_(simulator),
      network_(network),
      igp_of_(std::move(igp_of)),
      config_(config) {
  const auto& topo = network_.topology();
  // Every border router is a speaker. A new system has installed nothing,
  // so every domain starts dirty.
  borders_.resize(topo.domain_count());
  install_dirt_.resize(topo.domain_count());
  installed_epoch_.assign(topo.router_count(), 0);
  for (const auto& link : topo.links()) {
    link_usable_.push_back(topo.link_usable(link.id));
  }
  speaker_of_.assign(topo.router_count(), kNoSpeaker);
  for (const auto& router : topo.routers()) {
    if (router.border) {
      speaker_of_[router.id.value()] = static_cast<std::uint32_t>(speakers_.size());
      SpeakerState& st = speakers_.emplace_back();
      st.node = router.id;
      st.domain = router.domain;
      borders_[router.domain.value()].push_back(router.id);
    }
  }
  const auto add_session = [&](Session session) {
    auto& st = speaker(session.local);
    session.speaker = speaker_of_[session.local.value()];
    session.slot = static_cast<std::uint32_t>(st.sessions.size());
    st.sessions.push_back(sessions_.size());
    sessions_.push_back(session);
  };
  // eBGP sessions over inter-domain links, created in adjacent twin pairs.
  for (const auto& link : topo.links()) {
    if (!link.interdomain) continue;
    const auto rel_of_b = topo.relationship(topo.router(link.a).domain,
                                            topo.router(link.b).domain);
    assert(rel_of_b.has_value());
    const std::size_t ab = sessions_.size();
    add_session(Session{link.a, link.b, link.id, *rel_of_b, false, ab + 1});
    add_session(Session{link.b, link.a, link.id, reverse(*rel_of_b), false, ab});
  }
  // iBGP full mesh among each domain's border routers; i->j is twinned
  // with j->i.
  for (const auto& borders : borders_) {
    const std::size_t base = sessions_.size();
    const std::size_t n = borders.size();
    const auto index = [&](std::size_t i, std::size_t j) {
      return base + i * (n - 1) + (j < i ? j : j - 1);
    };
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        assert(sessions_.size() == index(i, j));
        add_session(Session{borders[i], borders[j], LinkId::invalid(),
                            Relationship::kPeer, /*ibgp=*/true, index(j, i)});
      }
    }
  }
  // Room for every domain's own prefix; more prefixes grow the arrays.
  for (auto& st : speakers_) {
    st.out_words = std::max<std::size_t>(1, (st.sessions.size() + 63) / 64);
  }
  grow_prefix_capacity(topo.domain_count());
}

void BgpSystem::grow_prefix_capacity(std::size_t capacity) {
  prefix_capacity_ = std::max<std::size_t>(capacity, 1);
  for (auto& st : speakers_) {
    st.adj_rib_in.resize(prefix_capacity_);
    st.loc_rib.resize(prefix_capacity_);
    st.flags.resize(prefix_capacity_, 0);
    st.adj_rib_out.resize(prefix_capacity_ * st.out_words, 0);
  }
}

std::uint32_t BgpSystem::intern(Prefix prefix) {
  const auto [it, inserted] =
      prefix_ids_.try_emplace(prefix, static_cast<std::uint32_t>(prefixes_.size()));
  if (!inserted) return it->second;
  const std::uint32_t id = it->second;
  prefixes_.push_back(prefix);
  const auto at = std::lower_bound(
      prefix_order_.begin(), prefix_order_.end(), prefix,
      [&](std::uint32_t a, Prefix p) { return prefixes_[a] < p; });
  prefix_order_.insert(at, id);
  if (id >= prefix_capacity_) grow_prefix_capacity(2 * prefix_capacity_);
  return id;
}

std::optional<std::uint32_t> BgpSystem::find_id(Prefix prefix) const {
  const auto it = prefix_ids_.find(prefix);
  if (it == prefix_ids_.end()) return std::nullopt;
  return it->second;
}

AsPath BgpSystem::prepend(DomainId head, AsPath tail) {
  const std::uint64_t key = (std::uint64_t{head.value()} << 32) | tail.id();
  const auto [it, inserted] = path_index_.try_emplace(key, nullptr);
  if (!inserted) return AsPath(it->second);
  const std::size_t length = tail.size() + 1;
  if (path_chunks_.empty() || path_chunk_used_ + length > kPathChunk) {
    path_chunks_.push_back(std::make_unique<DomainId[]>(std::max(kPathChunk, length)));
    path_chunk_used_ = 0;
  }
  DomainId* asns = path_chunks_.back().get() + path_chunk_used_;
  path_chunk_used_ += length;
  asns[0] = head;
  std::copy(tail.begin(), tail.end(), asns + 1);
  it->second = &path_records_.emplace_back(
      AsPath::Record{static_cast<std::uint32_t>(path_records_.size() + 1),
                     static_cast<std::uint32_t>(length), asns});
  return AsPath(it->second);
}

void BgpSystem::put_offer(std::vector<Offer>& offers, std::uint32_t slot,
                          const Route& route) {
  const auto it = std::lower_bound(
      offers.begin(), offers.end(), slot,
      [](const Offer& offer, std::uint32_t s) { return offer.slot < s; });
  if (it != offers.end() && it->slot == slot) {
    it->route = route;
  } else {
    offers.insert(it, Offer{slot, route});
  }
}

bool BgpSystem::erase_offer(std::vector<Offer>& offers, std::uint32_t slot) {
  const auto it = std::find_if(offers.begin(), offers.end(),
                               [&](const Offer& offer) { return offer.slot == slot; });
  if (it == offers.end()) return false;
  offers.erase(it);
  return true;
}

void BgpSystem::start() {
  started_ = true;
  // Each domain originates its own address block.
  for (const auto& domain : network_.topology().domains()) {
    originate(domain.id, domain.prefix);
  }
  // Flush anything originated before start() (its decide() could not
  // schedule a send yet).
  for (auto& st : speakers_) {
    if (!st.dirty.empty()) schedule_send(st);
  }
}

void BgpSystem::originate(DomainId domain, Prefix prefix, OriginationPolicy policy) {
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kBgp, "bgp.originate", domain.value(),
                       (std::uint64_t{prefix.address().bits()} << 8) | prefix.length());
  }
  mark_dirty(domain, prefix);
  for (const NodeId node : borders_[domain.value()]) {
    auto& st = speaker(node);
    st.originated[prefix] = policy;
    seed_self_route(st, prefix, policy);
  }
}

void BgpSystem::seed_self_route(SpeakerState& st, Prefix prefix,
                                const OriginationPolicy& policy) {
  const std::uint32_t id = intern(prefix);
  Route route;
  route.prefix = prefix;
  route.as_path = prepend(st.domain, AsPath{});
  route.egress_router = st.node;
  route.local_pref = local_pref_for(LearnedFrom::kSelf);
  route.learned = LearnedFrom::kSelf;
  route.no_export = policy.no_export;
  route.propagation_ttl = policy.propagation_ttl;
  route.anycast = policy.anycast;
  put_offer(st.adj_rib_in[id], kSelfSlot, route);
  decide(st, id);
  st.mark_for_send(id);
  schedule_send(st);
}

void BgpSystem::withdraw(DomainId domain, Prefix prefix) {
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kBgp, "bgp.withdraw", domain.value(),
                       (std::uint64_t{prefix.address().bits()} << 8) | prefix.length());
  }
  mark_dirty(domain, prefix);
  const auto id = find_id(prefix);
  for (const NodeId node : borders_[domain.value()]) {
    auto& st = speaker(node);
    st.originated.erase(prefix);
    if (id && erase_offer(st.adj_rib_in[*id], kSelfSlot)) decide(st, *id);
  }
}

void BgpSystem::mark_dirty(DomainId domain, Prefix prefix) {
  ++loc_rib_version_;
  auto& dirt = install_dirt_[domain.value()];
  if (!dirt.all) dirt.prefixes.push_back(prefix);
}

bool BgpSystem::preferred(const Route& a, const Route& b) {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  if (a.as_path.size() != b.as_path.size()) return a.as_path.size() < b.as_path.size();
  // Prefer eBGP-learned (and self) over iBGP-learned.
  if (a.via_ibgp != b.via_ibgp) return b.via_ibgp;
  // Deterministic tiebreaks: neighbor domain, then remote router, then
  // egress router.
  const DomainId an = a.as_path.empty() ? DomainId::invalid() : a.as_path.front();
  const DomainId bn = b.as_path.empty() ? DomainId::invalid() : b.as_path.front();
  if (an != bn) return an < bn;
  if (a.ebgp_next_hop != b.ebgp_next_hop) return a.ebgp_next_hop < b.ebgp_next_hop;
  return a.egress_router < b.egress_router;
}

void BgpSystem::decide(SpeakerState& st, std::uint32_t id) {
  const Route* best = nullptr;
  for (const Offer& offer : st.adj_rib_in[id]) {
    if (best == nullptr || preferred(offer.route, *best)) best = &offer.route;
  }
  const bool had = st.has_best(id);
  if (best == nullptr) {
    if (!had) return;
    st.flags[id] &= static_cast<std::uint8_t>(~kInLocRib);
    --st.loc_rib_count;
  } else {
    if (had && st.loc_rib[id] == *best) return;  // no effective change
    st.loc_rib[id] = *best;
    if (!had) {
      st.flags[id] |= kInLocRib;
      ++st.loc_rib_count;
    }
  }
  mark_dirty(st.domain, prefixes_[id]);
  st.mark_for_send(id);
  schedule_send(st);
}

bool BgpSystem::exportable(const SpeakerState& st, const Route& route,
                           const Session& session) const {
  if (session.ibgp) {
    // iBGP: share only eBGP-learned or self-originated routes.
    return !route.via_ibgp;
  }
  // eBGP rules.
  if (route.no_export && route.learned != LearnedFrom::kSelf) return false;
  // GIA-style scoped propagation: stop once the exported path would
  // exceed the radius.
  if (route.propagation_ttl > 0) {
    const std::size_t exported_length =
        route.learned == LearnedFrom::kSelf ? 1 : route.as_path.size() + 1;
    if (exported_length > route.propagation_ttl) return false;
  }
  if (route.learned == LearnedFrom::kSelf) {
    const auto policy = st.originated.find(route.prefix);
    if (policy != st.originated.end() && policy->second.export_scope) {
      const DomainId neighbor = network_.topology().router(session.remote).domain;
      if (!policy->second.export_scope->contains(neighbor)) return false;
    }
    return true;
  }
  // Gao-Rexford: customer-learned exports everywhere; peer/provider-learned
  // exports only to customers.
  const bool from_customer = route.learned == LearnedFrom::kCustomer;
  if (from_customer) return true;
  return session.relationship == Relationship::kCustomer;
}

void BgpSystem::schedule_send(SpeakerState& st) {
  if (st.send_pending || !started_) return;
  st.send_pending = true;
  simulator_.schedule_after(config_.update_delay,
                            [this, index = speaker_of_[st.node.value()]] {
                              auto& s = speakers_[index];
                              s.send_pending = false;
                              flush_updates(s);
                            });
}

bool BgpSystem::session_usable(const Session& session) const {
  const auto& topo = network_.topology();
  if (!topo.router(session.local).up || !topo.router(session.remote).up) {
    return false;
  }
  // iBGP rides the intra-domain fabric; eBGP needs its physical link.
  return !session.link.valid() || topo.link_usable(session.link);
}

void BgpSystem::flush_updates(SpeakerState& st) {
  if (!network_.topology().router(st.node).up) return;  // crashed: sends nothing
  // Walk the dirty prefixes in prefix order, each over the sessions in
  // slot order: the message schedule does not depend on prefix ids.
  auto& dirty = flush_scratch_;
  dirty.swap(st.dirty);
  for (const std::uint32_t id : dirty) {
    st.flags[id] &= static_cast<std::uint8_t>(~kDirty);
  }
  if (recorder_ != nullptr && !dirty.empty()) {
    recorder_->instant(obs::Domain::kBgp, "bgp.flush", st.node.value(), dirty.size());
  }
  std::sort(dirty.begin(), dirty.end(), [&](std::uint32_t a, std::uint32_t b) {
    return prefixes_[a] < prefixes_[b];
  });
  auto& usable = usable_scratch_;
  usable.clear();
  for (const std::size_t si : st.sessions) {
    usable.push_back(session_usable(sessions_[si]));
  }
  for (const std::uint32_t id : dirty) {
    const Route* best = st.has_best(id) ? &st.loc_rib[id] : nullptr;
    std::uint64_t* out = &st.adj_rib_out[id * st.out_words];
    // Self routes already carry {domain}; learned routes gain our domain
    // when they leave it over eBGP. Interned once per prefix.
    std::optional<AsPath> ebgp_path;
    for (std::uint32_t slot = 0; slot < st.sessions.size(); ++slot) {
      if (!usable[slot]) continue;
      const std::size_t si = st.sessions[slot];
      const Session& session = sessions_[si];
      std::uint64_t& word = out[slot / 64];
      const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
      Update update;
      update.prefix_id = id;
      update.route.prefix = prefixes_[id];
      if (best == nullptr || !exportable(st, *best, session)) {
        // Withdraw only where an advertisement actually exists.
        if ((word & bit) == 0) continue;
        word &= ~bit;
        update.withdraw = true;
      } else {
        word |= bit;
        if (!session.ibgp && best->learned != LearnedFrom::kSelf) {
          if (!ebgp_path) ebgp_path = prepend(st.domain, best->as_path);
          update.route.as_path = *ebgp_path;
        } else {
          update.route.as_path = best->as_path;
        }
        update.route.no_export = best->no_export;
        update.route.propagation_ttl = best->propagation_ttl;
        update.route.anycast = best->anycast;
      }
      send(si, update);
    }
  }
  dirty.clear();
}

void BgpSystem::send(std::size_t session_index, Update update) {
  const Session& session = sessions_[session_index];
  const sim::Duration latency = session.ibgp
                                    ? config_.ibgp_latency
                                    : network_.topology().link(session.link).latency;
  ++messages_sent_;
  auto deliver = [this, session_index, update]() {
    // Re-check at delivery: the session may have died in flight.
    if (!session_usable(sessions_[session_index])) return;
    receive(session_index, update);
  };
  // BGP messages ride the event queue without heap-allocating the closure.
  static_assert(sizeof(deliver) <= sim::EventFn::inline_capacity);
  simulator_.schedule_after(latency, std::move(deliver));
}

void BgpSystem::receive(std::size_t session_index, Update update) {
  const Session& session = sessions_[sessions_[session_index].twin];
  auto& st = speakers_[session.speaker];
  auto& offers = st.adj_rib_in[update.prefix_id];
  Route& route = update.route;

  if (update.withdraw) {
    if (erase_offer(offers, session.slot)) decide(st, update.prefix_id);
    return;
  }

  if (session.ibgp) {
    // The sending border router remains the egress; the route keeps the
    // Gao-Rexford class it had where it entered the domain, recomputed
    // from the domain's relationship with the path's first AS hop.
    route.via_ibgp = true;
    route.egress_router = session.remote;
    route.learned = learned_from(network_.topology().relationship(
        st.domain, route.as_path.empty() ? DomainId::invalid() : route.as_path.front()));
  } else {
    // Loop prevention: reject paths containing our own domain.
    if (route.contains_domain(st.domain)) return;
    route.learned = learned_from(session.relationship);
    route.egress_router = session.local;
    route.ebgp_next_hop = session.remote;
    route.via_link = session.link;
  }
  route.local_pref = local_pref_for(route.learned);

  put_offer(offers, session.slot, route);
  decide(st, update.prefix_id);
}

void BgpSystem::drop_sessions(SpeakerState& st,
                              const std::function<bool(const Session&)>& dead) {
  std::vector<std::uint64_t> dead_slots(st.out_words, 0);
  bool any = false;
  for (std::uint32_t slot = 0; slot < st.sessions.size(); ++slot) {
    if (!dead(sessions_[st.sessions[slot]])) continue;
    dead_slots[slot / 64] |= std::uint64_t{1} << (slot % 64);
    any = true;
  }
  if (!any) return;
  const auto is_dead = [&](const Offer& offer) {
    return offer.slot != kSelfSlot &&
           ((dead_slots[offer.slot / 64] >> (offer.slot % 64)) & 1) != 0;
  };
  // Forget everything learned and advertised over the dead sessions, then
  // re-decide what they carried in prefix order.
  std::vector<std::uint32_t> affected;
  for (const std::uint32_t id : prefix_order_) {
    if (std::erase_if(st.adj_rib_in[id], is_dead) > 0) affected.push_back(id);
    std::uint64_t* out = &st.adj_rib_out[id * st.out_words];
    for (std::size_t w = 0; w < st.out_words; ++w) out[w] &= ~dead_slots[w];
  }
  for (const std::uint32_t id : affected) decide(st, id);
}

void BgpSystem::readvertise_all(SpeakerState& st) {
  for (const std::uint32_t id : prefix_order_) {
    if (st.has_best(id)) st.mark_for_send(id);
  }
  schedule_send(st);
}

void BgpSystem::on_link_change(LinkId link_id) {
  const auto& link = network_.topology().link(link_id);
  if (!link.interdomain) return;
  const bool usable = network_.topology().link_usable(link_id);
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kBgp, usable ? "bgp.session.up" : "bgp.session.down",
                       link_id.value(),
                       (std::uint64_t{link.a.value()} << 32) | link.b.value());
  }
  for (const NodeId end : {link.a, link.b}) {
    if (usable) {
      // Sessions re-establish: both ends re-advertise their full Loc-RIBs.
      readvertise_all(speaker(end));
    } else {
      // Session down: both ends drop what was learned and advertised over
      // this link's sessions.
      drop_sessions(speaker(end), [&](const Session& s) { return s.link == link_id; });
    }
  }
}

void BgpSystem::on_node_change(NodeId node, bool up) {
  if (!started_) return;
  if (recorder_ != nullptr && is_speaker(node)) {
    recorder_->instant(obs::Domain::kBgp,
                       up ? "bgp.speaker.up" : "bgp.speaker.down", node.value());
  }
  if (is_speaker(node)) {
    auto& st = speaker(node);
    if (!up) {
      // The crashed speaker loses all volatile RIB state; `originated`
      // stays (it is configuration, re-seeded on recovery).
      for (const std::uint32_t id : prefix_order_) {
        if (st.has_best(id)) mark_dirty(st.domain, prefixes_[id]);
        st.adj_rib_in[id].clear();
      }
      std::fill(st.flags.begin(), st.flags.end(), 0);
      std::fill(st.adj_rib_out.begin(), st.adj_rib_out.end(), 0);
      st.loc_rib_count = 0;
      st.dirty.clear();
    } else {
      for (const auto& [prefix, policy] : st.originated) {
        seed_self_route(st, prefix, policy);
      }
    }
  }
  // Peers with a session to the node hold it down and withdraw what they
  // learned over it, or re-establish it and re-advertise their Loc-RIBs.
  const auto to_node = [&](const Session& s) { return s.remote == node; };
  for (auto& peer : speakers_) {
    if (peer.node == node) continue;
    if (!up) {
      drop_sessions(peer, to_node);
    } else if (peer.loc_rib_count > 0 &&
               std::any_of(peer.sessions.begin(), peer.sessions.end(),
                           [&](std::size_t si) { return to_node(sessions_[si]); })) {
      readvertise_all(peer);
    }
  }
}

const Route* BgpSystem::best_route(NodeId node, Prefix prefix) const {
  const std::uint32_t index = speaker_index(node);
  if (index == kNoSpeaker) return nullptr;
  const auto id = find_id(prefix);
  const auto& st = speakers_[index];
  return id && st.has_best(*id) ? &st.loc_rib[*id] : nullptr;
}

void BgpSystem::for_each_best_route(
    NodeId node, const std::function<void(const Route&)>& fn) const {
  if (!is_speaker(node)) return;
  const auto& st = speaker(node);
  for (const std::uint32_t id : prefix_order_) {
    if (st.has_best(id)) fn(st.loc_rib[id]);
  }
}

std::size_t BgpSystem::loc_rib_size(NodeId node, bool anycast_only) const {
  if (!is_speaker(node)) return 0;
  const auto& st = speaker(node);
  if (!anycast_only) return st.loc_rib_count;
  std::size_t count = 0;
  for (const std::uint32_t id : prefix_order_) {
    if (st.has_best(id) && st.loc_rib[id].anycast) ++count;
  }
  return count;
}

net::LinkId BgpSystem::connecting_link(NodeId a, NodeId b) const {
  const auto& topo = network_.topology();
  LinkId best = LinkId::invalid();
  Cost best_cost = net::kInfiniteCost;
  for (const LinkId link_id : topo.router(a).links) {
    const auto& link = topo.link(link_id);
    if (!topo.link_usable(link_id) || link.other_end(a) != b) continue;
    if (link.cost < best_cost) {
      best = link_id;
      best_cost = link.cost;
    }
  }
  return best;
}

BgpSystem::InstallPlan BgpSystem::plan_install(
    DomainId domain, const std::vector<Prefix>* only) const {
  const auto& topo = network_.topology();
  const auto& borders = borders_[domain.value()];
  const std::size_t n = borders.size();
  InstallPlan plan;
  plan.borders = &borders;
  plan.igp = igp_of_(domain);
  std::vector<const SpeakerState*> states(n);
  // Never install a BGP route for our own aggregate: intra-domain routing
  // handles it. Likewise skip any prefix this domain originates itself
  // (e.g. an anycast /32 with local members): internal reachability is the
  // IGP's job, and clobbering the IGP's anycast routes would defeat local
  // capture.
  std::vector<Prefix> skipped{topo.domain(domain).prefix};
  for (std::size_t i = 0; i < n; ++i) {
    states[i] = &speaker(borders[i]);
    for (const auto& [prefix, policy] : states[i]->originated) skipped.push_back(prefix);
  }
  std::sort(skipped.begin(), skipped.end());

  // Plan one prefix from each border's best route for it (null if none).
  std::vector<const Route*> at(n);
  std::vector<std::uint32_t> candidates;
  const auto add = [&](Prefix prefix) {
    if (std::binary_search(skipped.begin(), skipped.end(), prefix)) return;
    // Candidate egresses: each border router with a best route, except
    // that an iBGP-learned copy egresses through its eBGP owner.
    candidates.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (at[i] == nullptr) continue;
      if (!at[i]->via_ibgp) {
        candidates.push_back(i);
        continue;
      }
      const auto owner =
          std::lower_bound(borders.begin(), borders.end(), at[i]->egress_router);
      assert(owner != borders.end() && *owner == at[i]->egress_router);
      candidates.push_back(static_cast<std::uint32_t>(owner - borders.begin()));
    }
    if (candidates.empty()) return;
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    InstallPlan::PrefixEgresses entry{prefix,
                                      static_cast<std::uint32_t>(plan.egresses.size())};
    for (const std::uint32_t i : candidates) {
      // At the egress itself: forward over the eBGP link. Self-originated
      // and iBGP-learned routes (the owner may have lost its route) give
      // no entry.
      InstallPlan::Egress egress{i, std::nullopt};
      if (const Route* route = at[i];
          route != nullptr && route->learned != LearnedFrom::kSelf &&
          !route->via_ibgp && route->via_link.valid() &&
          topo.link_usable(route->via_link)) {
        egress.at_egress =
            FibEntry{prefix, route->ebgp_next_hop, route->via_link, RouteOrigin::kBgp,
                     static_cast<Cost>(route->as_path.size())};
      }
      plan.egresses.push_back(std::move(egress));
    }
    entry.last = static_cast<std::uint32_t>(plan.egresses.size());
    plan.prefixes.push_back(entry);
  };

  // Each border's best route for prefix `id` (null if none).
  const auto add_id = [&](std::uint32_t id) {
    for (std::size_t i = 0; i < n; ++i) {
      at[i] = states[i]->has_best(id) ? &states[i]->loc_rib[id] : nullptr;
    }
    add(prefixes_[id]);
  };
  if (only != nullptr) {
    for (const Prefix prefix : *only) {
      if (const auto id = find_id(prefix)) add_id(*id);
    }
  } else {
    for (const std::uint32_t id : prefix_order_) add_id(id);
  }
  return plan;
}

void BgpSystem::plan_routes(NodeId router, const InstallPlan& plan,
                            std::vector<FibEntry>& out) const {
  // IGP distance, first hop and link toward each border router, once per
  // router rather than once per prefix.
  struct Reach {
    Cost distance = net::kInfiniteCost;
    NodeId hop;
    LinkId link;
  };
  const auto& borders = *plan.borders;
  std::vector<Reach> reach(borders.size());
  for (std::size_t i = 0; i < borders.size(); ++i) {
    if (borders[i] == router) {
      reach[i].distance = 0;
    } else if (plan.igp != nullptr) {
      reach[i].distance = plan.igp->distance(router, borders[i]);
      reach[i].hop = plan.igp->next_hop(router, borders[i]);
      if (reach[i].hop.valid()) reach[i].link = connecting_link(router, reach[i].hop);
    }
  }
  // Both the plan and the FIB are in prefix order: search on from the
  // last hit.
  const auto& fib = network_.fib(router).entries();
  auto cursor = fib.begin();
  for (const auto& p : plan.prefixes) {
    // Intra-domain routes win over BGP for an identical prefix (the
    // "IGP-preferred" admin-distance rule; see DESIGN.md): a member
    // domain's own anycast members must keep capturing local traffic
    // even when a remote member peer-advertises the same /32 to us.
    cursor = std::lower_bound(
        cursor, fib.end(), p.prefix,
        [](const FibEntry& e, const Prefix& prefix) { return e.prefix < prefix; });
    if (cursor != fib.end() && cursor->prefix == p.prefix &&
        cursor->origin != RouteOrigin::kBgp) {
      continue;
    }
    // Hot potato: the IGP-closest egress; egresses are in NodeId order, so
    // a tie goes to the lowest.
    const InstallPlan::Egress* chosen = &plan.egresses[p.first];
    for (std::uint32_t e = p.first + 1; e < p.last; ++e) {
      if (reach[plan.egresses[e].border].distance < reach[chosen->border].distance) {
        chosen = &plan.egresses[e];
      }
    }
    const Reach& to = reach[chosen->border];
    if (borders[chosen->border] == router) {
      if (chosen->at_egress) out.push_back(*chosen->at_egress);
    } else if (to.hop.valid()) {
      out.push_back(FibEntry{p.prefix, to.hop, to.link, RouteOrigin::kBgp, to.distance});
    }
  }
}

std::vector<std::vector<FibEntry>> BgpSystem::recompute_routes(DomainId domain) const {
  const auto& routers = network_.topology().domain(domain).routers;
  std::vector<std::vector<FibEntry>> out(routers.size());
  if (borders_[domain.value()].empty()) return out;
  const InstallPlan plan = plan_install(domain, nullptr);
  for (std::size_t i = 0; i < routers.size(); ++i) {
    plan_routes(routers[i], plan, out[i]);
  }
  return out;
}

void BgpSystem::install_routes() {
  const auto& topo = network_.topology();
  // A link whose usability moved since the last install changes what its
  // endpoints install (the egress link rule, connecting_link) and nothing
  // else, whether or not the change was reported.
  for (const auto& link : topo.links()) {
    const bool usable = topo.link_usable(link.id);
    if (usable == link_usable_[link.id.value()]) continue;
    link_usable_[link.id.value()] = usable;
    installed_epoch_[link.a.value()] = 0;
    installed_epoch_[link.b.value()] = 0;
  }
  std::vector<FibEntry> routes;
  for (const auto& domain : topo.domains()) {
    if (borders_[domain.id.value()].empty()) continue;  // no BGP routes
    auto& dirt = install_dirt_[domain.id.value()];
    auto& dirty = dirt.prefixes;
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    // Plans are built on first use: every prefix for wholly dirty routers,
    // just the dirty ones for the rest.
    std::optional<InstallPlan> whole_plan;
    std::optional<InstallPlan> dirty_plan;
    for (const NodeId r : domain.routers) {
      auto& fib = network_.fib(r);
      routes.clear();
      // An unchanged table leaves the route epoch (and thus the router's
      // compiled forwarding state) untouched.
      if (dirt.all || fib.epoch() != installed_epoch_[r.value()]) {
        if (!whole_plan) whole_plan = plan_install(domain.id, nullptr);
        plan_routes(r, *whole_plan, routes);
        fib.replace_origins({RouteOrigin::kBgp}, routes);
      } else if (!dirty.empty()) {
        // The FIB holds the installed table: rewrite only the dirty
        // prefixes' entries.
        if (!dirty_plan) dirty_plan = plan_install(domain.id, &dirty);
        plan_routes(r, *dirty_plan, routes);
        fib.splice_origin(RouteOrigin::kBgp, dirty, routes);
      } else {
        continue;
      }
      installed_epoch_[r.value()] = fib.epoch();
    }
    dirt.all = false;
    dirty.clear();
  }
}

}  // namespace evo::bgp
