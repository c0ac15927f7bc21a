#include "workloads.h"

#include <stdexcept>

#include "anycast/resolver.h"
#include "core/trace.h"
#include "core/transport.h"
#include "digest.h"
#include "net/topology_gen.h"

namespace perfbench {
namespace {

using evo::core::EndToEndTrace;
using evo::core::EvolvableInternet;
using evo::core::HostPair;
using evo::net::DomainId;
using evo::net::HostId;
using evo::net::LinkId;
using evo::net::NodeId;

/// Input generator: independent of the simulator's own RNG, so simulator
/// changes cannot change which inputs a seed selects.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Seeded host pairs with distinct endpoints.
std::vector<HostPair> make_pairs(const evo::net::Topology& topo, std::size_t count,
                                 std::uint64_t seed) {
  SplitMix rng(seed ^ 0x9A125EEDull);
  const std::size_t hosts = topo.host_count();
  std::vector<HostPair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const auto src = static_cast<std::uint32_t>(rng.below(hosts));
    const auto dst = static_cast<std::uint32_t>(rng.below(hosts));
    if (src != dst) pairs.push_back({HostId{src}, HostId{dst}});
  }
  return pairs;
}

/// Cumulative program counters, read before an op to form per-op deltas.
struct Snapshot {
  std::uint64_t bgp_messages = 0;
  std::uint64_t igp_messages = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t lookups = 0;
  std::uint64_t fib_compiles = 0;
  std::uint64_t cache_hits = 0;
};

Snapshot snapshot(EvolvableInternet& net) {
  Snapshot s;
  s.bgp_messages = net.bgp().messages_sent();
  for (const auto& domain : net.topology().domains()) {
    if (const auto* igp = net.igp(domain.id)) s.igp_messages += igp->messages_sent();
  }
  s.sim_events = net.simulator().events_processed();
  const auto& fwd = net.network().forwarding_stats();
  s.lookups = fwd.lookups;
  s.fib_compiles = fwd.fib_compiles;
  s.cache_hits = fwd.cache_hits;
  return s;
}

OpCounts counts_since(const Snapshot& before, EvolvableInternet& net) {
  const Snapshot now = snapshot(net);
  OpCounts c;
  c.bgp_messages = now.bgp_messages - before.bgp_messages;
  c.igp_messages = now.igp_messages - before.igp_messages;
  c.sim_events = now.sim_events - before.sim_events;
  c.lookups = now.lookups - before.lookups;
  c.fib_compiles = now.fib_compiles - before.fib_compiles;
  c.cache_hits = now.cache_hits - before.cache_hits;
  c.digest = state_digest(net);
  return c;
}

/// Bring `net` up and deploy IPvN: the sequence the bringup op times and
/// the other workloads' set-up runs.
void bring_up(EvolvableInternet& net, const std::vector<DomainId>& deploy) {
  net.start();
  for (const DomainId d : deploy) net.deploy_domain(d);
  net.converge();
}

/// EvolvableInternet::converge() split into its public steps, one span
/// each.
void converge_traced(EvolvableInternet& net, Tracer& tracer) {
  {
    Scope s(&tracer, "sim.run");
    net.simulator().run();
  }
  for (int i = 0; i < 8; ++i) {
    bool changed = false;
    {
      Scope s(&tracer, "anycast.sync");
      changed = net.anycast().sync_reachability();
    }
    if (!changed) break;
    Scope s(&tracer, "bgp.propagate");
    net.simulator().run();
  }
  {
    Scope s(&tracer, "bgp.install");
    net.bgp().install_routes();
  }
  Scope s(&tracer, "vnbone.rebuild");
  net.vnbone().rebuild();
}

bool looped(const EndToEndTrace& trace) {
  using Outcome = evo::net::Network::TraceResult::Outcome;
  for (const auto& segment : trace.segments) {
    const auto outcome = segment.trace.outcome;
    if (outcome == Outcome::kForwardingLoop || outcome == Outcome::kTtlExpired) {
      return true;
    }
  }
  return false;
}

/// Layer probes on a quiescent internet: anycast reachability sync (which
/// must find nothing to change), host-to-host unicast traces, and anycast
/// probes from the pairs' sources.
bool probe_common_layers(EvolvableInternet& net, const std::vector<HostPair>& pairs,
                         Tracer& tracer) {
  bool changed = false;
  {
    Scope s(&tracer, "anycast.sync");
    changed = net.anycast().sync_reachability();
  }
  const auto& topo = net.topology();
  std::vector<evo::net::Network::ProbeSpec> unicast;
  std::vector<NodeId> sources;
  for (const HostPair& p : pairs) {
    unicast.push_back({topo.host(p.src).access_router, topo.host(p.dst).address});
    sources.push_back(topo.host(p.src).access_router);
  }
  {
    Scope s(&tracer, "net.trace_batch");
    (void)net.network().trace_batch(unicast);
  }
  const auto& group = net.anycast().group(net.vnbone().anycast_group());
  const evo::anycast::ClosestMemberOracle oracle(topo, group);
  {
    Scope s(&tracer, "anycast.probe_batch");
    (void)evo::anycast::probe_batch(net.network(), group, sources, oracle);
  }
  return !changed;
}

std::unique_ptr<EvolvableInternet> deployed_internet(std::uint64_t seed) {
  auto topo = make_topology(seed);
  const auto deploy = deployed_domains(topo);
  auto net = std::make_unique<EvolvableInternet>(std::move(topo));
  bring_up(*net, deploy);
  return net;
}

// --- bringup ---------------------------------------------------------------

/// Each op builds the whole internet from the topology: start(), deploy,
/// converge(). BGP propagation and BGP->FIB installation dominate.
class Bringup final : public Workload {
 public:
  explicit Bringup(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    topo_ = make_topology(seed_);
    deploy_ = deployed_domains(topo_);
    run(-1, nullptr);  // warm-up op; its state is the reference
    expected_ = state_digest(*net_);
  }

  void prepare(int) override { net_.reset(); }

  void run(int, Tracer* tracer) override {
    if (tracer == nullptr) {
      net_ = std::make_unique<EvolvableInternet>(topo_);
      bring_up(*net_, deploy_);
      return;
    }
    // start() split into its public steps. The untraced op's converge()
    // after deploying runs the idle-time sync and then its own sync; the
    // two trailing converge_traced() calls mirror those, call for call.
    {
      Scope s(tracer, "core.construct");
      net_ = std::make_unique<EvolvableInternet>(topo_);
    }
    auto& net = *net_;
    {
      Scope s(tracer, "igp.start");
      for (const auto& domain : net.topology().domains()) net.igp(domain.id)->start();
      net.simulator().run();
    }
    {
      Scope s(tracer, "bgp.propagate");
      net.bgp().start();
      net.simulator().run();
    }
    converge_traced(net, *tracer);
    {
      Scope s(tracer, "core.deploy");
      for (const DomainId d : deploy_) net.deploy_domain(d);
    }
    converge_traced(net, *tracer);
    converge_traced(net, *tracer);
  }

  OpResult check(int) override {
    OpResult r;
    r.counts = counts_since(Snapshot{}, *net_);
    r.ok = r.counts.digest == expected_;
    return r;
  }

  EvolvableInternet& internet() override { return *net_; }

 private:
  std::uint64_t seed_;
  evo::net::Topology topo_;
  std::vector<DomainId> deploy_;
  std::unique_ptr<EvolvableInternet> net_;
  std::uint64_t expected_ = 0;
};

// --- churn -----------------------------------------------------------------

/// Each op is one failure episode: inject, run to quiescence, probe, repair,
/// run to quiescence, probe. The quiescence-time control sync (anycast
/// reachability, BGP->FIB install, vN-Bone rebuild) dominates.
class Churn final : public Workload {
 public:
  static constexpr std::size_t kPairs = 64;
  static constexpr int kCycle = 64;  // 16 seeded victims of each kind

  explicit Churn(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    net_ = deployed_internet(seed_);
    const auto& topo = net_->topology();
    pairs_ = make_pairs(topo, kPairs, seed_);

    // Victim candidates, in Kind order.
    std::vector<std::uint32_t> intra, inter, routers, members;
    for (const auto& link : topo.links()) {
      (link.interdomain ? inter : intra).push_back(link.id.value());
    }
    for (const auto& router : topo.routers()) routers.push_back(router.id.value());
    for (const NodeId r : net_->vnbone().deployed_routers()) {
      members.push_back(r.value());
    }
    const std::vector<std::uint32_t>* candidates[] = {&intra, &inter, &routers,
                                                      &members};
    SplitMix rng(seed_ ^ 0xC4A11E5ull);
    for (int i = 0; i < kCycle; ++i) {
      const auto& from = *candidates[i % 4];
      cycle_.push_back({static_cast<Kind>(i % 4), from[rng.below(from.size())]});
    }
    compile_all(nullptr);
    for (const auto& trace : evo::core::send_ipvn_batch(*net_, pairs_)) {
      if (!trace.delivered) {
        throw std::runtime_error("churn: probe undelivered at set-up");
      }
    }
  }

  void prepare(int) override { before_ = snapshot(*net_); }

  void run(int index, Tracer* tracer) override {
    const Episode& e = cycle_[static_cast<std::size_t>(index) % cycle_.size()];
    phase(e, /*repair=*/false, tracer, during_);
    phase(e, /*repair=*/true, tracer, after_);
  }

  OpResult check(int) override {
    OpResult r;
    r.ok = true;
    r.counts = counts_since(before_, *net_);
    for (const auto& t : during_) {
      r.ok = r.ok && !looped(t);
      if (t.delivered) ++r.counts.during_delivered;
    }
    for (const auto& t : after_) {
      r.ok = r.ok && t.delivered && !looped(t);
      if (t.delivered) ++r.counts.delivered;
    }
    r.counts.during_probes = during_.size();
    r.counts.delivered += r.counts.during_delivered;
    return r;
  }

  /// The quiescence-time sync is one idle callback inside the simulator,
  /// so its two main steps are timed by running them again on the synced
  /// state, where they must leave every FIB and virtual link unchanged.
  bool probe_layers(Tracer& tracer) override {
    {
      Scope s(&tracer, "bgp.install");
      net_->bgp().install_routes();
    }
    {
      Scope s(&tracer, "vnbone.rebuild");
      net_->vnbone().rebuild();
    }
    return probe_common_layers(*net_, pairs_, tracer);
  }

  int cycle() const override { return kCycle; }
  EvolvableInternet& internet() override { return *net_; }

 private:
  enum class Kind : std::uint8_t { kIntraLink, kInterLink, kRouterCrash, kMemberLoss };
  struct Episode {
    Kind kind = Kind::kIntraLink;
    std::uint32_t subject = 0;
  };

  void apply(const Episode& e, bool repair) {
    switch (e.kind) {
      case Kind::kIntraLink:
      case Kind::kInterLink: net_->set_link_up(LinkId{e.subject}, repair); break;
      case Kind::kRouterCrash: net_->set_node_up(NodeId{e.subject}, repair); break;
      case Kind::kMemberLoss:
        if (repair) {
          net_->deploy_router(NodeId{e.subject});
        } else {
          net_->undeploy_router(NodeId{e.subject});
        }
        break;
    }
  }

  /// Read every router's compiled FIB, so the FIBs the sync rewrote are
  /// recompiled here rather than inside whichever probe reads them first.
  void compile_all(Tracer* tracer) {
    Scope s(tracer, "net.fib_compile");
    const auto& network = net_->network();
    for (const auto& router : network.topology().routers()) {
      (void)network.compiled_fib(router.id);
    }
  }

  void phase(const Episode& e, bool repair, Tracer* tracer,
             std::vector<EndToEndTrace>& probes) {
    auto& sim = net_->simulator();
    if (tracer == nullptr) {
      apply(e, repair);
      sim.run();
    } else {
      // Idle callbacks fire in registration order: marker A (registered
      // before the injection arms the control sync) ends propagation,
      // marker B (registered after) ends the sync.
      const char* propagate = e.kind == Kind::kIntraLink || e.kind == Kind::kMemberLoss
                                  ? "igp.reconverge"
                                  : "bgp.propagate";
      Clock::time_point a;
      Clock::time_point b;
      const Clock::time_point start = Clock::now();
      sim.notify_on_idle([&a] { a = Clock::now(); });
      apply(e, repair);
      sim.notify_on_idle([&b] { b = Clock::now(); });
      sim.run();
      const Clock::time_point end = Clock::now();
      tracer->add(propagate, start, a);
      tracer->add("core.sync", a, b);
      tracer->add(propagate, b, end);
    }
    compile_all(tracer);
    Scope s(tracer, "core.send_ipvn_batch");
    probes = evo::core::send_ipvn_batch(*net_, pairs_);
  }

  std::uint64_t seed_;
  std::unique_ptr<EvolvableInternet> net_;
  std::vector<HostPair> pairs_;
  std::vector<Episode> cycle_;
  Snapshot before_;
  std::vector<EndToEndTrace> during_;
  std::vector<EndToEndTrace> after_;
};

// --- traffic ---------------------------------------------------------------

/// Each op sends the same seeded host pairs through both IPvN forwarding
/// drivers on a converged internet: synchronous send_ipvn_batch, then the
/// event-driven IpvnTransport. No control-plane work.
class Traffic final : public Workload {
 public:
  static constexpr std::size_t kPairs = 512;

  explicit Traffic(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    net_ = deployed_internet(seed_);
    pairs_ = make_pairs(net_->topology(), kPairs, seed_);
    for (const auto& trace : evo::core::send_ipvn_batch(*net_, pairs_)) {
      if (!trace.delivered) {
        throw std::runtime_error("traffic: pair undelivered at set-up");
      }
      expected_cost_.push_back(trace.total_cost());
    }
    transport_ = std::make_unique<evo::core::IpvnTransport>(*net_);
  }

  void prepare(int) override {
    before_ = snapshot(*net_);
    sent_before_ = transport_->datagrams_sent();
    received_before_ = transport_->datagrams_received();
    failed_before_ = transport_->datagrams_failed();
  }

  void run(int, Tracer* tracer) override {
    {
      Scope s(tracer, "core.send_ipvn_batch");
      results_ = evo::core::send_ipvn_batch(*net_, pairs_);
    }
    Scope s(tracer, "core.transport");
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      transport_->send(pairs_[i].src, pairs_[i].dst, i);
    }
    Scope drain(tracer, "sim.transport_run");
    net_->simulator().run();
  }

  OpResult check(int) override {
    OpResult r;
    r.counts = counts_since(before_, *net_);
    const std::uint64_t sent = transport_->datagrams_sent() - sent_before_;
    const std::uint64_t received = transport_->datagrams_received() - received_before_;
    const std::uint64_t failed = transport_->datagrams_failed() - failed_before_;
    r.ok = results_.size() == pairs_.size() && sent == pairs_.size() &&
           received == sent && failed == 0;
    for (std::size_t i = 0; r.ok && i < results_.size(); ++i) {
      r.ok = results_[i].delivered && results_[i].total_cost() == expected_cost_[i];
      if (r.ok) ++r.counts.delivered;
    }
    r.counts.delivered += received;
    return r;
  }

  bool probe_layers(Tracer& tracer) override {
    return probe_common_layers(*net_, pairs_, tracer);
  }

  EvolvableInternet& internet() override { return *net_; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<EvolvableInternet> net_;
  std::unique_ptr<evo::core::IpvnTransport> transport_;
  std::vector<HostPair> pairs_;
  std::vector<evo::net::Cost> expected_cost_;
  std::vector<EndToEndTrace> results_;
  Snapshot before_;
  std::uint64_t sent_before_ = 0;
  std::uint64_t received_before_ = 0;
  std::uint64_t failed_before_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "bringup") return std::make_unique<Bringup>(seed);
  if (name == "churn") return std::make_unique<Churn>(seed);
  if (name == "traffic") return std::make_unique<Traffic>(seed);
  return nullptr;
}

evo::net::Topology make_topology(std::uint64_t seed) {
  auto topo = evo::net::generate_transit_stub(
      {.transit_domains = 24, .stubs_per_transit = 4, .seed = seed});
  evo::sim::Rng rng{seed ^ 0xB0B};
  evo::net::attach_hosts(topo, 2, rng);
  return topo;
}

std::vector<DomainId> deployed_domains(const evo::net::Topology& topo) {
  std::vector<DomainId> out;
  std::size_t transit = 0;
  for (const auto& domain : topo.domains()) {
    if (domain.stub) continue;
    if (transit++ % 3 == 0) out.push_back(domain.id);
  }
  return out;
}

}  // namespace perfbench
