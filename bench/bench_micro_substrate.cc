// Experiment E9: substrate microbenchmarks (google-benchmark).
//
// FIB longest-prefix match, Dijkstra/SPF, trace throughput, event-queue
// schedule/fire, control plane convergence (LS flooding, DV settling, BGP
// propagation) and BGP-to-FIB install — the costs that bound how large the
// scenario experiments can scale.
//
// `--json <path>` additionally writes a flat {metric → value} artifact
// (ns_per_op and items_per_sec per benchmark); BENCH_micro_substrate.json
// at the repo root is the committed baseline of that output.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "bench_util.h"
#include "bgp/bgp.h"
#include "core/evolvable_internet.h"
#include "core/trace.h"
#include "igp/distance_vector.h"
#include "igp/link_state.h"
#include "net/compiled_fib.h"
#include "net/fib.h"
#include "net/topology_gen.h"
#include "sim/event_queue.h"
#include "sim/inplace_fn.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace evo {
namespace {

/// `entries` /16 routes, the table shape the FIB benches have always used.
net::Fib make_fib(std::uint32_t entries) {
  net::Fib fib;
  for (std::uint32_t i = 0; i < entries; ++i) {
    net::FibEntry e;
    e.prefix = net::Prefix{net::Ipv4Addr{(i + 1) << 16}, 16};
    e.next_hop = net::NodeId{i};
    fib.insert(e);
  }
  return fib;
}

/// Pre-generated probe addresses hitting random installed /16s. Generating
/// addresses inside the timed loop serializes every iteration behind a
/// 64-bit divide, which dominates and masks the actual lookup cost.
std::vector<net::Ipv4Addr> make_probes(std::uint32_t entries) {
  sim::Rng rng{1};
  std::vector<net::Ipv4Addr> probes(4096);
  for (auto& addr : probes) {
    addr = net::Ipv4Addr{static_cast<std::uint32_t>(
        ((rng.next_u64() % entries + 1) << 16) | 7)};
  }
  return probes;
}

void BM_CompiledFibLookup(benchmark::State& state) {
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  const net::Fib fib = make_fib(entries);
  net::CompiledFib compiled;
  compiled.compile(fib);
  const auto probes = make_probes(entries);
  std::uint64_t hits = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    hits += compiled.lookup(probes[i]) != nullptr;
    i = (i + 1) & (probes.size() - 1);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompiledFibLookup)->Arg(64)->Arg(1024)->Arg(16384);

/// A benchmark router's table shape: the /16s of 108 of 120 domains (every
/// tenth missing, as for an unreachable domain) and 8 router loopbacks in
/// its own /16, about 137 ranges. Unlike make_fib's contiguous /16s, an
/// index block here holds several ranges, so lookups pay the bounded
/// search as well as the index load.
net::Fib make_clustered_fib() {
  net::Fib fib;
  for (std::uint32_t d = 0; d < 120; ++d) {
    if (d % 10 == 9) continue;
    net::FibEntry e;
    e.prefix = net::Prefix{net::Ipv4Addr{(d + 1) << 16}, 16};
    e.next_hop = net::NodeId{d};
    fib.insert(e);
  }
  for (std::uint32_t r = 0; r < 8; ++r) {
    net::FibEntry e;
    e.prefix = net::Prefix::host(net::Ipv4Addr{(8u << 16) | (r << 8) | 1});
    e.next_hop = net::NodeId{r};
    fib.insert(e);
  }
  return fib;
}

void BM_CompiledFibLookupClustered(benchmark::State& state) {
  const net::Fib fib = make_clustered_fib();
  net::CompiledFib compiled;
  compiled.compile(fib);
  // Addresses across the 120 /16s, gaps included; every eighth is a
  // loopback.
  sim::Rng rng{1};
  std::vector<net::Ipv4Addr> probes(4096);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes[i] = net::Ipv4Addr{static_cast<std::uint32_t>(
        i % 8 == 0 ? (8u << 16) | ((rng.next_u64() % 8) << 8) | 1
                   : ((rng.next_u64() % 120 + 1) << 16) | (rng.next_u64() & 0xFFFF))};
  }
  std::uint64_t hits = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    hits += compiled.lookup(probes[i]) != nullptr;
    i = (i + 1) & (probes.size() - 1);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(compiled.range_count()) + " ranges");
}
BENCHMARK(BM_CompiledFibLookupClustered);

void BM_CompiledFibCompile(benchmark::State& state) {
  // Recompile cost: what one route-epoch invalidation costs a router the
  // next time the data plane touches it.
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  const net::Fib fib = make_fib(entries);
  net::CompiledFib compiled;
  for (auto _ : state) {
    compiled.compile(fib);
    benchmark::DoNotOptimize(compiled.range_count());
  }
  state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_CompiledFibCompile)->Arg(64)->Arg(1024)->Arg(16384);

void BM_FibInsert(benchmark::State& state) {
  for (auto _ : state) {
    net::Fib fib;
    for (std::uint32_t i = 0; i < 1024; ++i) {
      net::FibEntry e;
      e.prefix = net::Prefix{net::Ipv4Addr{(i + 1) << 16}, 16};
      e.next_hop = net::NodeId{i};
      fib.insert(e);
    }
    benchmark::DoNotOptimize(fib.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FibInsert);

// ---------------------------------------------------------------------------
// Event queue: calendar queue vs the heap it replaced.

/// The pre-calendar EventQueue, kept verbatim as the performance baseline:
/// one std::priority_queue entry + one type-erasure allocation + one
/// shared_ptr<bool> cancellation flag per event.
class RefHeapQueue {
 public:
  void schedule(sim::TimePoint when, std::function<void()> fn) {
    heap_.push(Entry{when, next_seq_++, std::move(fn),
                     std::make_shared<bool>(false)});
  }
  bool empty() const {
    skim();
    return heap_.empty();
  }
  struct Popped {
    sim::TimePoint when;
    std::function<void()> fn;
  };
  Popped pop() {
    skim();
    Entry top = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    *top.cancelled = true;
    return Popped{top.when, std::move(top.fn)};
  }

 private:
  struct Entry {
    sim::TimePoint when;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  void skim() const {
    while (!heap_.empty() && *heap_.top().cancelled) heap_.pop();
  }
  mutable std::priority_queue<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Pseudorandom event delays, the hold-model's arrival process: mostly
/// sub-horizon (link latencies, protocol timers), a tail of multi-second
/// timers that exercises the calendar's overflow path.
std::vector<sim::Duration> make_delays() {
  sim::Rng rng{99};
  std::vector<sim::Duration> delays(4096);
  for (auto& d : delays) {
    const auto us = rng.uniform_int(1, 50'000);          // up to 50ms
    d = sim::Duration::micros(rng.bernoulli(0.01) ? us * 200 : us);
  }
  return delays;
}

/// Classic hold model: keep `hold` events pending; each iteration fires
/// the earliest and schedules a replacement. Measures steady-state
/// schedule+fire cost including the callback's type erasure.
template <typename Queue>
void schedule_fire_hold(benchmark::State& state) {
  const auto hold = static_cast<std::size_t>(state.range(0));
  const auto delays = make_delays();
  Queue q;
  std::uint64_t fired = 0;
  sim::TimePoint now = sim::TimePoint::origin();
  std::size_t i = 0;
  for (std::size_t k = 0; k < hold; ++k) {
    q.schedule(now + delays[i++ & (delays.size() - 1)], [&fired] { ++fired; });
  }
  for (auto _ : state) {
    auto popped = q.pop();
    now = popped.when;
    popped.fn();
    q.schedule(now + delays[i++ & (delays.size() - 1)], [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}

void BM_EventQueueScheduleFire(benchmark::State& state) {
  schedule_fire_hold<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RefHeapScheduleFire(benchmark::State& state) {
  schedule_fire_hold<RefHeapQueue>(state);
}
BENCHMARK(BM_RefHeapScheduleFire)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EventQueueCancel(benchmark::State& state) {
  // Generation-compare cancellation: schedule + cancel + (dead) skim. The
  // hold keeps the calendar populated so cancels hit realistic buckets.
  sim::EventQueue q;
  const auto delays = make_delays();
  sim::TimePoint now = sim::TimePoint::origin();
  std::size_t i = 0;
  std::uint64_t fired = 0;
  for (std::size_t k = 0; k < 1024; ++k) {
    q.schedule(now + delays[i++ & (delays.size() - 1)], [&fired] { ++fired; });
  }
  for (auto _ : state) {
    auto handle =
        q.schedule(now + delays[i++ & (delays.size() - 1)], [&fired] { ++fired; });
    handle.cancel();
    auto popped = q.pop();
    now = popped.when;
    popped.fn();
    q.schedule(now + delays[i++ & (delays.size() - 1)], [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancel);

// ---------------------------------------------------------------------------
// Callback type erasure: InplaceFn vs std::function for a capture that is
// representative of protocol events (40 bytes: this-style pointer + ids).

struct FatCapture {
  std::uint64_t* sink;
  std::uint64_t a, b, c, d;
  void operator()() const { *sink += a + b + c + d; }
};

void BM_InplaceFnRoundTrip(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    sim::EventFn fn{FatCapture{&sink, ++i, 2, 3, 4}};
    benchmark::DoNotOptimize(fn);  // forbid folding the erased dispatch away
    fn();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InplaceFnRoundTrip);

void BM_StdFunctionRoundTrip(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::function<void()> fn{FatCapture{&sink, ++i, 2, 3, 4}};
    benchmark::DoNotOptimize(fn);
    fn();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdFunctionRoundTrip);

// ---------------------------------------------------------------------------
// ParallelSweep: harness overhead and scaling on a real simulator cell.

void BM_ParallelSweepCells(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const sim::ParallelSweep pool(threads);
  for (auto _ : state) {
    const auto results = pool.run(
        8, /*sweep_seed=*/7, [](std::size_t, sim::Rng& rng) {
          sim::Simulator simulator;
          std::uint64_t acc = 0;
          for (int burst = 0; burst < 64; ++burst) {
            for (int e = 0; e < 64; ++e) {
              simulator.schedule_after(
                  sim::Duration::micros(rng.uniform_int(1, 20'000)),
                  [&acc] { ++acc; });
            }
            simulator.run();
          }
          sim::CellResult result;
          result.metrics.increment("events", static_cast<std::int64_t>(acc));
          return result;
        });
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 64 * 64);
}
BENCHMARK(BM_ParallelSweepCells)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Dijkstra(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto topo = net::single_domain_grid(n, n);
  const auto graph = topo.physical_graph();
  for (auto _ : state) {
    const auto paths = net::dijkstra(graph, net::NodeId{0});
    benchmark::DoNotOptimize(paths.distance.back());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Dijkstra)->Arg(8)->Arg(16)->Arg(32);

void BM_DataPlaneTrace(benchmark::State& state) {
  core::EvolvableInternet net(net::single_domain_grid(8, 8));
  net.start();
  const auto& routers = net.topology().domain(net::DomainId{0}).routers;
  const auto dst = net.topology().router(routers.back()).loopback;
  for (auto _ : state) {
    const auto trace = net.network().trace(routers.front(), dst);
    benchmark::DoNotOptimize(trace.cost);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataPlaneTrace);

void BM_DataPlaneTraceBatch(benchmark::State& state) {
  // All-pairs-from-corner probe fan-out through trace_batch: amortizes
  // compiled-FIB freshness checks and result allocation across a sweep.
  core::EvolvableInternet net(net::single_domain_grid(8, 8));
  net.start();
  const auto& routers = net.topology().domain(net::DomainId{0}).routers;
  std::vector<net::Network::ProbeSpec> probes;
  probes.reserve(routers.size());
  for (const auto dst : routers) {
    probes.push_back({.from = routers.front(),
                      .dst = net.topology().router(dst).loopback});
  }
  for (auto _ : state) {
    const auto traces = net.network().trace_batch(probes);
    benchmark::DoNotOptimize(traces.back().cost);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probes.size()));
}
BENCHMARK(BM_DataPlaneTraceBatch);

void BM_LinkStateConvergence(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    net::Topology topo;
    const auto d = topo.add_domain("d");
    sim::Rng rng{42};
    net::populate_domain(topo, d, {.routers = n, .chord_probability = 0.3}, rng);
    sim::Simulator simulator;
    net::Network network(std::move(topo));
    igp::LinkStateIgp igp(simulator, network, d);
    state.ResumeTiming();
    igp.start();
    simulator.run();
    benchmark::DoNotOptimize(igp.messages_sent());
  }
}
BENCHMARK(BM_LinkStateConvergence)->Arg(8)->Arg(16)->Arg(32);

void BM_DistanceVectorConvergence(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    net::Topology topo;
    const auto d = topo.add_domain("d");
    sim::Rng rng{42};
    net::populate_domain(topo, d, {.routers = n, .chord_probability = 0.3}, rng);
    sim::Simulator simulator;
    net::Network network(std::move(topo));
    igp::DistanceVectorIgp igp(simulator, network, d);
    state.ResumeTiming();
    igp.start();
    simulator.run();
    benchmark::DoNotOptimize(igp.messages_sent());
  }
}
BENCHMARK(BM_DistanceVectorConvergence)->Arg(8)->Arg(16)->Arg(32);

void BM_BgpConvergence(benchmark::State& state) {
  const auto domains = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto topo = net::generate_transit_stub(
        {.transit_domains = domains / 4 + 1,
         .stubs_per_transit = 3,
         .seed = 11});
    auto net = std::make_unique<core::EvolvableInternet>(std::move(topo));
    state.ResumeTiming();
    net->start();
    benchmark::DoNotOptimize(net->bgp().messages_sent());
  }
}
BENCHMARK(BM_BgpConvergence)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BGP-to-FIB install, apart from propagation: link-state IGPs and a
// BgpSystem (no EvolvableInternet) on the perfbench internet shape, four
// stubs per transit, converged before anything is timed.

struct BgpInstallFixture {
  explicit BgpInstallFixture(std::uint32_t domains)
      : network(net::generate_transit_stub(
            {.transit_domains = domains / 5, .stubs_per_transit = 4, .seed = 1})) {
    for (const auto& domain : network.topology().domains()) {
      igps.push_back(
          std::make_unique<igp::LinkStateIgp>(simulator, network, domain.id));
    }
    bgp = std::make_unique<bgp::BgpSystem>(
        simulator, network,
        [this](net::DomainId d) -> const igp::Igp* { return igps[d.value()].get(); });
    for (auto& igp : igps) igp->start();
    bgp->start();
    simulator.run();
  }

  /// Crash or recover `node` and run to quiescence, notifying the
  /// protocols as EvolvableInternet::set_node_up does.
  void set_node_up(net::NodeId node, bool up) {
    auto& topo = network.topology();
    topo.set_node_up(node, up);
    bgp->on_node_change(node, up);
    for (const net::LinkId link : topo.router(node).links) {
      if (!topo.link(link).up) continue;
      if (topo.link(link).interdomain) {
        bgp->on_link_change(link);
      } else {
        igps[topo.router(node).domain.value()]->on_link_change(link);
      }
    }
    simulator.run();
  }

  sim::Simulator simulator;
  net::Network network;
  std::vector<std::unique_ptr<igp::LinkStateIgp>> igps;
  std::unique_ptr<bgp::BgpSystem> bgp;
};

void BM_InstallRoutesFull(benchmark::State& state) {
  // The first install after BGP quiescence: every prefix at every router.
  // Each iteration converges a new system untimed.
  std::optional<BgpInstallFixture> f;
  for (auto _ : state) {
    state.PauseTiming();
    f.emplace(static_cast<std::uint32_t>(state.range(0)));
    state.ResumeTiming();
    f->bgp->install_routes();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_InstallRoutesFull)->Arg(40)->Arg(80)->Arg(120)->Unit(benchmark::kMicrosecond);

void BM_InstallRoutesAfterBorderCrash(benchmark::State& state) {
  // The sync after a single-homed stub loses its only border router: the
  // stub's prefix is withdrawn in every domain. Recovery (and its install)
  // runs untimed between iterations.
  BgpInstallFixture f(static_cast<std::uint32_t>(state.range(0)));
  f.bgp->install_routes();
  net::NodeId victim = net::NodeId::invalid();
  for (const auto& domain : f.network.topology().domains()) {
    const auto& speakers = f.bgp->speakers_of(domain.id);
    if (domain.stub && speakers.size() == 1) {
      victim = speakers.front();
      break;
    }
  }
  if (!victim.valid()) {
    state.SkipWithError("no single-homed stub");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    f.set_node_up(victim, false);
    state.ResumeTiming();
    f.bgp->install_routes();
    benchmark::ClobberMemory();
    state.PauseTiming();
    f.set_node_up(victim, true);
    f.bgp->install_routes();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_InstallRoutesAfterBorderCrash)->Arg(120)->Unit(benchmark::kMicrosecond);

/// A converged 16-domain internet with every router deployed.
std::unique_ptr<core::EvolvableInternet> deployed_internet() {
  auto net = std::make_unique<core::EvolvableInternet>(net::generate_transit_stub(
      {.transit_domains = 4, .stubs_per_transit = 3, .seed = 13}));
  net->start();
  for (const auto& d : net->topology().domains()) net->deploy_domain(d.id);
  net->converge();
  return net;
}

void BM_VnBoneRebuild(benchmark::State& state) {
  // A rebuild whose inputs did not move: every domain's intra links come
  // from the cache and the link list (so the trees) stays the same.
  const auto net = deployed_internet();
  for (auto _ : state) {
    net->vnbone().rebuild();
    benchmark::DoNotOptimize(net->vnbone().virtual_links().size());
  }
  state.SetLabel(std::to_string(net->vnbone().deployed_routers().size()) +
                 " routers");
}
BENCHMARK(BM_VnBoneRebuild)->Unit(benchmark::kMillisecond);

void BM_VnBoneRebuildMemberFlip(benchmark::State& state) {
  // Two rebuilds whose inputs moved: one transit member leaves, then
  // rejoins, so its domain's intra links are recomputed and the link list
  // changes each time. The IGP work the flip schedules drains untimed.
  const auto net = deployed_internet();
  auto& bone = net->vnbone();
  const net::NodeId member = net->topology().domain(net::DomainId{0}).routers[1];
  for (auto _ : state) {
    bone.undeploy_router(member);
    bone.rebuild();
    bone.deploy_router(member);
    bone.rebuild();
    state.PauseTiming();
    net->converge();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_VnBoneRebuildMemberFlip)->Unit(benchmark::kMillisecond);

void BM_EndToEndSend(benchmark::State& state) {
  auto topo = net::generate_transit_stub(
      {.transit_domains = 2, .stubs_per_transit = 2, .seed = 17});
  sim::Rng rng{17};
  net::attach_hosts(topo, 2, rng);
  core::EvolvableInternet net(std::move(topo));
  net.start();
  net.deploy_domain(net::DomainId{0});
  net.converge();
  for (auto _ : state) {
    const auto trace = core::send_ipvn(net, net::HostId{0}, net::HostId{7});
    benchmark::DoNotOptimize(trace.delivered);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndSend);

/// ConsoleReporter that additionally records ns_per_op (and items_per_sec
/// when SetItemsProcessed was used) for the --json artifact.
class JsonRecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonRecordingReporter(bench::JsonWriter& json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      const std::string name = run.benchmark_name();
      json_.set(name + ".ns_per_op", run.real_accumulated_time /
                                         static_cast<double>(run.iterations) *
                                         1e9);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        json_.set(name + ".items_per_sec", items->second.value);
      }
    }
  }

 private:
  bench::JsonWriter& json_;
};

}  // namespace
}  // namespace evo

int main(int argc, char** argv) {
  // Peel off --json <path> (ours) before google-benchmark sees the rest.
  std::string json_path;
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    if (std::string_view(*it) == "--json" && it + 1 != args.end()) {
      json_path = *(it + 1);
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  evo::bench::JsonWriter json;
  evo::bench::fill_standard_meta(json, "micro_substrate", 1);
  evo::JsonRecordingReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}
