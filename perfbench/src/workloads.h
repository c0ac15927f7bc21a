// The three workloads. Each runs closed-loop on one thread: the harness
// calls prepare() and check() untimed around every timed run().
//
// All share one input, generated from the workload seed: a transit-stub
// Internet of 24 transit domains with 4 stubs each (120 domains, 480
// routers), 2 hosts per stub (192 hosts), link-state IGPs and default
// Options, and IPvN deployed in every third transit domain (8 domains).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/evolvable_internet.h"
#include "tracer.h"

namespace perfbench {

/// Exact per-op work counts. A pure speed change leaves every field equal,
/// and the traced run must reproduce the untraced run's values op by op.
struct OpCounts {
  std::uint64_t bgp_messages = 0;
  std::uint64_t igp_messages = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t lookups = 0;
  std::uint64_t fib_compiles = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t delivered = 0;         // datagrams/probes delivered by the op
  std::uint64_t during_probes = 0;     // churn: probes sent while failed
  std::uint64_t during_delivered = 0;  // churn: ... of which delivered
  std::uint64_t digest = 0;            // state_digest after the op

  friend bool operator==(const OpCounts&, const OpCounts&) = default;
};

struct OpResult {
  bool ok = false;
  OpCounts counts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the state the ops start from. Called once, before any op.
  virtual void setup() = 0;
  /// Untimed work before op `index`.
  virtual void prepare(int index) = 0;
  /// The timed op. With a tracer, each call into a layer is a span.
  virtual void run(int index, Tracer* tracer) = 0;
  /// Untimed validation of op `index`'s output.
  virtual OpResult check(int index) = 0;
  /// Traced runs only, after check(): time single layer functions on the
  /// quiescent state the op left. Returns false if the state was not
  /// quiescent (a layer still had work to do).
  virtual bool probe_layers(Tracer& /*tracer*/) { return true; }
  /// Ops come in cycles of this length; the traced run stops at a cycle
  /// boundary so per-op counts average over whole cycles.
  virtual int cycle() const { return 1; }
  /// The internet the last op (or the set-up) left behind.
  virtual evo::core::EvolvableInternet& internet() = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// The shared input topology for `seed` (hosts attached).
evo::net::Topology make_topology(std::uint64_t seed);

/// The transit domains IPvN is deployed in: every third one.
std::vector<evo::net::DomainId> deployed_domains(const evo::net::Topology& topo);

}  // namespace perfbench
