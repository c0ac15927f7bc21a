// perfbench: run one workload closed-loop for a fixed time and print its
// metrics; the last line of stdout is a JSON object with the keys
// correct, attempted, failed and metrics.
//
//   perfbench --workload <bringup|churn|traffic> --seed <n> --seconds <s>
//             --trace <0|1> [--spans <path>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced for half the time, then the same number of ops on a fresh
// set-up with spans around every call into a layer; it reports the
// per-layer metrics, checks that both halves did exactly the same work,
// and writes the spans to --spans.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "digest.h"
#include "ref_kernel.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 21;
constexpr int kMinOps = 16;
constexpr int kRefRuns = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <bringup|churn|traffic> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    usage(argv[0]);
  }
  return args;
}

/// One reference sample: the mean of kRefRuns back-to-back kernel runs.
/// On a shared host the kernel's time swings by a fifth within
/// milliseconds; the mean, unlike the minimum, follows the share of time
/// the host runs slow, which is what stretches the op. Clears `ok` on a
/// checksum mismatch.
double time_ref(bool& ok) {
  double total = 0;
  for (int i = 0; i < kRefRuns; ++i) {
    const auto t0 = Clock::now();
    const std::uint64_t sum = ref_kernel();
    total += ms_between(t0, Clock::now());
    if (sum != kRefChecksum) {
      std::fprintf(stderr, "reference kernel checksum %llu != %llu\n",
                   static_cast<unsigned long long>(sum),
                   static_cast<unsigned long long>(kRefChecksum));
      ok = false;
    }
  }
  return total / kRefRuns;
}

/// The process's peak resident set so far.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One timed loop's raw record.
struct Loop {
  std::vector<double> op_ms;
  std::vector<double> ref_before;
  std::vector<double> ref_after;
  std::vector<OpCounts> counts;
  FailureCount failures;
  double seconds = 0;
  double rss_mb = 0;  // peak resident set after the first kMinOps ops

  std::vector<double> op_ref() const {
    return normalize_paired(op_ms, ref_before, ref_after);
  }
  std::vector<double> refs() const {
    std::vector<double> all = ref_before;
    all.insert(all.end(), ref_after.begin(), ref_after.end());
    return all;
  }
};

/// Run ops until `seconds` have passed and at least kMinOps ran, or exactly
/// `ops` ops when `ops` > 0. With `whole_cycles` a timed loop also ends only
/// at a cycle boundary.
Loop run_loop(Workload& w, double seconds, int ops, bool whole_cycles, Tracer* tracer,
              bool& ref_ok) {
  Loop loop;
  const int cycle = whole_cycles ? w.cycle() : 1;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    if (ops > 0 ? i >= ops
                : i % cycle == 0 && i >= kMinOps &&
                      ms_between(start, Clock::now()) >= seconds * 1000) {
      break;
    }
    w.prepare(i);
    if (tracer != nullptr) tracer->begin_op(i);
    loop.ref_before.push_back(time_ref(ref_ok));
    const int span = tracer != nullptr ? tracer->open("op") : -1;
    const auto t0 = Clock::now();
    w.run(i, tracer);
    const auto t1 = Clock::now();
    if (tracer != nullptr) tracer->close(span);
    loop.ref_after.push_back(time_ref(ref_ok));
    loop.op_ms.push_back(ms_between(t0, t1));

    OpResult result = w.check(i);
    if (tracer != nullptr) {
      Scope s(tracer, "layers");
      result.ok = w.probe_layers(*tracer) && result.ok;
    }
    loop.failures.record(result.ok);
    loop.counts.push_back(result.counts);
    if (i + 1 == kMinOps) loop.rss_mb = peak_rss_mb();
  }
  loop.seconds = ms_between(start, Clock::now()) / 1000;
  return loop;
}

/// Untimed validation: the invariant oracles over the current state.
std::size_t violations(Workload& w, double* ms = nullptr) {
  const auto t0 = Clock::now();
  const auto found = evo::check::check_invariants(w.internet());
  if (ms != nullptr) *ms = ms_between(t0, Clock::now());
  for (const auto& v : found) {
    std::fprintf(stderr, "violation: %s\n", v.describe().c_str());
  }
  return found.size();
}

struct Metric {
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

void print_drift(const Loop& loop) {
  const Quartiles q = quartiles(loop.refs());
  std::printf("reference kernel ms  q1 %.4f  median %.4f  q3 %.4f  (%zu samples)\n",
              q.q1, q.q2, q.q3, loop.refs().size());
}

int end_to_end(const Args& args) {
  bool ref_ok = true;
  (void)time_ref(ref_ok);  // first-touch allocations stay out of the samples
  std::vector<double> setup_ms;
  std::vector<double> before;
  std::vector<double> after;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();  // tearing the previous set-up down is not timed
    workload = make_workload(args.workload, args.seed);
    before.push_back(time_ref(ref_ok));
    const auto t0 = Clock::now();
    workload->setup();
    setup_ms.push_back(ms_between(t0, Clock::now()));
    after.push_back(time_ref(ref_ok));
  }
  Workload& w = *workload;
  std::size_t bad = violations(w);
  const Loop loop = run_loop(w, args.seconds, 0, false, nullptr, ref_ok);
  bad += violations(w);

  const auto op_ref = loop.op_ref();
  const Tail op_tail = tail(op_ref);
  const Tail ms_tail = tail(loop.op_ms);
  std::map<std::string, Metric> metrics;
  metrics["setup_s"] = {median(setup_ms) / 1000, "s"};
  metrics["setup_ref"] = {median(normalize_paired(setup_ms, before, after)), "ref"};
  metrics["op_ref.p50"] = {median(op_ref), "ref"};
  metrics["op_ref.tail"] = {op_tail.value, "ref"};
  metrics["peak_rss_mb"] = {loop.rss_mb, "MB"};

  std::printf("workload %s  seed %llu  %zu ops in %.2f s  (%.2f ops/s)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              loop.op_ms.size(), loop.seconds, loop.op_ms.size() / loop.seconds);
  std::printf("op_ref.tail is p%.2f: %zu of %zu samples lie beyond it\n",
              op_tail.percentile, op_tail.beyond, op_tail.samples);
  std::printf("host ms (not gated)  op p50 %.4f  op p%.2f %.4f  setup median %.4f\n",
              median(loop.op_ms), ms_tail.percentile, ms_tail.value, median(setup_ms));
  print_drift(loop);
  std::printf("fail_frac %.6f (%llu of %llu ops failed)  invariant violations %zu\n",
              loop.failures.fail_frac(),
              static_cast<unsigned long long>(loop.failures.failed),
              static_cast<unsigned long long>(loop.failures.attempted), bad);
  for (const auto& [name, m] : metrics) {
    std::printf("%-12s %14.6f %s\n", name.c_str(), m.value, m.unit);
  }
  const bool correct = ref_ok && bad == 0 && loop.failures.failed == 0;
  print_result(correct, loop.failures.attempted, loop.failures.failed, metrics);
  return correct ? 0 : 1;
}

/// Per-op mean of one count over the loop's ops (whole cycles, so exact).
double mean_count(const Loop& loop, std::uint64_t OpCounts::*field) {
  double sum = 0;
  for (const auto& c : loop.counts) sum += static_cast<double>(c.*field);
  return loop.counts.empty() ? 0 : sum / static_cast<double>(loop.counts.size());
}

int traced(const Args& args) {
  const std::string& name = args.workload;
  bool ref_ok = true;
  (void)time_ref(ref_ok);

  // Untraced half: the reference for counts, digests and trace overhead.
  Loop plain;
  std::size_t bad = 0;
  std::uint64_t plain_digest = 0;
  {
    auto w = make_workload(name, args.seed);
    w->setup();
    bad += violations(*w);
    plain = run_loop(*w, args.seconds / 2, 0, true, nullptr, ref_ok);
    plain_digest = state_digest(w->internet());
  }

  auto w = make_workload(name, args.seed);
  Tracer tracer;
  w->setup();
  double check_ms[2] = {0, 0};
  bad += violations(*w, &check_ms[0]);
  const int ops = static_cast<int>(plain.op_ms.size());
  const Loop loop = run_loop(*w, 0, ops, false, &tracer, ref_ok);
  bad += violations(*w, &check_ms[1]);
  auto& net = w->internet();
  const std::uint64_t digest = state_digest(net);

  const bool same_work = loop.counts == plain.counts && digest == plain_digest;
  if (!same_work) std::fprintf(stderr, "traced and untraced runs did different work\n");

  std::map<std::string, Metric> m;
  // Each span name <layer>.<step> is reported as <layer>.<step>_ms.
  const char* const layer_spans[] = {
      "bgp.propagate",   "bgp.install",          "igp.start",
      "igp.reconverge",  "net.trace_batch",      "net.fib_compile",
      "sim.transport_run", "core.construct",     "core.sync",
      "core.send_ipvn_batch", "core.transport",  "anycast.sync",
      "anycast.probe_batch", "vnbone.rebuild",
  };
  for (const char* span : layer_spans) {
    std::vector<double> per_op;
    for (const auto& [op, ms] : tracer.per_op_ms(span)) per_op.push_back(ms);
    m[std::string(span) + "_ms"] = {median(per_op), "ms"};
  }
  m["bgp.messages"] = {mean_count(loop, &OpCounts::bgp_messages), "count"};
  m["igp.messages"] = {mean_count(loop, &OpCounts::igp_messages), "count"};
  m["sim.events"] = {mean_count(loop, &OpCounts::sim_events), "count"};
  m["net.forwarding.lookups"] = {mean_count(loop, &OpCounts::lookups), "count"};
  m["net.forwarding.fib_compiles"] = {mean_count(loop, &OpCounts::fib_compiles),
                                       "count"};
  m["net.forwarding.cache_hits"] = {mean_count(loop, &OpCounts::cache_hits), "count"};
  m["core.delivered"] = {mean_count(loop, &OpCounts::delivered), "count"};
  const double during = mean_count(loop, &OpCounts::during_probes);
  m["core.during_delivered_frac"] = {
      during == 0 ? 0 : mean_count(loop, &OpCounts::during_delivered) / during, "1"};
  std::uint64_t rib = 0;
  for (const auto& router : net.topology().routers()) {
    rib += net.bgp().loc_rib_size(router.id);
  }
  m["bgp.loc_rib_routes"] = {static_cast<double>(rib), "count"};
  m["vnbone.virtual_links"] = {
      static_cast<double>(net.vnbone().virtual_links().size()), "count"};
  m["sim.queue.live_high_water"] = {
      static_cast<double>(net.simulator().queue_stats().live_high_water),
      "count"};
  m["core.state_digest"] = {digest_metric(digest), "fnv48"};
  m["check.invariants_ms"] = {(check_ms[0] + check_ms[1]) / 2, "ms"};
  m["check.violations"] = {static_cast<double>(bad), "count"};

  const Quartiles ref = quartiles(plain.refs());
  m["bench.ref_ms.q1"] = {ref.q1, "ms"};
  m["bench.ref_ms.q2"] = {ref.q2, "ms"};
  m["bench.ref_ms.q3"] = {ref.q3, "ms"};
  const Tail ms_tail = tail(plain.op_ms);
  m["bench.op_ms.p50"] = {median(plain.op_ms), "ms"};
  m["bench.op_ms.tail"] = {ms_tail.value, "ms"};
  m["bench.ops_per_s"] = {plain.op_ms.size() / plain.seconds, "1/s"};
  const double traced_op_ms = median(loop.op_ms);
  m["bench.trace_overhead"] = {median(loop.op_ref()) / median(plain.op_ref()), "ratio"};
  FailureCount failures = plain.failures;
  failures.attempted += loop.failures.attempted;
  failures.failed += loop.failures.failed;
  m["fail_frac"] = {failures.fail_frac(), "1"};

  std::printf("workload %s  seed %llu  traced run: %zu untraced + %zu traced ops\n",
              name.c_str(), static_cast<unsigned long long>(args.seed),
              plain.op_ms.size(), loop.op_ms.size());
  std::printf("bench.op_ms.tail is p%.2f: %zu of %zu samples lie beyond it\n",
              ms_tail.percentile, ms_tail.beyond, ms_tail.samples);
  print_drift(plain);
  std::printf("traced op p50 %.4f ms; layer shares of it:\n", traced_op_ms);
  for (const char* span : layer_spans) {
    const double ms = m[std::string(span) + "_ms"].value;
    if (ms > 0) {
      std::printf("  %-24s %10.4f ms  %6.1f%%\n", span, ms, 100 * ms / traced_op_ms);
    }
  }
  std::printf("traced and untraced counts and digests %s\n",
              same_work ? "identical" : "DIFFER");
  for (const auto& [metric, value] : m) {
    std::printf("%-28s %18.6f %s\n", metric.c_str(), value.value, value.unit);
  }
  if (!args.spans.empty()) {
    if (tracer.write(args.spans)) {
      std::printf("wrote %zu spans to %s\n", tracer.spans().size(), args.spans.c_str());
    } else {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    }
  }
  const bool correct = ref_ok && bad == 0 && failures.failed == 0 && same_work;
  print_result(correct, failures.attempted, failures.failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  // Keep freed memory in the process: otherwise glibc hands the heap back
  // after each torn-down internet and the next build pays page faults,
  // whose cost depends on the host's memory pressure, not on this code.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // the largest glibc accepts
  if (make_workload(args.workload, args.seed) == nullptr) usage(argv[0]);
  try {
    return args.trace == 0 ? end_to_end(args) : traced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
