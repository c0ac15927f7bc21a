#include "core/universal_access.h"

#include <map>

namespace evo::core {

using net::HostId;
using net::NodeId;

UaReport verify_universal_access(const EvolvableInternet& internet,
                                 std::size_t max_pairs, std::uint64_t seed) {
  UaReport report;
  const auto& topo = internet.topology();
  const std::size_t n = topo.host_count();
  if (n < 2) return report;

  std::vector<HostPair> pairs;
  const std::size_t all = n * (n - 1);
  if (max_pairs == 0 || all <= max_pairs) {
    pairs.reserve(all);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (i != j) pairs.push_back({HostId{i}, HostId{j}});
      }
    }
  } else {
    sim::Rng rng{seed};
    pairs.reserve(max_pairs);
    for (std::size_t k = 0; k < max_pairs; ++k) {
      const auto i = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      auto j = i;
      while (j == i) {
        j = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      }
      pairs.push_back({HostId{i}, HostId{j}});
    }
  }

  double cost_sum = 0.0;
  double stretch_sum = 0.0;
  std::size_t stretch_count = 0;
  const auto traces = send_ipvn_batch(internet, pairs);
  // Physical shortest paths, one Dijkstra per distinct source access router.
  const net::Graph physical = topo.physical_graph();
  std::map<NodeId, net::ShortestPaths> paths_from;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto [src, dst] = pairs[k];
    const EndToEndTrace& trace = traces[k];
    ++report.pairs_checked;
    if (!trace.delivered) {
      report.failures.push_back(UaFailure{src, dst, trace.failure});
      continue;
    }
    ++report.pairs_delivered;
    cost_sum += static_cast<double>(trace.total_cost());
    const NodeId from = topo.host(src).access_router;
    auto paths = paths_from.find(from);
    if (paths == paths_from.end()) {
      paths = paths_from.emplace(from, net::dijkstra(physical, from)).first;
    }
    const net::Cost oracle = paths->second.distance_to(topo.host(dst).access_router);
    if (oracle > 0 && oracle != net::kInfiniteCost) {
      stretch_sum += static_cast<double>(trace.total_cost()) /
                     static_cast<double>(oracle);
      ++stretch_count;
    }
  }
  if (report.pairs_delivered > 0) {
    report.mean_cost = cost_sum / static_cast<double>(report.pairs_delivered);
  }
  if (stretch_count > 0) {
    report.mean_stretch = stretch_sum / static_cast<double>(stretch_count);
  }
  return report;
}

}  // namespace evo::core
