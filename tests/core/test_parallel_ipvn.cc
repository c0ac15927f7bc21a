// IPvN routing inside parallel sweep cells. route() fills the vN-Bone's
// routing tables from const calls, so a VnBone is not shared across
// threads: each cell builds and routes over its own internet. Runs under
// TSan in CI (label `parallel`).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/evolvable_internet.h"
#include "core/trace.h"
#include "net/topology_gen.h"
#include "sim/parallel.h"

namespace evo::core {
namespace {

using net::DomainId;
using net::HostId;

sim::CellResult ipvn_cell(std::size_t cell, sim::Rng& rng) {
  auto topo = net::generate_transit_stub(
      {.transit_domains = 3, .stubs_per_transit = 2, .seed = rng.next_u64()});
  net::attach_hosts(topo, 1, rng);
  EvolvableInternet internet(std::move(topo));
  internet.start();
  internet.deploy_domain(DomainId{0});
  internet.deploy_domain(DomainId{static_cast<std::uint32_t>(1 + cell % 2)});
  internet.converge();

  const auto n = static_cast<std::int64_t>(internet.topology().host_count());
  std::vector<HostPair> pairs;
  for (int i = 0; i < 32; ++i) {
    pairs.push_back({HostId{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))},
                     HostId{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))}});
  }
  sim::CellResult result;
  result.text = "cell " + std::to_string(cell) + ":";
  for (const auto& trace : send_ipvn_batch(internet, pairs)) {
    result.text += trace.delivered ? " D" : " F";
    result.text += std::to_string(trace.total_cost()) + "/" +
                   std::to_string(trace.egress.value()) + "/" +
                   std::to_string(trace.vn_route.vn_cost);
    result.metrics.increment("ipvn.delivered", trace.delivered ? 1 : 0);
  }
  result.text += "\n";
  return result;
}

std::string render(const std::vector<sim::CellResult>& cells) {
  std::string out;
  for (const auto& cell : cells) out += cell.text;
  return out;
}

TEST(ParallelIpvn, SendBatchCellsMatchAtOneAndFourThreads) {
  constexpr std::size_t kCells = 4;
  constexpr std::uint64_t kSeed = 2005;
  const auto serial = sim::ParallelSweep(1).run(kCells, kSeed, ipvn_cell);
  const auto parallel = sim::ParallelSweep(4).run(kCells, kSeed, ipvn_cell);
  EXPECT_EQ(render(parallel), render(serial));
  EXPECT_EQ(sim::merge_metrics(parallel).report(), sim::merge_metrics(serial).report());
  EXPECT_GT(sim::merge_metrics(serial).counter("ipvn.delivered"), 0);
}

}  // namespace
}  // namespace evo::core
