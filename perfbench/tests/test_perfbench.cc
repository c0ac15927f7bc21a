// Tests of the benchmark's own arithmetic and checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "digest.h"
#include "ref_kernel.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailRule, KeepsTenSamplesBeyondTheReportedOne) {
  auto values = one_to(100);
  std::reverse(values.begin(), values.end());  // input order must not matter
  const Tail t = tail(values);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);

  const Tail small = tail(one_to(11));
  EXPECT_EQ(small.value, 1.0);
  EXPECT_EQ(small.beyond, 10u);
  EXPECT_NEAR(small.percentile, 100.0 / 11, 1e-12);
}

TEST(TailRule, TooFewSamplesReportsTheMaximum) {
  const Tail t = tail(one_to(10));
  EXPECT_EQ(t.value, 10.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(t.samples, 10u);
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Normalization, DividesEachOpByTheMeanOfItsOwnPair) {
  const std::vector<double> op = {10, 20, 9};
  const std::vector<double> before = {2, 4, 1};
  const std::vector<double> after = {2, 6, 2};
  const auto ref = normalize_paired(op, before, after);
  ASSERT_EQ(ref.size(), 3u);
  EXPECT_DOUBLE_EQ(ref[0], 5.0);
  EXPECT_DOUBLE_EQ(ref[1], 4.0);
  EXPECT_DOUBLE_EQ(ref[2], 6.0);
}

TEST(Normalization, HostSlowdownCancels) {
  // The same op on a host 1.7x slower: op and reference both stretch.
  const std::vector<double> op = {12.5}, before = {1.25}, after = {1.35};
  const std::vector<double> slow_op = {12.5 * 1.7}, slow_before = {1.25 * 1.7},
                            slow_after = {1.35 * 1.7};
  EXPECT_DOUBLE_EQ(normalize_paired(op, before, after)[0],
                   normalize_paired(slow_op, slow_before, slow_after)[0]);
}

TEST(Normalization, RejectsUnpairedSamples) {
  const std::vector<double> op = {1, 2}, before = {1, 1}, after = {1};
  EXPECT_THROW(normalize_paired(op, before, after), std::invalid_argument);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles(values, n=4), default exclusive method.
  const Quartiles a = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = quartiles({3.0, 1.0});
  EXPECT_DOUBLE_EQ(b.q1, 0.5);
  EXPECT_DOUBLE_EQ(b.q2, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 3.5);
  const Quartiles c = quartiles({5, 1, 4, 2, 3, 9, 7});
  EXPECT_DOUBLE_EQ(c.q1, 2.0);
  EXPECT_DOUBLE_EQ(c.q2, 4.0);
  EXPECT_DOUBLE_EQ(c.q3, 7.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(FailFrac, CountsFailuresAgainstAttempts) {
  FailureCount f;
  EXPECT_EQ(f.fail_frac(), 0.0);
  for (int i = 0; i < 8; ++i) f.record(i % 4 != 3);  // two of eight fail
  EXPECT_EQ(f.attempted, 8u);
  EXPECT_EQ(f.failed, 2u);
  EXPECT_DOUBLE_EQ(f.fail_frac(), 0.25);
}

TEST(RefKernel, ChecksumIsFrozen) {
  EXPECT_EQ(ref_kernel(), kRefChecksum);
  EXPECT_EQ(ref_kernel(), ref_kernel());
}

TEST(Inputs, SharedTopologyShape) {
  const auto topo = make_topology(1);
  EXPECT_EQ(topo.domain_count(), 120u);
  EXPECT_EQ(topo.router_count(), 480u);
  EXPECT_EQ(topo.host_count(), 192u);
  EXPECT_EQ(deployed_domains(topo).size(), 8u);
}

TEST(StateDigest, SameSeedSameDigestAndOneFibEntryChangesIt) {
  auto a = make_workload("traffic", 3);
  auto b = make_workload("traffic", 3);
  a->setup();
  b->setup();
  const std::uint64_t digest = state_digest(a->internet());
  EXPECT_EQ(digest, state_digest(b->internet()));

  auto& net = b->internet();
  const evo::net::NodeId router{0};
  std::optional<evo::net::Prefix> victim;
  net.network().fib(router).for_each([&](const evo::net::FibEntry& e) {
    if (!victim) victim = e.prefix;
  });
  ASSERT_TRUE(victim.has_value());
  ASSERT_TRUE(net.network().fib(router).remove(*victim));
  EXPECT_NE(digest, state_digest(net));
}

TEST(Workloads, EveryNamedWorkloadExists) {
  for (const char* name : {"bringup", "churn", "traffic"}) {
    EXPECT_NE(make_workload(name, 1), nullptr);
  }
  EXPECT_EQ(make_workload("fuzz", 1), nullptr);
}

}  // namespace
}  // namespace perfbench
