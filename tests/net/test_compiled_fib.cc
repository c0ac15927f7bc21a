// Differential property tests: CompiledFib (flat range LPM) against the
// authoritative Fib's reference lookup, over randomized prefix sets —
// inserts, removals, origin flushes, overlapping prefixes, default routes —
// and across epoch-invalidated recompiles. The Fib itself is differentially
// tested against a brute-force reference in test_fib_differential.cc, so
// agreement here closes the chain back to first principles.
#include <gtest/gtest.h>

#include <vector>

#include "net/compiled_fib.h"
#include "net/fib.h"
#include "sim/random.h"

namespace evo::net {
namespace {

FibEntry entry(const char* prefix, std::uint32_t next_hop,
               RouteOrigin origin = RouteOrigin::kStatic) {
  FibEntry e;
  e.prefix = *Prefix::parse(prefix);
  e.next_hop = NodeId{next_hop};
  e.origin = origin;
  return e;
}

Prefix random_prefix(sim::Rng& rng) {
  // Cluster prefixes so nesting and sibling collisions actually happen.
  const auto base = static_cast<std::uint32_t>(rng.uniform_int(0, 15)) << 28;
  const auto bits = base | static_cast<std::uint32_t>(rng.next_u64() & 0x0FFFFFFF);
  const auto length = static_cast<std::uint8_t>(rng.uniform_int(0, 32));
  return Prefix{Ipv4Addr{bits}, length};
}

/// The compiled table must agree with the Fib on every probe: same
/// hit/miss, and the identical winning entry.
void expect_agreement(const Fib& fib, const CompiledFib& compiled,
                      sim::Rng& rng, int probes) {
  for (int i = 0; i < probes; ++i) {
    const Ipv4Addr addr{static_cast<std::uint32_t>(rng.next_u64())};
    const FibEntry* from_fib = fib.lookup(addr);
    const FibEntry* from_flat = compiled.lookup(addr);
    ASSERT_EQ(from_fib != nullptr, from_flat != nullptr)
        << "addr " << addr.to_string();
    if (from_fib != nullptr) {
      EXPECT_EQ(*from_fib, *from_flat) << "addr " << addr.to_string();
    }
  }
  // Boundary probes: the first/last address of every compiled entry's
  // prefix, where off-by-one range errors would hide.
  fib.for_each([&](const FibEntry& e) {
    const std::uint32_t lo = e.prefix.address().bits();
    const std::uint32_t span =
        e.prefix.length() == 0
            ? 0xFFFFFFFFu
            : static_cast<std::uint32_t>(
                  (std::uint64_t{1} << (32 - e.prefix.length())) - 1);
    for (const Ipv4Addr addr : {Ipv4Addr{lo}, Ipv4Addr{lo + span}}) {
      const FibEntry* from_fib = fib.lookup(addr);
      const FibEntry* from_flat = compiled.lookup(addr);
      ASSERT_EQ(from_fib != nullptr, from_flat != nullptr)
          << "boundary " << addr.to_string();
      if (from_fib != nullptr) {
        EXPECT_EQ(*from_fib, *from_flat);
      }
    }
  });
}

TEST(CompiledFib, EmptyTableMissesEverything) {
  Fib fib;
  CompiledFib compiled;
  compiled.compile(fib);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 0, 0, 1}), nullptr);
  EXPECT_EQ(compiled.entry_count(), 0u);
  EXPECT_EQ(compiled.epoch(), fib.epoch());
}

TEST(CompiledFib, UncompiledLookupIsNull) {
  CompiledFib compiled;
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 0, 0, 1}), nullptr);
  EXPECT_EQ(compiled.epoch(), 0u);
}

TEST(CompiledFib, NestedOverlappingAndDefaultRoutes) {
  Fib fib;
  fib.insert(entry("0.0.0.0/0", 1));
  fib.insert(entry("10.0.0.0/8", 2));
  fib.insert(entry("10.1.0.0/16", 3));
  fib.insert(entry("10.1.2.0/24", 4));
  fib.insert(entry("10.1.2.3/32", 5));
  fib.insert(entry("255.255.255.255/32", 6));
  CompiledFib compiled;
  compiled.compile(fib);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 2, 3})->next_hop, NodeId{5});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 2, 9})->next_hop, NodeId{4});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 9, 9})->next_hop, NodeId{3});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 9, 9, 9})->next_hop, NodeId{2});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{99, 9, 9, 9})->next_hop, NodeId{1});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{255, 255, 255, 255})->next_hop, NodeId{6});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{0, 0, 0, 0})->next_hop, NodeId{1});
}

TEST(CompiledFib, StaleEpochDetectedAndRecompileCatchesUp) {
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1));
  CompiledFib compiled;
  compiled.compile(fib);
  EXPECT_EQ(compiled.epoch(), fib.epoch());

  // Mutate: epochs diverge; the stale table still answers from the old
  // snapshot until recompiled (Network recompiles on epoch mismatch).
  fib.insert(entry("10.1.0.0/16", 2));
  EXPECT_NE(compiled.epoch(), fib.epoch());
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 0, 1})->next_hop, NodeId{1});

  compiled.compile(fib);
  EXPECT_EQ(compiled.epoch(), fib.epoch());
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 0, 1})->next_hop, NodeId{2});
}

class CompiledFibDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledFibDifferential, RandomizedChurnMatchesTrie) {
  sim::Rng rng{GetParam() * 6271};
  Fib fib;
  CompiledFib compiled;
  std::vector<Prefix> inserted;

  for (int op = 0; op < 600; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.50 || inserted.empty()) {
      FibEntry e;
      e.prefix = random_prefix(rng);
      e.next_hop = NodeId{static_cast<std::uint32_t>(op)};
      // Mix origins so origin flushes below have bite.
      e.origin = rng.uniform() < 0.5 ? RouteOrigin::kIgp : RouteOrigin::kBgp;
      fib.insert(e);
      inserted.push_back(e.prefix);
    } else if (dice < 0.70) {
      // Replace an existing prefix with a different next hop.
      FibEntry e;
      e.prefix = rng.pick(inserted);
      e.next_hop = NodeId{static_cast<std::uint32_t>(op + 100000)};
      fib.insert(e);
    } else if (dice < 0.90) {
      fib.remove(rng.pick(inserted));
    } else {
      // Origin flush, the control-plane reinstall pattern.
      fib.remove_origin(rng.uniform() < 0.5 ? RouteOrigin::kIgp
                                            : RouteOrigin::kBgp);
    }

    // Recompile only when the epoch says so — exercising exactly the
    // staleness protocol Network relies on — then demand agreement.
    if (compiled.epoch() != fib.epoch()) compiled.compile(fib);
    expect_agreement(fib, compiled, rng, 8);
  }

  fib.clear();
  if (compiled.epoch() != fib.epoch()) compiled.compile(fib);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())}),
            nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledFibDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Seed bits pick the outliers: bit 0 adds 0.0.0.0/32, bit 1 adds
/// 255.255.255.255/32 (which widens the index span to the whole space) and
/// bit 2 adds a default route.
class CompiledFibSpan : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledFibSpan, ClusteredPrefixesMatchFibAtEveryEdge) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng{seed * 7919 + 17};
  Fib fib;
  std::vector<std::uint32_t> clusters;  // a few /16s holding every prefix
  const int cluster_count = static_cast<int>(rng.uniform_int(1, 4));
  for (int c = 0; c < cluster_count; ++c) {
    clusters.push_back(static_cast<std::uint32_t>(rng.uniform_int(1, 0xFFFE)) << 16);
  }
  const int prefix_count = static_cast<int>(rng.uniform_int(1, 150));
  for (int i = 0; i < prefix_count; ++i) {
    FibEntry e;
    const auto low = static_cast<std::uint32_t>(rng.next_u64() & 0xFFFF);
    e.prefix = Prefix{Ipv4Addr{rng.pick(clusters) | low},
                      static_cast<std::uint8_t>(rng.uniform_int(16, 32))};
    e.next_hop = NodeId{static_cast<std::uint32_t>(i)};
    fib.insert(e);
  }
  if ((seed & 1) != 0) fib.insert(entry("0.0.0.0/32", 90001));
  if ((seed & 2) != 0) fib.insert(entry("255.255.255.255/32", 90002));
  if ((seed & 4) != 0) fib.insert(entry("0.0.0.0/0", 90003));
  CompiledFib compiled;
  compiled.compile(fib);
  ASSERT_LE(compiled.index_slots(), compiled.range_count() + 1);

  const auto check = [&](std::uint64_t bits) {
    if (bits > 0xFFFFFFFFull) return;
    const Ipv4Addr addr{static_cast<std::uint32_t>(bits)};
    const FibEntry* from_fib = fib.lookup(addr);
    const FibEntry* from_flat = compiled.lookup(addr);
    ASSERT_EQ(from_fib != nullptr, from_flat != nullptr) << addr.to_string();
    if (from_fib != nullptr) {
      EXPECT_EQ(*from_fib, *from_flat) << addr.to_string();
    }
  };
  // Below the span, its first address, and the top of the address space.
  const std::uint64_t span_start = compiled.span_start();
  const std::uint64_t top = 0xFFFFFFFF;
  for (const std::uint64_t bits :
       {std::uint64_t{0}, std::uint64_t{1}, span_start - 1, span_start, span_start + 1,
        top - 1, top}) {
    check(bits);
  }
  // Every block boundary, one address either side of it, and one address
  // inside the block; the last two boundaries lie above the span.
  for (std::uint64_t b = 0; b <= compiled.index_slots(); ++b) {
    const std::uint64_t boundary = span_start + (b << compiled.block_shift());
    check(boundary - 1);
    check(boundary);
    check(boundary + 1);
    check(boundary + (rng.next_u64() & ((std::uint64_t{1} << compiled.block_shift()) - 1)));
  }
  // Both ends of every prefix, the addresses just outside them, and one
  // address inside: every compiled range starts at one of these edges.
  fib.for_each([&](const FibEntry& e) {
    const std::uint64_t lo = e.prefix.address().bits();
    const std::uint64_t hi = lo + ((std::uint64_t{1} << (32 - e.prefix.length())) - 1);
    check(lo - 1);
    check(lo);
    check(lo + (rng.next_u64() % (hi - lo + 1)));
    check(hi);
    check(hi + 1);
  });
  // Random addresses, half of them inside the clusters.
  for (int i = 0; i < 2000; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng.next_u64());
    check(i % 2 == 0 ? bits : (rng.pick(clusters) | (bits & 0xFFFF)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledFibSpan, ::testing::Range<std::uint64_t>(0, 16));

TEST(CompiledFib, IndexScalesWithRangesNotAddressSpace) {
  // 68 /17s inside 10.0.0.0/9, each followed by a gap: 137 ranges, the
  // shape of a seed-1 benchmark router's table. The index must take about
  // one slot per range, not a slot per fixed slice of the address space.
  Fib fib;
  for (std::uint32_t i = 0; i < 68; ++i) {
    FibEntry e;
    e.prefix = Prefix{Ipv4Addr{(10u << 24) | (i << 16)}, 17};
    e.next_hop = NodeId{i};
    fib.insert(e);
  }
  CompiledFib compiled;
  compiled.compile(fib);
  EXPECT_EQ(compiled.range_count(), 137u);
  EXPECT_LE(compiled.index_slots(), 2 * compiled.range_count() + 2);
  EXPECT_LE(compiled.memory_bytes(), 6u * 1024);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 67, 127, 255})->next_hop, NodeId{67});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 67, 128, 0}), nullptr);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{9, 255, 255, 255}), nullptr);
}

TEST(CompiledFib, NoOpReinstallKeepsEpochAndCompiledTable) {
  // The control-plane pattern: replace_origins with an identical table must
  // not move the epoch, so the compiled table stays valid (no recompile).
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1, RouteOrigin::kIgp));
  fib.insert(entry("10.1.0.0/16", 2, RouteOrigin::kAnycast));
  fib.insert(entry("192.168.0.0/16", 3, RouteOrigin::kConnected));
  CompiledFib compiled;
  compiled.compile(fib);
  const std::uint64_t before = fib.epoch();

  const std::vector<FibEntry> same = {
      entry("10.0.0.0/8", 1, RouteOrigin::kIgp),
      entry("10.1.0.0/16", 2, RouteOrigin::kAnycast),
  };
  fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, same);
  EXPECT_EQ(fib.epoch(), before);
  EXPECT_EQ(compiled.epoch(), fib.epoch());

  // A genuinely different table must invalidate.
  const std::vector<FibEntry> different = {
      entry("10.0.0.0/8", 9, RouteOrigin::kIgp),
  };
  fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, different);
  EXPECT_NE(fib.epoch(), before);
  EXPECT_NE(compiled.epoch(), fib.epoch());
  compiled.compile(fib);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 0, 1})->next_hop, NodeId{9});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{192, 168, 0, 1})->next_hop, NodeId{3});
}

}  // namespace
}  // namespace evo::net
