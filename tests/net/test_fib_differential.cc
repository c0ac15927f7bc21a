// Differential property test: the sorted-vector FIB store against a
// brute-force std::map reference, over randomized prefix sets and lookups,
// including inserts, replacements, and removals. Both the LPM answers and
// the stored entries (in prefix order) must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <optional>
#include <vector>

#include "net/fib.h"
#include "sim/random.h"

namespace evo::net {
namespace {

/// Brute-force reference: linear scan for the longest matching prefix.
class ReferenceFib {
 public:
  void insert(const FibEntry& entry) { entries_[entry.prefix] = entry; }
  bool remove(const Prefix& prefix) { return entries_.erase(prefix) > 0; }

  /// Drop every entry of `origins`, then insert `entries` one by one.
  void replace_origins(std::initializer_list<RouteOrigin> origins,
                       const std::vector<FibEntry>& entries) {
    std::erase_if(entries_, [&](const auto& kv) {
      return std::find(origins.begin(), origins.end(), kv.second.origin) !=
             origins.end();
    });
    for (const FibEntry& e : entries) insert(e);
  }

  std::optional<FibEntry> lookup(Ipv4Addr addr) const {
    std::optional<FibEntry> best;
    for (const auto& [prefix, entry] : entries_) {
      if (!prefix.contains(addr)) continue;
      if (!best || prefix.length() > best->prefix.length()) best = entry;
    }
    return best;
  }

  std::size_t size() const { return entries_.size(); }

  /// Entries in std::map (= prefix) order.
  std::vector<FibEntry> entries() const {
    std::vector<FibEntry> out;
    for (const auto& [prefix, entry] : entries_) out.push_back(entry);
    return out;
  }

 private:
  std::map<Prefix, FibEntry> entries_;
};

Prefix random_prefix(sim::Rng& rng) {
  // Cluster prefixes so nesting and sibling collisions actually happen.
  const auto base = static_cast<std::uint32_t>(rng.uniform_int(0, 15)) << 28;
  const auto bits = base | static_cast<std::uint32_t>(rng.next_u64() & 0x0FFFFFFF);
  const auto length = static_cast<std::uint8_t>(rng.uniform_int(0, 32));
  return Prefix{Ipv4Addr{bits}, length};
}

TEST(FibDifferential, RandomOperationsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Rng rng{seed * 7919};
    Fib fib;
    ReferenceFib reference;
    std::vector<Prefix> inserted;

    for (int op = 0; op < 2000; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.55 || inserted.empty()) {
        FibEntry entry;
        entry.prefix = random_prefix(rng);
        entry.next_hop = NodeId{static_cast<std::uint32_t>(op)};
        entry.origin = RouteOrigin::kStatic;
        fib.insert(entry);
        reference.insert(entry);
        inserted.push_back(entry.prefix);
      } else if (dice < 0.75) {
        // Replace an existing prefix with a new next hop.
        const Prefix target = rng.pick(inserted);
        FibEntry entry;
        entry.prefix = target;
        entry.next_hop = NodeId{static_cast<std::uint32_t>(op + 100000)};
        fib.insert(entry);
        reference.insert(entry);
      } else {
        const Prefix target = rng.pick(inserted);
        EXPECT_EQ(fib.remove(target), reference.remove(target));
      }

      // Probe a few random addresses (biased into the clustered space).
      for (int probe = 0; probe < 4; ++probe) {
        const Ipv4Addr addr{static_cast<std::uint32_t>(rng.next_u64())};
        const auto* got = fib.lookup(addr);
        const auto expected = reference.lookup(addr);
        ASSERT_EQ(got != nullptr, expected.has_value())
            << "seed " << seed << " op " << op << " addr " << addr.to_string();
        if (got != nullptr) {
          EXPECT_EQ(got->prefix, expected->prefix);
          EXPECT_EQ(got->next_hop, expected->next_hop);
        }
      }
    }
    EXPECT_EQ(fib.size(), reference.size()) << "seed " << seed;
    EXPECT_EQ(fib.entries(), reference.entries()) << "seed " << seed;
  }
}

TEST(FibDifferential, ReplaceOriginsMatchesReference) {
  // replace_origins must store exactly what "drop those origins, then
  // insert() each entry" stores, and move the epoch exactly when the stored
  // entries change. A small prefix pool makes reinstalls and same-prefix
  // overwrites across origins common.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Rng rng{seed * 104729};
    std::vector<Prefix> pool;
    for (int i = 0; i < 16; ++i) pool.push_back(random_prefix(rng));
    Fib fib;
    ReferenceFib reference;
    for (int i = 0; i < 4; ++i) {
      FibEntry connected;
      connected.prefix = rng.pick(pool);
      connected.origin = RouteOrigin::kConnected;
      fib.insert(connected);
      reference.insert(connected);
    }
    std::vector<FibEntry> last_table[2];
    for (int round = 0; round < 300; ++round) {
      const bool igp = rng.uniform() < 0.5;
      std::vector<FibEntry>& table = last_table[igp ? 1 : 0];
      if (rng.uniform() < 0.7) {  // otherwise reinstall the previous table
        table.clear();
        const auto count = rng.uniform_int(0, 12);
        for (std::int64_t i = 0; i < count; ++i) {
          FibEntry e;
          e.prefix = rng.pick(pool);
          e.next_hop = NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, 3))};
          e.origin = !igp                  ? RouteOrigin::kBgp
                     : rng.uniform() < 0.5 ? RouteOrigin::kIgp
                                           : RouteOrigin::kAnycast;
          table.push_back(e);
        }
      }
      const std::vector<FibEntry> before = fib.entries();
      const std::uint64_t epoch_before = fib.epoch();
      if (igp) {
        fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, table);
        reference.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, table);
      } else {
        fib.replace_origins({RouteOrigin::kBgp}, table);
        reference.replace_origins({RouteOrigin::kBgp}, table);
      }
      ASSERT_EQ(fib.entries(), reference.entries())
          << "seed " << seed << " round " << round;
      EXPECT_EQ(fib.epoch() != epoch_before, fib.entries() != before)
          << "seed " << seed << " round " << round;
    }
  }
}

TEST(FibDifferential, EntriesEnumerationMatchesReferenceSize) {
  sim::Rng rng{424242};
  Fib fib;
  ReferenceFib reference;
  for (int i = 0; i < 500; ++i) {
    FibEntry entry;
    entry.prefix = random_prefix(rng);
    entry.next_hop = NodeId{static_cast<std::uint32_t>(i)};
    fib.insert(entry);
    reference.insert(entry);
  }
  EXPECT_EQ(fib.entries().size(), reference.size());
}

}  // namespace
}  // namespace evo::net
