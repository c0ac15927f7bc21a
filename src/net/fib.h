// Forwarding Information Base: the ordered route store each router's
// control plane writes.
//
// Each router holds one Fib for IPv(N-1) forwarding. Entries record where
// a route came from (connected / IGP / BGP / anycast) so experiments can
// count per-origin state — e.g. the paper's §3.2 scalability claim that
// Option-1 anycast "leads to routing state that grows in direct proportion
// to the number of anycast groups".
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/graph.h"
#include "net/ids.h"

namespace evo::net {

enum class RouteOrigin : std::uint8_t {
  kConnected,  // local interface / loopback
  kIgp,        // intra-domain routing
  kBgp,        // inter-domain routing
  kAnycast,    // anycast member advertisement
  kStatic,     // operator configuration
};

const char* to_string(RouteOrigin origin);

struct FibEntry {
  Prefix prefix;
  NodeId next_hop;  // invalid() => deliver locally
  LinkId out_link;  // invalid() for local delivery
  RouteOrigin origin = RouteOrigin::kStatic;
  Cost metric = 0;  // distance the producing protocol assigned

  friend bool operator==(const FibEntry&, const FibEntry&) = default;
};

/// Route store: one vector of entries sorted by prefix (address, then
/// length). That order is a binary trie's pre-order, so a covering prefix
/// precedes the prefixes nested inside it — the order CompiledFib's range
/// sweep requires. The data plane forwards through CompiledFib, never
/// through lookup() here.
class Fib {
 public:
  /// Insert or replace the entry for `entry.prefix`.
  void insert(const FibEntry& entry);

  /// Remove the entry for `prefix` if present; returns true if removed.
  bool remove(const Prefix& prefix);

  /// Remove every entry with the given origin; returns how many.
  std::size_t remove_origin(RouteOrigin origin);

  /// Make the set of entries whose origin is in `origins` exactly equal to
  /// `entries` (each of which must carry an origin from `origins`; a later
  /// duplicate prefix wins, and an entry overwrites a same-prefix entry of
  /// another origin, as insert() would). The route epoch is bumped only
  /// when the table actually changes, so a control-plane sync that
  /// reinstalls an identical table leaves compiled forwarding state valid.
  void replace_origins(std::initializer_list<RouteOrigin> origins,
                       std::span<const FibEntry> entries);

  /// Make the `origin` entries for the sorted, unique `prefixes` exactly
  /// `entries` (sorted and unique by prefix, each for one of `prefixes`
  /// and carrying `origin`); every other entry stays as it is. A prefix
  /// that another origin holds keeps that entry, and `entries` must not
  /// name it. Only those prefixes' entries are rewritten, inserted or
  /// erased, in place. The route epoch is bumped only when the table
  /// actually changes.
  void splice_origin(RouteOrigin origin, std::span<const Prefix> prefixes,
                     std::span<const FibEntry> entries);

  /// Reference longest-prefix match: one exact find per prefix length
  /// present, longest first; nullptr when no route covers `addr`. The
  /// kFibEquivalence oracle checks CompiledFib against it.
  const FibEntry* lookup(Ipv4Addr addr) const;

  /// Exact-prefix fetch (no LPM); nullptr if absent.
  const FibEntry* find(const Prefix& prefix) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t size_with_origin(RouteOrigin origin) const;

  /// Visit every entry in prefix order.
  void for_each(const std::function<void(const FibEntry&)>& fn) const;

  /// All entries, in prefix order. Valid until the next mutation.
  const std::vector<FibEntry>& entries() const { return entries_; }

  void clear();

  /// Route epoch: starts at 1 and increases monotonically on every call
  /// that actually changes table contents (insert of a new or different
  /// entry, successful remove, non-empty remove_origin/clear, effective
  /// replace_origins). Consumers such as CompiledFib cache a snapshot and
  /// recompile only when the epoch moves.
  std::uint64_t epoch() const { return epoch_; }

  /// Multi-line diagnostic dump.
  std::string dump() const;

 private:
  void recount_lengths();

  std::vector<FibEntry> entries_;  // sorted by prefix, unique prefixes
  // Bit L set when some entry may have prefix length L. Writes that add
  // entries set bits; bulk writes recompute it. A stale bit (left by
  // remove() or splice_origin) only costs lookup() one missed probe.
  std::uint64_t lengths_ = 0;
  std::uint64_t epoch_ = 1;
};

}  // namespace evo::net
