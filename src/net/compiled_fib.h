// Compiled forwarding table: a flat, contiguous-array LPM structure built
// from a Fib snapshot.
//
// Fib's sorted entry vector stays the mutable authoritative store the
// control plane writes; CompiledFib is the read-optimized form the data
// plane consults on every forwarding step. Compilation projects the prefix
// set onto disjoint address ranges (prefixes form a laminar family, so a
// single interval sweep suffices), then lays a direct-indexed block table
// over the span the prefixes occupy: from the start of the first range
// after range 0 to the start of the last range, at about one slot per
// range. An address outside the span needs no index: below it lies
// range 0, above it the last range. A lookup is one table load plus a short
// bounded binary search, and the index grows with the prefix set, not
// with the address space.
//
// Staleness is detected through Fib's route epoch: compile() records the
// source epoch, and Network recompiles a router's CompiledFib lazily when
// its epoch no longer matches (see Network::compiled_fib).
#pragma once

#include <cstdint>
#include <vector>

#include "net/fib.h"

namespace evo::net {

class CompiledFib {
 public:
  /// Rebuild from `fib` and record its epoch. Reuses previously allocated
  /// storage, so periodic recompilation does not churn the allocator.
  void compile(const Fib& fib);

  /// Longest-prefix match over the compiled snapshot; nullptr when no
  /// route covers `addr` (or nothing was compiled yet). Returns the same
  /// winning entry Fib::lookup would.
  const FibEntry* lookup(Ipv4Addr addr) const {
    if (ranges_.empty()) return nullptr;
    const std::uint32_t bits = addr.bits();
    const std::uint32_t offset = bits - span_start_;  // wraps below the span
    const Range* base;
    if (offset > span_) {
      // Outside the span: below it lies range 0, above it the last range.
      base = bits < span_start_ ? &ranges_.front() : &ranges_.back();
    } else {
      // The winner is the last range starting at or before `addr`,
      // bracketed by the block index: index_[b] already points at the last
      // range that starts at or before the block's first address.
      const std::uint32_t block = offset >> shift_;
      base = ranges_.data() + index_[block];
      // Branchless bounded search (the comparison becomes a conditional
      // move, so random probes cost no mispredicts): invariant
      // base[0].start <= bits.
      std::size_t n = index_[block + 1] - index_[block] + 1;
      while (n > 1) {
        const std::size_t half = n / 2;
        base += (base[half].start <= bits) ? half : 0;
        n -= half;
      }
    }
    const std::int32_t winner = base->winner;
    return winner < 0 ? nullptr : &entries_[static_cast<std::size_t>(winner)];
  }

  /// Epoch of the Fib this was compiled from; 0 = never compiled.
  std::uint64_t epoch() const { return epoch_; }

  std::size_t entry_count() const { return entries_.size(); }
  /// Number of disjoint address ranges the prefix set projected onto.
  std::size_t range_count() const { return ranges_.size(); }
  /// Index geometry: slot b covers addresses from
  /// span_start() + (b << block_shift()); index_slots() is at most
  /// range_count() + 1.
  std::size_t index_slots() const { return index_.size(); }
  std::uint32_t span_start() const { return span_start_; }
  unsigned block_shift() const { return shift_; }
  /// Bytes of flat storage currently held (entries + ranges + index).
  std::size_t memory_bytes() const;

 private:
  struct Range {
    std::uint32_t start;   // first address covered
    std::int32_t winner;   // index into entries_; -1 = no route
  };

  std::vector<FibEntry> entries_;  // table snapshot, prefix order
  std::vector<Range> ranges_;      // disjoint, sorted by start; [0] starts at 0
  // index_[b] = index of the last range starting at or before
  // span_start_ + (b << shift_), for b <= span_ >> shift_; one extra slot
  // (the last range) so lookup can read index_[block + 1] unconditionally.
  std::vector<std::uint32_t> index_;
  std::uint32_t span_start_ = 0;  // start of ranges_[1] (ranges_[0] if alone)
  std::uint32_t span_ = 0;        // last range start - span_start_
  unsigned shift_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace evo::net
