#include "net/compiled_fib.h"

#include <bit>

namespace evo::net {

void CompiledFib::compile(const Fib& fib) {
  entries_ = fib.entries();
  ranges_.clear();

  // Project the prefix set onto disjoint ranges. Prefixes form a laminar
  // family (any two are nested or disjoint) and Fib stores them sorted by
  // start address with containers before containees, so one sweep with a
  // stack of currently-open prefixes computes the LPM winner everywhere.
  // 64-bit cursors avoid overflow at the top of the address space.
  struct Open {
    std::uint64_t end;  // inclusive
    std::int32_t idx;
  };
  std::vector<Open> open;
  const auto emit = [&](std::uint64_t start, std::int32_t winner) {
    if (!ranges_.empty() && ranges_.back().start == start) {
      ranges_.back().winner = winner;  // a longer prefix opens at the same address
      return;
    }
    if (!ranges_.empty() && ranges_.back().winner == winner) return;
    ranges_.push_back(Range{static_cast<std::uint32_t>(start), winner});
  };
  emit(0, -1);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Prefix& p = entries_[i].prefix;
    const std::uint64_t start = p.address().bits();
    const std::uint64_t end = start + ((std::uint64_t{1} << (32 - p.length())) - 1);
    while (!open.empty() && open.back().end < start) {
      const Open closed = open.back();
      open.pop_back();
      emit(closed.end + 1, open.empty() ? -1 : open.back().idx);
    }
    emit(start, static_cast<std::int32_t>(i));
    open.push_back(Open{end, static_cast<std::int32_t>(i)});
  }
  while (!open.empty()) {
    const Open closed = open.back();
    open.pop_back();
    if (closed.end < 0xFFFFFFFFull) {
      emit(closed.end + 1, open.empty() ? -1 : open.back().idx);
    }
  }

  // Size the block index so the average block brackets only a handful of
  // ranges: lookups then cost one index load plus a search over one or two
  // cache lines. Clamped so a small table keeps a 1 KiB index and a huge
  // one never exceeds the 16-bit (256 Ki-slot) granularity.
  const unsigned range_bits =
      std::bit_width(ranges_.size() | 1);  // ~ceil(log2(ranges))
  const unsigned index_bits = std::min(16u, std::max(8u, range_bits + 5));
  shift_ = 32 - index_bits;
  const std::size_t blocks = std::size_t{1} << index_bits;
  index_.assign(blocks + 1, 0);
  std::size_t r = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint64_t block_start = static_cast<std::uint64_t>(b) << shift_;
    while (r + 1 < ranges_.size() && ranges_[r + 1].start <= block_start) ++r;
    index_[b] = static_cast<std::uint32_t>(r);
  }
  index_[blocks] = static_cast<std::uint32_t>(ranges_.size() - 1);

  epoch_ = fib.epoch();
}

std::size_t CompiledFib::memory_bytes() const {
  return entries_.capacity() * sizeof(FibEntry) +
         ranges_.capacity() * sizeof(Range) +
         index_.capacity() * sizeof(std::uint32_t);
}

}  // namespace evo::net
