#include "net/compiled_fib.h"

#include <array>
#include <bit>
#include <cassert>

namespace evo::net {

void CompiledFib::compile(const Fib& fib) {
  entries_ = fib.entries();
  ranges_.clear();

  // Project the prefix set onto disjoint ranges. Prefixes form a laminar
  // family (any two are nested or disjoint) and Fib stores them sorted by
  // start address with containers before containees, so one sweep with a
  // stack of currently-open prefixes computes the LPM winner everywhere.
  // A chain of nested prefixes has at most one per length (0..32), so the
  // stack is a fixed array. 64-bit cursors avoid overflow at the top of
  // the address space.
  struct Open {
    std::uint64_t end;  // inclusive
    std::int32_t idx;
  };
  std::array<Open, 33> open{};
  std::size_t depth = 0;
  const auto emit = [&](std::uint64_t start, std::int32_t winner) {
    if (!ranges_.empty() && ranges_.back().start == start) {
      ranges_.back().winner = winner;  // a longer prefix opens at the same address
      return;
    }
    if (!ranges_.empty() && ranges_.back().winner == winner) return;
    ranges_.push_back(Range{static_cast<std::uint32_t>(start), winner});
  };
  const auto close_top = [&] {
    const Open closed = open[--depth];
    if (closed.end < 0xFFFFFFFFull) {
      emit(closed.end + 1, depth == 0 ? -1 : open[depth - 1].idx);
    }
  };
  emit(0, -1);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Prefix& p = entries_[i].prefix;
    const std::uint64_t start = p.address().bits();
    const std::uint64_t end = start + ((std::uint64_t{1} << (32 - p.length())) - 1);
    while (depth > 0 && open[depth - 1].end < start) close_top();
    emit(start, static_cast<std::int32_t>(i));
    assert(depth < open.size());
    open[depth++] = Open{end, static_cast<std::int32_t>(i)};
  }
  while (depth > 0) close_top();

  // Lay the block index over the span from the first range after range 0
  // to the last range start, with the smallest block size that needs no
  // more blocks than there are ranges: ranges_.size() > span_ >> shift_.
  // A lookup then brackets one or two ranges on average, and a table whose
  // prefixes sit in a few /16s keeps an index of a few hundred bytes.
  const std::size_t count = ranges_.size();
  span_start_ = ranges_[count > 1 ? 1 : 0].start;
  span_ = ranges_.back().start - span_start_;
  shift_ = static_cast<unsigned>(std::bit_width(span_ / count));
  const std::uint32_t last_block = span_ >> shift_;
  index_.resize(std::size_t{last_block} + 2);
  std::size_t r = 0;
  for (std::uint32_t b = 0; b <= last_block; ++b) {
    const std::uint32_t block_start = span_start_ + (b << shift_);
    while (r + 1 < count && ranges_[r + 1].start <= block_start) ++r;
    index_[b] = static_cast<std::uint32_t>(r);
  }
  index_[std::size_t{last_block} + 1] = static_cast<std::uint32_t>(count - 1);

  epoch_ = fib.epoch();
}

std::size_t CompiledFib::memory_bytes() const {
  return entries_.capacity() * sizeof(FibEntry) +
         ranges_.capacity() * sizeof(Range) +
         index_.capacity() * sizeof(std::uint32_t);
}

}  // namespace evo::net
