// Cancellable calendar queue of timed events.
//
// Events live in bucketed slot vectors (a calendar/ladder queue) instead of
// a binary heap: the ring covers a sliding horizon of kBuckets fixed-width
// time buckets, events beyond the horizon wait in an overflow vector that
// is redistributed when the cursor reaches them. Equal-time events fire in
// schedule order (FIFO), which keeps protocol simulations deterministic.
//
// Cancellation is a generation compare: every event borrows a slot in a
// queue-wide slot table; its handle remembers (slot, generation) and an
// event is live exactly while the table still holds its generation. No
// per-event heap allocation anywhere — the slot table and buckets are
// reused flat vectors, and EventFn stores typical closures inline (see
// inplace_fn.h). size() is maintained as an exact live-event counter.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "obs/recorder.h"
#include "sim/inplace_fn.h"
#include "sim/time.h"

namespace evo::sim {

/// Type-erased event callback. The inline capacity is sized for the largest
/// hot-path capture (DeliveryEngine's forwarding continuation, static_assert
/// in delivery.cc); everything the control plane schedules fits comfortably.
using EventFn = InplaceFn<128>;

namespace detail {

/// Queue-wide slot table shared (via shared_ptr) with outstanding handles,
/// so handles stay safe to query even after the queue is destroyed.
struct SlotTable {
  std::vector<std::uint64_t> gens;
  std::vector<std::uint32_t> free_slots;
  std::size_t live = 0;

  /// Borrow a slot and advance its generation; the returned generation
  /// identifies exactly one scheduled event for the slot's current tenancy.
  std::uint32_t acquire() {
    if (!free_slots.empty()) {
      const std::uint32_t slot = free_slots.back();
      free_slots.pop_back();
      ++gens[slot];
      return slot;
    }
    gens.push_back(1);
    return static_cast<std::uint32_t>(gens.size() - 1);
  }

  /// Invalidate the slot's current generation and make it reusable.
  void release(std::uint32_t slot) {
    ++gens[slot];
    free_slots.push_back(slot);
  }

  bool is_live(std::uint32_t slot, std::uint64_t gen) const {
    return gens[slot] == gen;
  }
};

}  // namespace detail

/// Handle to a scheduled event; allows cancellation. Copyable; all copies
/// refer to the same event. Remains safe (reporting not-pending) after the
/// event fires, is cancelled, the queue is cleared, or the queue dies.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Idempotent.
  void cancel() {
    if (auto table = table_.lock()) {
      if (table->is_live(slot_, gen_)) {
        table->release(slot_);
        --table->live;
      }
    }
  }

  /// True if this handle refers to an event that is still pending.
  bool pending() const {
    auto table = table_.lock();
    return table && table->is_live(slot_, gen_);
  }

 private:
  friend class EventQueue;
  EventHandle(std::weak_ptr<detail::SlotTable> table, std::uint32_t slot,
              std::uint64_t gen)
      : table_(std::move(table)), slot_(slot), gen_(gen) {}

  std::weak_ptr<detail::SlotTable> table_;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;  // generation 0 never matches a live slot
};

class EventQueue {
 public:
  /// Health counters, cumulative over the queue's lifetime (clear() keeps
  /// them). Read through Simulator::queue_stats.
  struct Stats {
    std::size_t live_high_water = 0;        // max simultaneous live events
    std::uint64_t overflow_scheduled = 0;   // events that landed past the horizon
    std::uint64_t overflow_redistributed = 0;  // overflow events pulled into the ring
    std::uint64_t rebases = 0;              // horizon rebase operations
  };

  EventQueue() : table_(std::make_shared<detail::SlotTable>()), ring_(kBuckets) {}

  EventHandle schedule(TimePoint when, EventFn fn) {
    const std::uint32_t slot = table_->acquire();
    const std::uint64_t gen = table_->gens[slot];
    if (++table_->live > stats_.live_high_water) {
      stats_.live_high_water = table_->live;
    }
    insert(Entry{when, next_seq_++, gen, slot, std::move(fn)});
    return EventHandle{table_, slot, gen};
  }

  /// True if no live (non-cancelled) events remain.
  bool empty() const { return table_->live == 0; }

  /// Exact number of live events. O(1): the counter is decremented on both
  /// cancel and fire, so cancelled entries never inflate it.
  std::size_t size() const { return table_->live; }

  const Stats& stats() const { return stats_; }

  /// Telemetry sink for rare structural events (horizon rebases). Null by
  /// default; never consulted on the schedule/pop fast path.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Time of the earliest live event; TimePoint::max() if none.
  TimePoint next_time() const {
    return ensure_front() ? active_[active_idx_].when : TimePoint::max();
  }

  /// Remove and return the earliest live event. Requires !empty().
  struct Popped {
    TimePoint when;
    EventFn fn;
  };
  Popped pop() {
    const bool have = ensure_front();
    assert(have && "pop() on an empty EventQueue");
    (void)have;
    Entry& entry = active_[active_idx_++];
    table_->release(entry.slot);  // fired events are no longer "pending"
    --table_->live;
    return Popped{entry.when, std::move(entry.fn)};
  }

  /// Drop every scheduled event. Outstanding EventHandles observe the
  /// cancellation: pending() reports false afterwards, exactly as if each
  /// event had been cancelled individually.
  void clear() {
    auto drop_all = [&](std::vector<Entry>& entries, std::size_t from) {
      for (std::size_t i = from; i < entries.size(); ++i) {
        if (table_->is_live(entries[i].slot, entries[i].gen)) {
          table_->release(entries[i].slot);
          --table_->live;
        }
      }
      entries.clear();
    };
    drop_all(active_, active_idx_);
    active_idx_ = 0;
    for (auto& bucket : ring_) drop_all(bucket, 0);
    drop_all(overflow_, 0);
    base_abs_ = 0;
    overflow_min_ab_ = kNoOverflow;
  }

 private:
  // 1024us buckets x 256 buckets = a ~262ms sliding horizon. Typical event
  // delays here are link latencies and protocol timers (100us..100ms), so
  // nearly every event lands in the ring; multi-second timers take the
  // overflow path and are redistributed when the cursor reaches them.
  static constexpr int kBucketShift = 10;  // 1024us per bucket
  static constexpr std::int64_t kBuckets = 256;
  static constexpr std::int64_t kNoOverflow =
      std::numeric_limits<std::int64_t>::max();

  struct Entry {
    TimePoint when;
    std::uint64_t seq = 0;
    std::uint64_t gen = 0;
    std::uint32_t slot = 0;
    EventFn fn;
  };

  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  static std::int64_t abs_bucket(TimePoint t) {
    return t.count_micros() >> kBucketShift;  // arithmetic shift (C++20)
  }

  void insert(Entry entry) {
    const std::int64_t ab = abs_bucket(entry.when);
    if (ab <= base_abs_) {
      // Lands in the bucket the cursor is consuming (or, if scheduled
      // "into the past", before it): splice into the unconsumed tail so
      // (when, seq) order — the heap's order — is preserved.
      const auto pos =
          std::upper_bound(active_.begin() + static_cast<std::ptrdiff_t>(active_idx_),
                           active_.end(), entry, entry_less);
      active_.insert(pos, std::move(entry));
    } else if (ab < base_abs_ + kBuckets) {
      ring_[static_cast<std::size_t>(ab % kBuckets)].push_back(std::move(entry));
    } else {
      overflow_min_ab_ = std::min(overflow_min_ab_, ab);
      overflow_.push_back(std::move(entry));
      ++stats_.overflow_scheduled;
    }
  }

  /// Position the cursor on the earliest live entry; false if none exist.
  /// Lazily drops cancelled entries and loads/sorts the next bucket (or
  /// redistributes the overflow into a new horizon) as needed.
  bool ensure_front() const {
    for (;;) {
      while (active_idx_ < active_.size()) {
        Entry& entry = active_[active_idx_];
        if (table_->is_live(entry.slot, entry.gen)) return true;
        entry.fn.reset();  // cancelled: free the closure promptly
        ++active_idx_;
      }
      active_.clear();
      active_idx_ = 0;
      if (table_->live == 0) return false;

      // Advance to the next non-empty ring bucket. The scan is capped at
      // the earliest overflow bucket: an overflow event may sit *inside*
      // the advanced horizon (it was beyond the horizon when scheduled),
      // and ring buckets past it must not fire before it is pulled in.
      const std::int64_t limit = std::min(base_abs_ + kBuckets, overflow_min_ab_);
      bool loaded = false;
      for (std::int64_t ab = base_abs_; ab < limit; ++ab) {
        auto& bucket = ring_[static_cast<std::size_t>(ab % kBuckets)];
        if (bucket.empty()) continue;
        base_abs_ = ab;
        active_.swap(bucket);
        std::sort(active_.begin(), active_.end(), entry_less);
        loaded = true;
        break;
      }
      if (loaded) continue;

      // Nothing fires before the overflow: rebase the horizon at its
      // earliest bucket and pull every overflow event inside the new
      // horizon into the ring. Remaining ring entries all have buckets in
      // [old limit, old base + kBuckets) ⊂ [new base, new base + kBuckets),
      // so their ring positions stay valid.
      assert(overflow_min_ab_ != kNoOverflow && "live counter says events remain");
      base_abs_ = overflow_min_ab_;
      std::int64_t new_min = kNoOverflow;
      std::size_t keep = 0;
      for (std::size_t i = 0; i < overflow_.size(); ++i) {
        const std::int64_t ab = abs_bucket(overflow_[i].when);
        if (ab < base_abs_ + kBuckets) {
          ring_[static_cast<std::size_t>(ab % kBuckets)].push_back(
              std::move(overflow_[i]));
        } else {
          new_min = std::min(new_min, ab);
          if (keep != i) overflow_[keep] = std::move(overflow_[i]);
          ++keep;
        }
      }
      stats_.overflow_redistributed += overflow_.size() - keep;
      ++stats_.rebases;
      if (recorder_ != nullptr) {
        recorder_->instant(obs::Domain::kSim, "sim.queue.rebase",
                           static_cast<std::uint64_t>(base_abs_),
                           static_cast<std::uint64_t>(overflow_.size() - keep));
      }
      overflow_.resize(keep);
      overflow_min_ab_ = new_min;
    }
  }

  std::shared_ptr<detail::SlotTable> table_;
  // Lazily maintained by const queries (next_time/empty-adjacent paths),
  // exactly like the old heap's skim(); hence mutable.
  mutable std::vector<std::vector<Entry>> ring_;
  mutable std::vector<Entry> active_;  // cursor bucket, sorted by (when, seq)
  mutable std::size_t active_idx_ = 0;
  mutable std::int64_t base_abs_ = 0;  // absolute bucket index of active_
  mutable std::vector<Entry> overflow_;
  mutable std::int64_t overflow_min_ab_ = kNoOverflow;
  mutable Stats stats_;  // rebase counters advance inside const queries
  obs::Recorder* recorder_ = nullptr;
  std::uint64_t next_seq_ = 0;
};

}  // namespace evo::sim
