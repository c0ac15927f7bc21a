// The discrete-event simulation driver.
//
// A Simulator owns the virtual clock and the event queue. Protocol modules
// schedule callbacks ("in 3ms, deliver this LSA to router 7"); run() fires
// them in time order until quiescence, a time bound, or an event budget.
//
// Quiescence is itself observable: notify_on_idle() registers a one-shot
// callback fired when the queue next drains. Failure injection uses this to
// timestamp reconvergence and to let the control plane sync derived state
// (FIB install, vN-Bone rebuild) exactly once per churn episode.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/recorder.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace evo::sim {

class Simulator {
 public:
  Simulator() = default;

  // The clock is authoritative state shared by every module; copying a
  // Simulator would silently fork simulated time.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time.
  EventHandle schedule_after(Duration delay, EventFn fn) {
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute time (must not be in the past).
  EventHandle schedule_at(TimePoint when, EventFn fn);

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Stable pointer to the simulated clock, for telemetry consumers that
  /// stamp records with sim time (obs::Recorder::attach_clock).
  const TimePoint* clock() const { return &now_; }

  /// Attach (or detach, with nullptr) a telemetry recorder: the recorder's
  /// clock follows this simulator and the event queue reports structural
  /// events (horizon rebases) to it. The schedule/fire fast path is not
  /// instrumented — recorder-off overhead there is zero.
  void set_recorder(obs::Recorder* recorder) {
    if (recorder != nullptr) recorder->attach_clock(&now_);
    queue_.set_recorder(recorder);
  }

  /// The event queue's health counters (live high-water mark, overflow
  /// traffic, horizon rebases).
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }

  /// Register a one-shot callback fired the next time the event queue
  /// drains to empty during run()/run_until()/run_events(). Callbacks fire
  /// in registration order at the then-current simulated time and may
  /// schedule new events (processing continues afterwards). They do not
  /// count toward events_processed().
  void notify_on_idle(EventFn fn) { idle_callbacks_.push_back(std::move(fn)); }

  /// Run until no events remain. Returns the number of events processed.
  std::uint64_t run();

  /// Run until the clock would pass `deadline` (events at exactly
  /// `deadline` are processed). Returns events processed by this call.
  std::uint64_t run_until(TimePoint deadline);

  /// Run at most `max_events` further events.
  std::uint64_t run_events(std::uint64_t max_events);

  /// Reset clock and queue (keeps processed-event count at zero).
  void reset();

 private:
  /// Fire pending idle callbacks; returns true if any ran (they may have
  /// scheduled new events).
  bool fire_idle_callbacks();

  TimePoint now_ = TimePoint::origin();
  EventQueue queue_;
  std::vector<EventFn> idle_callbacks_;
  std::uint64_t processed_ = 0;
};

}  // namespace evo::sim
