#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace evo::sim {
namespace {

TEST(Simulator, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunAdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule_after(Duration::millis(5), [&] { times.push_back(sim.now().count_micros()); });
  sim.schedule_after(Duration::millis(2), [&] { times.push_back(sim.now().count_micros()); });
  const auto fired = sim.run();
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(times, (std::vector<std::int64_t>{2000, 5000}));
  EXPECT_EQ(sim.now().count_micros(), 5000);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_after(Duration::millis(1), chain);
  };
  sim.schedule_after(Duration::millis(1), chain);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(10));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_after(Duration::millis(i), [&] { ++count; });
  }
  const auto fired = sim.run_until(TimePoint::origin() + Duration::millis(4));
  EXPECT_EQ(fired, 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(4));
  EXPECT_FALSE(sim.idle());
}

TEST(Simulator, RunUntilIdleAdvancesClock) {
  Simulator sim;
  sim.run_until(TimePoint::origin() + Duration::seconds(3));
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(3));
}

TEST(Simulator, RunUntilAdvancesPastPendingFutureEvents) {
  // "Run until T" leaves the clock at T even when events remain beyond T,
  // so repeated short slices always make progress toward them.
  Simulator sim;
  bool ran = false;
  sim.schedule_after(Duration::millis(10), [&] { ran = true; });
  sim.run_until(TimePoint::origin() + Duration::millis(4));
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(4));
  EXPECT_FALSE(ran);
  sim.run_until(TimePoint::origin() + Duration::millis(8));
  EXPECT_FALSE(ran);
  sim.run_until(TimePoint::origin() + Duration::millis(12));
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunEventsBudget) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_after(Duration::millis(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.run_events(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
}

TEST(Simulator, CancelledEventsDontRun) {
  Simulator sim;
  bool ran = false;
  auto handle = sim.schedule_after(Duration::millis(1), [&] { ran = true; });
  handle.cancel();
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, ProcessedCountAccumulates) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_after(Duration::millis(1), [] {});
  sim.run();
  for (int i = 0; i < 3; ++i) sim.schedule_after(Duration::millis(1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 8u);
}

TEST(Simulator, ResetRestoresOrigin) {
  Simulator sim;
  sim.schedule_after(Duration::millis(5), [] {});
  sim.run();
  sim.schedule_after(Duration::millis(5), [] {});
  sim.reset();
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(TimePoint::origin() + Duration::millis(42), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(42));
}

TEST(Simulator, ExportsQueueHealthMetrics) {
  Simulator sim;
  // One near event and one past the 256 x 1024us calendar horizon, so both
  // the live high-water mark and the overflow path have something to show.
  sim.schedule_after(Duration::millis(1), [] {});
  sim.schedule_after(Duration::millis(300'000), [] {});
  sim.run();
  const EventQueue::Stats& stats = sim.queue_stats();
  EXPECT_EQ(stats.live_high_water, 2u);
  EXPECT_EQ(stats.overflow_scheduled, 1u);
  EXPECT_GE(stats.rebases, 1u);
  EXPECT_EQ(stats.overflow_redistributed, 1u);
}

TEST(Simulator, RecorderSeesQueueRebases) {
  Simulator sim;
  obs::Recorder recorder;
  sim.set_recorder(&recorder);
  sim.schedule_after(Duration::millis(300'000), [] {});
  sim.run();
  ASSERT_GE(recorder.recorded(), 1u);
  const auto tail = recorder.tail(16);
  bool saw_rebase = false;
  for (const auto& event : tail) {
    if (std::string_view{event.name} == "sim.queue.rebase") saw_rebase = true;
  }
  EXPECT_TRUE(saw_rebase);
}

}  // namespace
}  // namespace evo::sim
