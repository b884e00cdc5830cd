#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

namespace adhoc::sim {
namespace {

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::us(30), [&] { order.push_back(3); });
  s.schedule_at(Time::us(10), [&] { order.push_back(1); });
  s.schedule_at(Time::us(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::us(30));
}

TEST(Scheduler, SameTimeIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(Time::us(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  Time seen;
  s.schedule_at(Time::ms(5), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Time::ms(5));
}

TEST(Scheduler, RunUntilStopsAtHorizonAndSetsClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(Time::us(10), [&] { ++fired; });
  s.schedule_at(Time::us(100), [&] { ++fired; });
  s.run_until(Time::us(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::us(50));
  s.run_until(Time::us(200));
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventAtHorizonRuns) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(Time::us(50), [&] { fired = true; });
  s.run_until(Time::us(50));
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(Time::us(10), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.total_cancelled(), 1u);
}

TEST(Scheduler, CancelInvalidIsNoop) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(kInvalidEvent));
  EXPECT_FALSE(s.cancel(9999));
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::us(10), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, CancelAfterExecutionReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::us(10), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, IsPendingTracksLifecycle) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::us(10), [] {});
  EXPECT_TRUE(s.is_pending(id));
  s.run();
  EXPECT_FALSE(s.is_pending(id));
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(s.now().to_us());
    if (times.size() < 4) s.schedule_in(Time::us(10), chain);
  };
  s.schedule_at(Time::us(0), chain);
  s.run();
  EXPECT_EQ(times, (std::vector<double>{0, 10, 20, 30}));
}

TEST(Scheduler, EventCanCancelLaterEvent) {
  Scheduler s;
  bool fired = false;
  const EventId victim = s.schedule_at(Time::us(20), [&] { fired = true; });
  s.schedule_at(Time::us(10), [&] { s.cancel(victim); });
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(Time::us(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(Time::us(5), [] {}), std::invalid_argument);
}

TEST(Scheduler, EmptyCallbackThrows) {
  Scheduler s;
  EXPECT_THROW(s.schedule_at(Time::us(1), Scheduler::Callback{}), std::invalid_argument);
}

TEST(Scheduler, EmptyStdFunctionThrows) {
  Scheduler s;
  EXPECT_THROW(s.schedule_at(Time::us(1), std::function<void()>{}), std::invalid_argument);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, StaleIdAfterSlotReuseCancelsNothing) {
  Scheduler s;
  int fired = 0;
  const EventId cancelled = s.schedule_at(Time::us(1), [&] { fired += 100; });
  ASSERT_TRUE(s.cancel(cancelled));
  const EventId ran = s.schedule_at(Time::us(2), [&] { ++fired; });  // takes the freed record
  s.run_until(Time::us(2));
  ASSERT_EQ(fired, 1);
  const EventId next = s.schedule_at(Time::us(3), [&] { ++fired; });  // and again
  EXPECT_NE(next, cancelled);
  EXPECT_NE(next, ran);
  EXPECT_FALSE(s.cancel(cancelled));
  EXPECT_FALSE(s.cancel(ran));
  EXPECT_FALSE(s.is_pending(cancelled));
  EXPECT_FALSE(s.is_pending(ran));
  EXPECT_TRUE(s.is_pending(next));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunningEventIsNotPending) {
  Scheduler s;
  EventId self = kInvalidEvent;
  bool pending_inside = true;
  bool cancelled_inside = true;
  self = s.schedule_at(Time::us(1), [&] {
    pending_inside = s.is_pending(self);
    cancelled_inside = s.cancel(self);
  });
  s.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancelled_inside);
  EXPECT_EQ(s.total_cancelled(), 0u);
  EXPECT_EQ(s.total_executed(), 1u);
}

TEST(Scheduler, CallbackGrowingTheSlabKeepsItsCaptures) {
  Scheduler s;
  std::array<std::uint64_t, 8> pattern{};
  for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
  std::vector<int> order;
  bool captures_intact = false;
  s.schedule_at(Time::us(1), [&s, &order, &captures_intact, pattern, expect = pattern] {
    for (int i = 0; i < 600; ++i) {
      // Two events per instant: same-time events keep insertion order.
      s.schedule_at(Time::us(2 + i / 2), [&order, i] { order.push_back(i); });
    }
    captures_intact = pattern == expect;
  });
  s.run();
  EXPECT_TRUE(captures_intact);
  ASSERT_EQ(order.size(), 600u);
  for (int i = 0; i < 600; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(s.queue_high_water(), 600u);
}

template <std::size_t Pad>
struct SharedCapture {
  std::shared_ptr<int> held;
  std::array<char, Pad> pad{};
  void operator()() const {}
};

template <class Capture>
void expect_capture_released() {
  const auto token = std::make_shared<int>(7);
  {
    Scheduler s;
    s.schedule_at(Time::us(1), Capture{token});
    EXPECT_EQ(token.use_count(), 2);
    s.run();
    EXPECT_EQ(token.use_count(), 1) << "after execute";

    const EventId id = s.schedule_at(Time::us(2), Capture{token});
    EXPECT_EQ(token.use_count(), 2);
    ASSERT_TRUE(s.cancel(id));
    EXPECT_EQ(token.use_count(), 1) << "after cancel";

    s.schedule_at(Time::us(3), Capture{token});
    s.schedule_at(Time::us(4), Capture{token});
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1) << "after destroying a scheduler with pending events";
}

TEST(Scheduler, InlineCaptureIsReleased) {
  using Small = SharedCapture<8>;
  static_assert(sizeof(Small) <= Scheduler::Callback::kInlineBytes);
  expect_capture_released<Small>();
}

TEST(Scheduler, HeapCaptureIsReleased) {
  using Large = SharedCapture<2 * Scheduler::Callback::kInlineBytes>;
  static_assert(sizeof(Large) > Scheduler::Callback::kInlineBytes);
  expect_capture_released<Large>();
}

TEST(Scheduler, SchedulingAtNowRuns) {
  Scheduler s;
  bool inner = false;
  s.schedule_at(Time::us(10), [&] {
    s.schedule_at(s.now(), [&] { inner = true; });
  });
  s.run();
  EXPECT_TRUE(inner);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.schedule_at(Time::us(1), [&] { ++count; });
  s.schedule_at(Time::us(2), [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, StatsAreConsistent) {
  Scheduler s;
  const EventId a = s.schedule_at(Time::us(1), [] {});
  s.schedule_at(Time::us(2), [] {});
  s.cancel(a);
  s.run();
  EXPECT_EQ(s.total_scheduled(), 2u);
  EXPECT_EQ(s.total_executed(), 1u);
  EXPECT_EQ(s.total_cancelled(), 1u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  Time last = Time::zero();
  bool monotone = true;
  for (int i = 0; i < 10'000; ++i) {
    const auto at = Time::ns((i * 7919) % 100'000);
    s.schedule_at(at, [&, at] {
      if (s.now() < last) monotone = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.total_executed(), 10'000u);
}

}  // namespace
}  // namespace adhoc::sim
