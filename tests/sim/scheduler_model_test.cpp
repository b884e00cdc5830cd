// Model-based scheduler test: drive the Scheduler with a long random
// sequence of schedule/cancel operations and check every execution
// against a trivially correct reference (sorted multimap).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace adhoc::sim {
namespace {

TEST(SchedulerModel, RandomOpsMatchReference) {
  Scheduler sched;
  Rng rng{424242};

  // Reference: ordered (time, op-id) -> expected to fire in this order.
  std::multimap<std::pair<std::int64_t, std::uint64_t>, std::uint64_t> reference;
  std::vector<std::pair<EventId, decltype(reference)::iterator>> live;
  std::vector<EventId> dead;  // ids of events that ran or were cancelled
  std::vector<std::uint64_t> fired;

  // The slot index in an id's low 24 bits (see sim/scheduler.hpp): used
  // only to confirm that stale cancels do hit reused slots.
  const auto slot_of = [](EventId id) { return id & 0xFFFFFF; };
  std::size_t stale_cancels_on_reused_slots = 0;

  std::uint64_t op_counter = 0;

  for (int round = 0; round < 2000; ++round) {
    const auto action = rng.uniform_int(0, 11);
    if (action < 7 || live.empty()) {
      // Schedule at a time >= now.
      const Time at = sched.now() + Time::ns(rng.uniform_int(0, 5000));
      const std::uint64_t op = op_counter++;
      const EventId id = sched.schedule_at(at, [op, &fired] { fired.push_back(op); });
      auto it = reference.emplace(std::make_pair(at.count_ns(), op), op);
      live.emplace_back(id, it);
    } else if (action < 9) {
      // Cancel a random live event.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const auto [id, ref_it] = live[idx];
      if (sched.cancel(id)) reference.erase(ref_it);
      dead.push_back(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action < 10 && !dead.empty()) {
      // Cancel an event that already ran or was cancelled: its slot may
      // hold a newer event by now, which must stay pending.
      const EventId stale = dead[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(dead.size()) - 1))];
      for (const auto& [id, ref_it] : live) {
        if (slot_of(id) == slot_of(stale)) ++stale_cancels_on_reused_slots;
      }
      EXPECT_FALSE(sched.cancel(stale));
      EXPECT_FALSE(sched.is_pending(stale));
    } else {
      // Run a slice of time, consuming the reference front.
      const Time until = sched.now() + Time::ns(rng.uniform_int(0, 2000));
      sched.run_until(until);
      // Move newly run entries from `live` to `dead`.
      std::erase_if(live, [&](const auto& e) {
        if (sched.is_pending(e.first)) return false;
        dead.push_back(e.first);
        return true;
      });
    }
  }
  EXPECT_GT(stale_cancels_on_reused_slots, 0u);
  sched.run();

  // The reference's in-order op list must equal the firing order.
  // (Same-time events: our seq counter equals insertion order, and the
  // reference key includes op id, which is also insertion-ordered.)
  std::vector<std::uint64_t> expected;
  expected.reserve(reference.size());
  for (const auto& [key, op] : reference) expected.push_back(op);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(SchedulerModel, HeavyChurnKeepsStatsConsistent) {
  Scheduler sched;
  Rng rng{7};
  std::set<EventId> pending;
  for (int i = 0; i < 5000; ++i) {
    const EventId id = sched.schedule_at(sched.now() + Time::ns(rng.uniform_int(1, 1000)),
                                         [] {});
    pending.insert(id);
    if (rng.bernoulli(0.45) && !pending.empty()) {
      const EventId victim = *pending.begin();
      if (sched.cancel(victim)) pending.erase(victim);
    }
    if (rng.bernoulli(0.2)) sched.run_until(sched.now() + Time::ns(100));
  }
  sched.run();
  EXPECT_EQ(sched.total_scheduled(),
            sched.total_executed() + sched.total_cancelled());
}

}  // namespace
}  // namespace adhoc::sim
