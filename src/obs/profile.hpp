#pragma once
// Scheduler/run profiling: wall-time per event label, events/sec, and
// queue-depth high-water marks, collected through the sim::SchedulerProbe
// hook. Attach via Scheduler::set_probe; detached (the default) the
// scheduler pays a single null-pointer test per event.

#include <cstdint>
#include <map>
#include <string>

#include "sim/scheduler.hpp"

namespace adhoc::obs {

class MetricsRegistry;

class SchedulerProfiler final : public sim::SchedulerProbe {
 public:
  struct LabelStats {
    std::uint64_t count = 0;
    double wall_seconds = 0.0;
  };

  // sim::SchedulerProbe
  void event_executed(const char* label, double wall_seconds, std::size_t pending) override;

  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds_ > 0.0 ? static_cast<double>(events_) / wall_seconds_ : 0.0;
  }
  [[nodiscard]] std::size_t queue_high_water() const { return queue_high_water_; }
  /// Per-label totals by label text; an unlabeled event counts as "(unlabeled)".
  [[nodiscard]] std::map<std::string, LabelStats> by_label() const;

  /// Fold the profile into `reg`: component "scheduler" for the totals,
  /// "scheduler.wall_ms_by_label" / "scheduler.count_by_label" for the
  /// per-event-type breakdown.
  void register_in(MetricsRegistry& reg) const;

  /// Human-readable multi-line summary (for benches).
  [[nodiscard]] std::string summary() const;

 private:
  std::uint64_t events_ = 0;
  double wall_seconds_ = 0.0;
  std::size_t queue_high_water_ = 0;
  // Tallied by label pointer: no string is built per event. Equal texts
  // at different addresses are merged when read, in by_label().
  std::map<const char*, LabelStats> by_pointer_;
};

}  // namespace adhoc::obs
