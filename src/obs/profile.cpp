#include "obs/profile.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "obs/metrics.hpp"

namespace adhoc::obs {

void SchedulerProfiler::event_executed(const char* label, double wall_seconds,
                                       std::size_t pending) {
  ++events_;
  wall_seconds_ += wall_seconds;
  queue_high_water_ = std::max(queue_high_water_, pending);
  LabelStats& s = by_pointer_[label];
  ++s.count;
  s.wall_seconds += wall_seconds;
}

std::map<std::string, SchedulerProfiler::LabelStats> SchedulerProfiler::by_label() const {
  std::map<std::string, LabelStats> by_text;
  for (const auto& [label, stats] : by_pointer_) {
    LabelStats& s = by_text[label != nullptr ? label : "(unlabeled)"];
    s.count += stats.count;
    s.wall_seconds += stats.wall_seconds;
  }
  return by_text;
}

void SchedulerProfiler::register_in(MetricsRegistry& reg) const {
  reg.set_gauge("scheduler", "events", static_cast<double>(events_));
  reg.set_gauge("scheduler", "wall_ms", wall_seconds_ * 1e3);
  reg.set_gauge("scheduler", "events_per_sec", events_per_sec());
  reg.set_gauge("scheduler", "queue_high_water", static_cast<double>(queue_high_water_));
  for (const auto& [label, stats] : by_label()) {
    reg.set_gauge("scheduler.wall_ms_by_label", label, stats.wall_seconds * 1e3);
    reg.set_gauge("scheduler.count_by_label", label, static_cast<double>(stats.count));
  }
}

std::string SchedulerProfiler::summary() const {
  std::ostringstream os;
  os << "scheduler profile: " << events_ << " events, " << wall_seconds_ * 1e3 << " ms ("
     << events_per_sec() / 1e6 << " M events/s), queue high-water " << queue_high_water_
     << '\n';
  // Heaviest labels first.
  const auto by_text = by_label();
  std::vector<std::pair<std::string, LabelStats>> rows(by_text.begin(), by_text.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second.wall_seconds > y.second.wall_seconds;
  });
  for (const auto& [label, stats] : rows) {
    os << "  " << label << ": " << stats.count << " events, " << stats.wall_seconds * 1e3
       << " ms\n";
  }
  return os.str();
}

}  // namespace adhoc::obs
