#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace adhoc::sim {

namespace {

constexpr std::size_t kArity = 4;

}  // namespace

EventId Scheduler::schedule_at(Time at, Callback&& cb, const char* label) {
  if (at < now_) throw std::invalid_argument("Scheduler: event scheduled in the past");
  if (!cb) throw std::invalid_argument("Scheduler: empty callback");
  if (next_seq_ > kMaxSeq) throw std::length_error("Scheduler: event sequence space exhausted");
  const bool reuse = free_head_ != kNoSlot;
  if (!reuse) {
    if (slots_ == kMaxSlots) throw std::length_error("Scheduler: event slab is full");
    if (slots_ == block_start(static_cast<unsigned>(blocks_.size()))) grow_slab();
  }
  const std::uint32_t slot = reuse ? free_head_ : slots_;
  const EventId id = (next_seq_ << kSlotBits) | slot;
  heap_push(HeapEntry{at, id});
  // Nothing below throws, so a failed push above leaves no trace.
  Record& rec = record(slot);
  if (reuse) {
    free_head_ = rec.next_free;
  } else {
    ++slots_;
  }
  ++next_seq_;
  rec.id = id;
  rec.label = label;
  rec.cb = std::move(cb);
  if (++pending_ > queue_high_water_) queue_high_water_ = pending_;
  ++total_scheduled_;
  return id;
}

bool Scheduler::cancel(EventId id) {
  if (!is_pending(id)) return false;
  free_slot(slot_of(id));  // the heap entry stays behind as a tombstone
  --pending_;
  ++total_cancelled_;
  return true;
}

bool Scheduler::step() {
  if (!settle_top()) return false;
  run_top();
  return true;
}

void Scheduler::run_until(Time horizon) {
  while (settle_top() && heap_.front().at <= horizon) run_top();
  if (!horizon.is_infinite() && horizon > now_) now_ = horizon;
}

void Scheduler::grow_slab() {
  const std::uint32_t size = kFirstBlock << blocks_.size();
  blocks_.push_back(std::make_unique<Record[]>(size));
}

void Scheduler::free_slot(std::uint32_t slot) noexcept {
  Record& rec = record(slot);
  rec.id = kInvalidEvent;
  rec.cb.reset();
  rec.next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::settle_top() {
  while (!heap_.empty() && record(slot_of(heap_.front().id)).id != heap_.front().id) heap_pop();
  return !heap_.empty();
}

void Scheduler::run_top() {
  const HeapEntry top = heap_.front();
  heap_pop();
  const std::uint32_t slot = slot_of(top.id);
  Record& rec = record(slot);
  rec.id = kInvalidEvent;  // no longer pending, though its callback is still to run
  --pending_;
  now_ = top.at;
  ++total_executed_;
  // The callback runs in place: records never move, so its captures stay
  // valid while it schedules more events. Its slot is freed once it
  // returns or throws.
  struct FreeOnExit {
    Scheduler& s;
    std::uint32_t slot;
    ~FreeOnExit() { s.free_slot(slot); }
  };
  const FreeOnExit free_on_exit{*this, slot};
  if (probe_ == nullptr) {
    rec.cb();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT-ADHOC(wall-clock) profiler hook timing
  rec.cb();
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)  // NOLINT-ADHOC(wall-clock) profiler hook timing
                          .count();
  probe_->event_executed(rec.label, wall, pending_);
}

void Scheduler::heap_push(HeapEntry e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(e < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Scheduler::heap_pop() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift the hole left at the root down to where `last` belongs.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

std::ostream& operator<<(std::ostream& os, Time t) {
  return os << t.to_us() << "us";
}

}  // namespace adhoc::sim
