#pragma once
// Discrete-event scheduler.
//
// The core of the simulator: a cancellable priority queue of
// (time, insertion-order) keyed callbacks. Events scheduled for the same
// instant run in insertion order, which makes protocol races (e.g. two
// stations ending backoff in the same slot) deterministic and
// reproducible for a given seed.
//
// Scheduling allocates nothing in the steady state:
//  - Each pending event lives in a record of a slab. Records never move;
//    the slab grows on demand in doubling blocks from a 16-record first
//    block, and freed records are reused through an intrusive free list.
//  - An EventId packs the event's insertion sequence number (40 bits)
//    above its record's slot index (24 bits). The sequence number doubles
//    as the slot's generation: an id that ran or was cancelled never
//    matches the slot's next occupant.
//  - The queue is a 4-ary min-heap of 16-byte {time, id} entries; since
//    the sequence number sits in the id's high bits, ordering by
//    (time, id) is ordering by (time, insertion order).
//  - Callbacks are stored inline in the record (Callback below) when
//    they fit kInlineBytes, and on the heap otherwise.
//
// Cancellation is lazy: it destroys the callback and frees the record at
// once, and leaves the heap entry behind as a tombstone that is skipped
// when it reaches the top (its id no longer matches the record's). True
// removal through heap back-pointers in the records measured no faster,
// and would make every heap move also write a record.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace adhoc::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Value 0 is reserved as "invalid / never scheduled".
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

namespace detail {
template <class T>
inline constexpr bool kIsStdFunction = false;
template <class R, class... A>
inline constexpr bool kIsStdFunction<std::function<R(A...)>> = true;
}  // namespace detail

/// Profiling hook (see obs::SchedulerProfiler). When attached, the
/// scheduler times every executed callback and reports it here together
/// with its static label and the post-execution queue depth. Detached
/// (the default), the only cost is one null-pointer test per event.
class SchedulerProbe {
 public:
  virtual ~SchedulerProbe() = default;
  virtual void event_executed(const char* label, double wall_seconds, std::size_t pending) = 0;
};

/// Cancellable discrete-event queue.
///
/// `run_until` executes events in nondecreasing time order, FIFO among
/// equal times, and leaves the clock at the requested horizon.
class Scheduler {
 public:
  /// Move-only `void()` callable. Lambdas and std::function objects
  /// convert implicitly. A callable of up to kInlineBytes (at most
  /// pointer-aligned, nothrow-movable) is stored in the object itself;
  /// a larger one costs one heap allocation. An empty std::function or
  /// null function pointer converts to an empty Callback.
  class Callback {
   public:
    /// Holds the largest per-event capture on the hot path, the MAC's
    /// 72-byte "mac.response".
    static constexpr std::size_t kInlineBytes = 72;

    Callback() noexcept = default;

    template <class F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
               std::is_invocable_r_v<void, std::decay_t<F>&>)
    Callback(F&& f) {  // implicit, like std::function's
      using D = std::decay_t<F>;
      if constexpr (std::is_pointer_v<D> || detail::kIsStdFunction<D>) {
        if (f == nullptr) return;
      }
      if constexpr (kFitsInline<D>) {
        ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
        ops_ = &InlineOps<D>::kOps;
      } else {
        ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
        ops_ = &HeapOps<D>::kOps;
      }
    }

    Callback(Callback&& other) noexcept { take(other); }
    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        reset();
        take(other);
      }
      return *this;
    }
    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    ~Callback() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }
    /// Invoke the callable. Precondition: not empty.
    void operator()() { ops_->invoke(buf_); }
    /// Destroy the callable, leaving the Callback empty.
    void reset() noexcept {
      if (ops_ != nullptr) {
        ops_->destroy(buf_);
        ops_ = nullptr;
      }
    }

   private:
    struct Ops {
      void (*invoke)(void* obj);
      void (*relocate)(void* dst, void* src) noexcept;  // move into dst, destroy src
      void (*destroy)(void* obj) noexcept;
    };

    template <class D>
    static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                        alignof(D) <= alignof(void*) &&
                                        std::is_nothrow_move_constructible_v<D>;

    template <class D>
    struct InlineOps {
      static D* get(void* p) { return std::launder(static_cast<D*>(p)); }
      static void invoke(void* p) { (*get(p))(); }
      static void relocate(void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*get(src)));
        get(src)->~D();
      }
      static void destroy(void* p) noexcept { get(p)->~D(); }
      static constexpr Ops kOps{&invoke, &relocate, &destroy};
    };

    template <class D>
    struct HeapOps {
      static D* get(void* p) { return *std::launder(static_cast<D**>(p)); }
      static void invoke(void* p) { (*get(p))(); }
      static void relocate(void* dst, void* src) noexcept { ::new (dst) D*(get(src)); }
      static void destroy(void* p) noexcept { delete get(p); }
      static constexpr Ops kOps{&invoke, &relocate, &destroy};
    };

    void take(Callback& other) noexcept {
      if (other.ops_ != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
        ops_ = std::exchange(other.ops_, nullptr);
      }
    }

    const Ops* ops_ = nullptr;
    alignas(void*) std::byte buf_[kInlineBytes];
  };

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time (time of the last executed event, or the
  /// horizon passed to run_until once it returns).
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `at`. `at` must not precede now().
  /// `label` names the event type for profiling (static storage only —
  /// the scheduler keeps the pointer, not a copy; string literals).
  /// Throws std::invalid_argument for a past time or an empty callback,
  /// and std::length_error once every one of the slab's ~16.7M records is
  /// in use or 2^40 events have been scheduled.
  EventId schedule_at(Time at, Callback&& cb, const char* label = nullptr);

  /// Schedule `cb` after a relative delay (>= 0) from now().
  EventId schedule_in(Time delay, Callback&& cb, const char* label = nullptr) {
    return schedule_at(now_ + delay, std::move(cb), label);
  }

  /// Cancel a pending event. Returns true if the event existed and had not
  /// yet run. Cancelling kInvalidEvent, an already-run event or the event
  /// whose callback is running is a no-op.
  bool cancel(EventId id);

  /// True if `id` refers to an event that is still pending.
  [[nodiscard]] bool is_pending(EventId id) const {
    const auto slot = slot_of(id);
    return id != kInvalidEvent && slot < slots_ && record(slot).id == id;
  }

  /// Execute the single earliest pending event. Returns false if none.
  bool step();

  /// Run events until the queue is exhausted or the clock would pass
  /// `horizon`; the clock is then set to `horizon` (if finite).
  void run_until(Time horizon);

  /// Run until the event queue is empty.
  void run() { run_until(Time::infinity()); }

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending() const { return pending_; }

  // Lifetime statistics, useful for microbenchmarks and leak hunting.
  [[nodiscard]] std::uint64_t total_scheduled() const { return total_scheduled_; }
  [[nodiscard]] std::uint64_t total_executed() const { return total_executed_; }
  [[nodiscard]] std::uint64_t total_cancelled() const { return total_cancelled_; }
  /// Largest pending-event count ever reached.
  [[nodiscard]] std::size_t queue_high_water() const { return queue_high_water_; }

  /// Attach a profiling probe (nullptr detaches). The probe must outlive
  /// its attachment.
  void set_probe(SchedulerProbe* probe) { probe_ = probe; }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << (64 - kSlotBits)) - 1;
  // Slab block k holds kFirstBlock << k records, which are slots
  // [kFirstBlock * (2^k - 1), kFirstBlock * (2^(k+1) - 1)).
  static constexpr std::uint32_t kFirstBlock = 16;
  static constexpr unsigned kMaxBlocks = 20;
  static constexpr std::uint32_t kMaxSlots = kFirstBlock * ((1U << kMaxBlocks) - 1);
  static_assert(kMaxSlots <= (std::uint32_t{1} << kSlotBits));
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Record {
    EventId id = kInvalidEvent;  // the pending occupant; kInvalidEvent while free or running
    const char* label = nullptr;
    std::uint32_t next_free = kNoSlot;
    Callback cb;
  };

  struct HeapEntry {
    Time at;
    EventId id;  // seq << kSlotBits | slot, so (at, id) orders by (at, seq)
    bool operator<(const HeapEntry& o) const { return at != o.at ? at < o.at : id < o.id; }
  };

  [[nodiscard]] static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & ((EventId{1} << kSlotBits) - 1));
  }
  [[nodiscard]] static unsigned block_of(std::uint32_t slot) {
    return static_cast<unsigned>(std::bit_width(slot / kFirstBlock + 1)) - 1;
  }
  [[nodiscard]] static std::uint32_t block_start(unsigned block) {
    return kFirstBlock * ((1U << block) - 1);
  }
  [[nodiscard]] Record& record(std::uint32_t slot) {
    const unsigned b = block_of(slot);
    return blocks_[b][slot - block_start(b)];
  }
  [[nodiscard]] const Record& record(std::uint32_t slot) const {
    const unsigned b = block_of(slot);
    return blocks_[b][slot - block_start(b)];
  }

  void grow_slab();
  void free_slot(std::uint32_t slot) noexcept;
  void heap_push(HeapEntry e);
  void heap_pop();
  /// Pop tombstones until the top is a live event; returns false if empty.
  bool settle_top();
  /// Run the top entry, which settle_top() found live.
  void run_top();

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Record[]>> blocks_;
  std::uint32_t slots_ = 0;  // records handed out so far (free or in use)
  std::uint32_t free_head_ = kNoSlot;
  std::size_t pending_ = 0;
  std::uint64_t total_scheduled_ = 0;
  std::uint64_t total_executed_ = 0;
  std::uint64_t total_cancelled_ = 0;
  std::size_t queue_high_water_ = 0;
  SchedulerProbe* probe_ = nullptr;
};

}  // namespace adhoc::sim
