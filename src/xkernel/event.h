// The x-kernel event (timer) manager.
//
// Protocols register timeout handlers against virtual time in microseconds
// (TCP retransmit/persist timers, CHAN call timeouts, BLAST reassembly
// timeouts).  The World advances virtual time and due events fire in
// timestamp order; handlers may schedule or cancel further events.
//
// Failure domains: every event carries an owner id (0 = infrastructure,
// e.g. wire delivery; hosts tag their protocol timers through an
// EventPort).  A host crash purges its owner's pending events *without
// firing them* — a rebooted stack must never run a pre-crash timer.
//
// Layout: pending events live in a slot vector (freed slots are reused)
// and are ordered by an indexed 4-ary min-heap of (fire time, id) pairs;
// each slot records its heap position, so cancel is one sift.  An id is
// the schedule sequence number in its high bits and the slot index in its
// low bits: comparing ids compares schedule order (the tie-break), and an
// id whose slot no longer stores it has fired, been cancelled or purged.
// Each owner's events form an intrusive list through their slots, so
// purge_owner and pending_for never walk other owners' events.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace l96::xk {

/// A move-only `void()` callable that stores small callables inline and
/// larger or over-aligned ones on the heap.  The inline size is the wire
/// delivery's frame-carrying lambda (net/wire.cc asserts it fits), the
/// largest handler the fleet schedules per packet; more would only grow
/// every event slot.
class EventHandler {
 public:
  static constexpr std::size_t kInlineBytes = 40;

  EventHandler() noexcept = default;
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventHandler> &&
                                        std::is_invocable_v<Fn&>>>
  EventHandler(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }
  EventHandler(EventHandler&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(o.buf_, buf_);
    o.ops_ = nullptr;
  }
  EventHandler& operator=(EventHandler&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }
  EventHandler(const EventHandler&) = delete;
  EventHandler& operator=(const EventHandler&) = delete;
  ~EventHandler() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "EventHandler: calling an empty handler");
    ops_->invoke(buf_);
  }

  /// Destroy the held callable (the handler becomes empty).
  void reset() noexcept {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to) noexcept;  ///< move, end `from`
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* from, void* to) noexcept {
        Fn* f = static_cast<Fn*>(from);
        ::new (to) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn*(*static_cast<Fn**>(from));
      },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); }};

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventManager {
 public:
  using EventId = std::uint64_t;
  using Handler = EventHandler;
  static constexpr EventId kInvalid = 0;
  /// Owner id of infrastructure events (wire deliveries, harness/chaos
  /// scripts) — never purged by a host crash.
  static constexpr std::uint32_t kInfraOwner = 0;

  /// Schedule `fn` to run at absolute virtual time `fire_at_us`, tagged
  /// with `owner` (the failure domain it dies with).  Throws
  /// std::length_error past 2^24 simultaneously pending events or 2^40
  /// schedules over the manager's life.
  EventId schedule_at(std::uint64_t fire_at_us, Handler fn,
                      std::uint32_t owner = kInfraOwner);
  /// Schedule `fn` to run `delay_us` from now.
  EventId schedule_in(std::uint64_t delay_us, Handler fn,
                      std::uint32_t owner = kInfraOwner) {
    return schedule_at(now_ + delay_us, std::move(fn), owner);
  }

  /// Cancel a pending event.  Returns true iff the event was pending and
  /// is now removed.  Returns false when the event already fired, was
  /// already cancelled, or was purged by purge_owner — cancel-after-fire
  /// is a legal no-op (timer handlers commonly race their own
  /// cancellation).  Cancelling a *foreign* id — one this manager never
  /// issued (kInvalid, or an id never returned by schedule_*) — also
  /// returns false, but is a caller bug and trips a debug assertion.
  bool cancel(EventId id);

  /// Remove every pending event tagged with `owner` WITHOUT firing it
  /// (host crash: the stack's timers die with it).  Returns the number of
  /// events purged.  Their ids behave like already-fired ids afterwards
  /// (cancel returns false).
  std::size_t purge_owner(std::uint32_t owner);

  /// Pending events tagged with `owner` (crash accounting / tests).
  std::size_t pending_for(std::uint32_t owner) const;

  /// Advance virtual time to `t_us`, firing every due event in order.
  void advance_to(std::uint64_t t_us);
  /// Advance by a delta.
  void advance_by(std::uint64_t d_us) { advance_to(now_ + d_us); }
  /// Advance to (and fire) the next pending event, if any; returns whether
  /// an event fired.
  bool advance_to_next();

  std::uint64_t now() const noexcept { return now_; }
  std::size_t pending() const noexcept { return heap_.size(); }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Heap entry; ordered by (when, id), and id order is schedule order.
  struct Node {
    std::uint64_t when;
    EventId id;
  };
  struct Slot {
    Handler fn;
    EventId id = kInvalid;  ///< kInvalid while the slot is free
    /// Heap position while pending; next free slot while free.
    std::uint32_t link = kNone;
    std::uint32_t owner = 0;  ///< index into owners_
    std::uint32_t owner_prev = kNone;
    std::uint32_t owner_next = kNone;
  };
  struct OwnerList {
    std::uint32_t owner;
    std::uint32_t head = kNone;
    std::size_t size = 0;
  };

  static std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & ((EventId{1} << kSlotBits) - 1));
  }
  static bool before(const Node& a, const Node& b) noexcept {
    return a.when < b.when || (a.when == b.when && a.id < b.id);
  }

  std::uint32_t owner_index(std::uint32_t owner);
  void place(std::size_t pos, const Node& n) noexcept {
    heap_[pos] = n;
    slots_[slot_of(n.id)].link = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos, Node n) noexcept;
  void sift_down(std::size_t pos, Node n) noexcept;
  void heap_erase(std::size_t pos) noexcept;
  /// Unlink slot `s` from its owner list and put it on the free list.
  void release(std::uint32_t s) noexcept;
  /// Remove pending slot `s` without firing it (cancel, purge).
  void discard(std::uint32_t s) noexcept;

  std::uint64_t now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
  std::vector<OwnerList> owners_;
};

/// A host-owned view of the shared EventManager: every event scheduled
/// through the port is tagged with the port's owner id, so a host crash
/// can purge exactly its own timers (EventManager::purge_owner) while
/// wire deliveries and the chaos script (owner 0) keep firing.  Protocols
/// hold this through ProtoCtx and use the same schedule/cancel/now surface
/// the bare manager exposes.
class EventPort {
 public:
  EventPort(EventManager& manager, std::uint32_t owner)
      : manager_(manager), owner_(owner) {}

  EventManager::EventId schedule_at(std::uint64_t fire_at_us,
                                    EventManager::Handler fn) {
    return manager_.schedule_at(fire_at_us, std::move(fn), owner_);
  }
  EventManager::EventId schedule_in(std::uint64_t delay_us,
                                    EventManager::Handler fn) {
    return manager_.schedule_in(delay_us, std::move(fn), owner_);
  }
  bool cancel(EventManager::EventId id) { return manager_.cancel(id); }
  std::uint64_t now() const noexcept { return manager_.now(); }

  std::uint32_t owner() const noexcept { return owner_; }
  EventManager& manager() noexcept { return manager_; }

 private:
  EventManager& manager_;
  std::uint32_t owner_;
};

}  // namespace l96::xk
