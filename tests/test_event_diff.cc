// Differential test of the event manager: thousands of seeded random
// schedule / cancel / purge_owner / advance_to / advance_to_next sequences,
// with handlers that schedule, cancel and purge re-entrantly, run against
// both xk::EventManager and a reference copy of the original two-std::map
// implementation.  Every fire (label and time), every return value, and
// pending() / pending_for() / now() after every operation must agree.
#include <gtest/gtest.h>

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "xkernel/event.h"

namespace l96::xk {
namespace {

// The reference: a std::map ordered by (when, id) plus an id -> key map.
class ReferenceEventManager {
 public:
  using EventId = std::uint64_t;
  using Handler = std::function<void()>;

  EventId schedule_at(std::uint64_t fire_at_us, Handler fn,
                      std::uint32_t owner) {
    if (fire_at_us < now_) fire_at_us = now_;
    const EventId id = next_id_++;
    const QueueKey key{fire_at_us, id};
    queue_.emplace(key, Entry{std::move(fn), owner});
    by_id_.emplace(id, key);
    return id;
  }

  bool cancel(EventId id) {
    assert(id != 0 && id < next_id_);
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    queue_.erase(it->second);
    by_id_.erase(it);
    return true;
  }

  std::size_t purge_owner(std::uint32_t owner) {
    std::size_t purged = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->second.owner == owner) {
        by_id_.erase(it->first.id);
        it = queue_.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
    return purged;
  }

  std::size_t pending_for(std::uint32_t owner) const {
    std::size_t n = 0;
    for (const auto& [key, entry] : queue_) {
      if (entry.owner == owner) ++n;
    }
    return n;
  }

  void advance_to(std::uint64_t t_us) {
    while (!queue_.empty() && queue_.begin()->first.when <= t_us) {
      auto it = queue_.begin();
      now_ = it->first.when;
      Handler fn = std::move(it->second.fn);
      by_id_.erase(it->first.id);
      queue_.erase(it);
      fn();
    }
    if (t_us > now_) now_ = t_us;
  }

  bool advance_to_next() {
    if (queue_.empty()) return false;
    advance_to(queue_.begin()->first.when);
    return true;
  }

  std::uint64_t now() const noexcept { return now_; }
  std::size_t pending() const noexcept { return queue_.size(); }

 private:
  struct QueueKey {
    std::uint64_t when;
    EventId id;
    friend auto operator<=>(const QueueKey&, const QueueKey&) = default;
  };
  struct Entry {
    Handler fn;
    std::uint32_t owner = 0;
  };

  std::uint64_t now_ = 0;
  EventId next_id_ = 1;
  std::map<QueueKey, Entry> queue_;
  std::map<EventId, QueueKey> by_id_;
};

constexpr std::uint32_t kOwners = 4;

enum Tag : std::uint64_t {
  kSchedule = 1,
  kFire,
  kCancel,
  kPurge,
  kAdvance,
  kAdvanceNext,
  kState,
};

// Drives one manager through the operation sequence a seed picks; the log
// records everything observable.  Both managers consume the generator
// identically as long as they behave identically, so the first divergence
// shows up in the logs.
template <typename EM>
class Script {
 public:
  explicit Script(std::uint64_t seed) : state_(seed * 2 + 1) {}

  std::vector<std::uint64_t> run(int steps) {
    for (int i = 0; i < steps; ++i) op(/*in_handler=*/false);
    for (int i = 0; i < 10'000 && em_.pending() != 0; ++i) {
      log_.push_back(em_.advance_to_next());
      record_state();
    }
    return log_;
  }

 private:
  std::uint64_t rnd() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  void op(bool in_handler) {
    // Handlers do not advance time (the manager is not re-entrant there).
    switch (rnd() % (in_handler ? 4 : 7)) {
      case 0:
      case 1:
        schedule();
        break;
      case 2:
        cancel();
        break;
      case 3:
        purge();
        break;
      case 4:
      case 5: {
        const std::uint64_t t = em_.now() + rnd() % 40;
        em_.advance_to(t);
        log_.insert(log_.end(), {kAdvance, t});
        break;
      }
      case 6:
        log_.insert(log_.end(), {kAdvanceNext, em_.advance_to_next()});
        break;
    }
    record_state();
  }

  void schedule() {
    const std::uint64_t label = ids_.size();
    const std::uint64_t now = em_.now();
    // Mostly future deadlines, some due now, some in the past (clamped).
    const std::uint64_t r = rnd() % 10;
    const std::uint64_t when =
        r == 0 ? (now >= 3 ? now - 3 : 0) : now + (r == 1 ? 0 : rnd() % 50);
    const auto owner = static_cast<std::uint32_t>(rnd() % kOwners);
    const auto actions = static_cast<int>(rnd() % 3);
    typename EM::EventId id = 0;
    if (rnd() % 4 == 0) {
      // A capture too large for inline storage.
      std::array<std::uint64_t, 8> pad{};
      pad[7] = label;
      id = em_.schedule_at(
          when, [this, pad, actions] { fired(pad[7], actions); }, owner);
    } else {
      id = em_.schedule_at(
          when, [this, label, actions] { fired(label, actions); }, owner);
    }
    ids_.push_back(id);
    log_.insert(log_.end(), {kSchedule, label, when, owner});
  }

  void fired(std::uint64_t label, int actions) {
    log_.insert(log_.end(), {kFire, label, em_.now()});
    for (int i = 0; i < actions; ++i) op(/*in_handler=*/true);
  }

  void cancel() {
    if (ids_.empty()) return;
    const std::uint64_t label = rnd() % ids_.size();
    log_.insert(log_.end(), {kCancel, label, em_.cancel(ids_[label])});
  }

  void purge() {
    const auto owner = static_cast<std::uint32_t>(rnd() % kOwners);
    log_.insert(log_.end(), {kPurge, owner, em_.purge_owner(owner)});
  }

  void record_state() {
    log_.insert(log_.end(), {kState, em_.now(), em_.pending()});
    for (std::uint32_t o = 0; o < kOwners; ++o) {
      log_.push_back(em_.pending_for(o));
    }
  }

  EM em_;
  std::uint64_t state_;
  std::vector<typename EM::EventId> ids_;  // by label
  std::vector<std::uint64_t> log_;
};

TEST(EventDiff, MatchesTheTwoMapReferenceOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    const auto want = Script<ReferenceEventManager>(seed).run(200);
    const auto got = Script<EventManager>(seed).run(200);
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

TEST(EventDiff, LongSequencesReuseSlotsAndKeepOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto want = Script<ReferenceEventManager>(seed).run(20'000);
    const auto got = Script<EventManager>(seed).run(20'000);
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

TEST(EventDiff, StaleIdOfAReusedSlotIsNotPending) {
  EventManager em;
  int fired = 0;
  const auto a = em.schedule_at(10, [&] { ++fired; });
  em.advance_to(10);
  // The freed slot is reused by the next schedule, under a new id.
  const auto b = em.schedule_at(20, [&] { ++fired; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(em.cancel(a));
  EXPECT_EQ(em.pending(), 1u);
  EXPECT_TRUE(em.cancel(b));
  EXPECT_EQ(em.pending(), 0u);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace l96::xk
