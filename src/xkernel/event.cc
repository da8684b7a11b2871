#include "xkernel/event.h"

#include <stdexcept>

namespace l96::xk {

EventManager::EventId EventManager::schedule_at(std::uint64_t fire_at_us,
                                                Handler fn,
                                                std::uint32_t owner) {
  if (fire_at_us < now_) fire_at_us = now_;
  if (next_seq_ >> (64 - kSlotBits) != 0) {
    throw std::length_error("EventManager: schedule sequence exhausted");
  }
  std::uint32_t s = free_head_;
  if (s != kNone) {
    free_head_ = slots_[s].link;
  } else {
    if (slots_.size() >= (std::size_t{1} << kSlotBits)) {
      throw std::length_error("EventManager: too many pending events");
    }
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | s;
  const std::uint32_t o = owner_index(owner);
  OwnerList& list = owners_[o];
  Slot& slot = slots_[s];
  slot.fn = std::move(fn);
  slot.id = id;
  slot.owner = o;
  slot.owner_prev = kNone;
  slot.owner_next = list.head;
  if (list.head != kNone) slots_[list.head].owner_prev = s;
  list.head = s;
  ++list.size;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Node{fire_at_us, id});
  return id;
}

bool EventManager::cancel(EventId id) {
  // A foreign id (never issued by this manager) is a caller bug: fail the
  // debug build loudly, report "not pending" in release.  Slots are never
  // dropped, so an issued id always names an existing slot.
  [[maybe_unused]] const std::uint64_t seq = id >> kSlotBits;
  const std::uint32_t s = slot_of(id);
  assert(seq != 0 && seq < next_seq_ && s < slots_.size() &&
         "EventManager::cancel: foreign event id");
  if (s >= slots_.size() || slots_[s].id != id) {
    return false;  // already fired / cancelled / purged
  }
  discard(s);
  return true;
}

std::size_t EventManager::purge_owner(std::uint32_t owner) {
  for (std::uint32_t o = 0; o < owners_.size(); ++o) {
    if (owners_[o].owner != owner) continue;
    const std::size_t purged = owners_[o].size;
    while (owners_[o].head != kNone) discard(owners_[o].head);
    return purged;
  }
  return 0;
}

std::size_t EventManager::pending_for(std::uint32_t owner) const {
  for (const OwnerList& list : owners_) {
    if (list.owner == owner) return list.size;
  }
  return 0;
}

void EventManager::advance_to(std::uint64_t t_us) {
  while (!heap_.empty() && heap_.front().when <= t_us) {
    const Node top = heap_.front();
    heap_erase(0);
    now_ = top.when;
    const std::uint32_t s = slot_of(top.id);
    Handler fn = std::move(slots_[s].fn);
    release(s);
    fn();  // may schedule, cancel, or purge further events
  }
  if (t_us > now_) now_ = t_us;
}

bool EventManager::advance_to_next() {
  if (heap_.empty()) return false;
  advance_to(heap_.front().when);
  return true;
}

std::uint32_t EventManager::owner_index(std::uint32_t owner) {
  // A world has a handful of failure domains (infrastructure plus one per
  // host), so a linear search beats hashing.
  for (std::uint32_t o = 0; o < owners_.size(); ++o) {
    if (owners_[o].owner == owner) return o;
  }
  owners_.push_back(OwnerList{owner});
  return static_cast<std::uint32_t>(owners_.size() - 1);
}

void EventManager::sift_up(std::size_t pos, Node n) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(n, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, n);
}

void EventManager::sift_down(std::size_t pos, Node n) noexcept {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= size) break;
    const std::size_t last = first + 4 < size ? first + 4 : size;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], n)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, n);
}

void EventManager::heap_erase(std::size_t pos) noexcept {
  const Node last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && before(last, heap_[(pos - 1) / 4])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void EventManager::discard(std::uint32_t s) noexcept {
  heap_erase(slots_[s].link);
  slots_[s].fn.reset();
  release(s);
}

void EventManager::release(std::uint32_t s) noexcept {
  Slot& slot = slots_[s];
  OwnerList& list = owners_[slot.owner];
  if (slot.owner_prev != kNone) {
    slots_[slot.owner_prev].owner_next = slot.owner_next;
  } else {
    list.head = slot.owner_next;
  }
  if (slot.owner_next != kNone) {
    slots_[slot.owner_next].owner_prev = slot.owner_prev;
  }
  --list.size;
  slot.id = kInvalid;
  slot.link = free_head_;
  free_head_ = s;
}

}  // namespace l96::xk
