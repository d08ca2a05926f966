#include "routing/decision_table.hpp"

#include <thread>

namespace pofl {

DecisionTable::DecisionTable(size_t initial_slots) : cap_(initial_slots) {
  if (cap_ != 0) slots_ = std::make_unique<Slot[]>(cap_);
}

void DecisionTable::bind(uint64_t graph_uid, uint64_t pattern_uid) {
  if (bound_to(graph_uid, pattern_uid)) return;
  for (size_t i = 0; i < cap_; ++i) slots_[i].key_cs.store(kEmptyKey, std::memory_order_relaxed);
  size_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  graph_uid_ = graph_uid;
  pattern_uid_ = pattern_uid;
}

void DecisionTable::enter() {
  std::unique_lock<std::mutex> lock(mutex_);
  grown_.wait(lock, [&] { return !grow_pending_.load(std::memory_order_relaxed); });
  ++inside_;
}

void DecisionTable::leave() {
  const std::lock_guard<std::mutex> lock(mutex_);
  --inside_;
  if (inside_ == 0 && grow_pending_.load(std::memory_order_relaxed)) {
    grow_locked();
    grow_pending_.store(false, std::memory_order_relaxed);
    grown_.notify_all();
  }
}

void DecisionTable::request_growth() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (grow_pending_.load(std::memory_order_relaxed)) return;
  // inside_ counts the caller itself when it entered; a standalone table is
  // never entered at all.
  if (inside_ <= 1) {
    grow_locked();
  } else {
    grow_pending_.store(true, std::memory_order_relaxed);
  }
}

void DecisionTable::grow_locked() {
  if (cap_ >= kMaxSlots) return;
  const size_t new_cap = cap_ == 0 ? kInitialSlots : cap_ * 2;
  auto grown = std::make_unique<Slot[]>(new_cap);
  const size_t cap_mask = new_cap - 1;
  for (size_t i = 0; i < cap_; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t key = slot.key_cs.load(std::memory_order_relaxed);
    if (key == kEmptyKey) continue;
    size_t j = static_cast<size_t>(hash(key, slot.mask)) & cap_mask;
    while (grown[j].key_cs.load(std::memory_order_relaxed) != kEmptyKey) j = (j + 1) & cap_mask;
    grown[j].key_cs.store(key, std::memory_order_relaxed);
    grown[j].mask = slot.mask;
    grown[j].next = slot.next;
  }
  slots_ = std::move(grown);
  cap_ = new_cap;
}

void DecisionTable::insert(uint64_t key_cs, uint64_t key_mask, int64_t next) {
  // The load is read before the claim, so concurrent inserters can overshoot
  // a threshold by at most one entry each: far below the 1/5 of the table
  // that stays free.
  if (size_.load(std::memory_order_relaxed) * 2 >= cap_) {
    if (cap_ < kMaxSlots && !grow_pending_.load(std::memory_order_relaxed)) request_growth();
    if (size_.load(std::memory_order_relaxed) * 5 >= cap_ * 4) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  const size_t cap_mask = cap_ - 1;
  for (size_t i = static_cast<size_t>(hash(key_cs, key_mask)) & cap_mask;;
       i = (i + 1) & cap_mask) {
    Slot& slot = slots_[i];
    uint64_t key = slot.key_cs.load(std::memory_order_acquire);
    if (key == kEmptyKey) {
      if (slot.key_cs.compare_exchange_strong(key, kBusyKey, std::memory_order_acquire)) {
        slot.mask = key_mask;
        slot.next = next;
        slot.key_cs.store(key_cs, std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Lost the race: `key` now holds the winner's (busy or real) key.
    }
    while (key == kBusyKey) {
      std::this_thread::yield();
      key = slot.key_cs.load(std::memory_order_acquire);
    }
    if (key == key_cs && slot.mask == key_mask) return;  // already present
  }
}

}  // namespace pofl
