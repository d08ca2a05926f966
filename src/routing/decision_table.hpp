#pragma once

// The routing-decision memo: forwarding transitions keyed by (header class,
// state id, local failure mask), one table per (graph, pattern) identity.
//
// A transition is a pure function of its key (the pattern contract), so
// whoever inserts an entry stores the same value, and a table may be shared
// by every worker of every sweep on that identity: report bytes never depend
// on who inserted what. The SweepEngine owns one shared table per identity;
// a standalone RoutingWorkspace keeps a private one.
//
// Concurrency. Slots are insert-only. A lookup acquire-loads the slot key
// and reads nothing else until the key matches. An insert claims an empty
// slot by CAS to a reserved busy key, writes the mask and the transition,
// then release-stores the real key; an inserter that reaches a busy slot
// waits for it to be published, so a key is stored at most once. Lookups
// take no lock.
//
// Growth moves every slot, so it needs the table to itself. Workers bracket
// each batch with enter()/leave(). An insert past load 1/2 asks for growth,
// and inserts keep going up to load 4/5 (past it they are refused, and the
// transition is recomputed on its next visit). When at most one worker is
// inside (or the table is used standalone, with no bracket at all) the
// growth runs inline; otherwise the last worker to leave runs it, and no
// worker may enter while a growth is pending, so the grower cannot starve.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace pofl {

class DecisionTable {
 public:
  /// Transition sentinels (< 0, so they never collide with state ids).
  static constexpr int64_t kMiss = -1;
  static constexpr int64_t kDrop = -2;
  static constexpr int64_t kInvalid = -3;

  /// Capacity of a table's first allocation, in slots.
  static constexpr size_t kInitialSlots = 1024;
  /// Growth stops here (~2M slots, 48 MB): bounded memory even for an
  /// adversarial scenario stream. Past load 4/5 of it, inserts are refused.
  static constexpr size_t kMaxSlots = size_t{1} << 21;

  /// An empty table of initial_slots slots (0 or a power of two). With 0,
  /// nothing is allocated until the first insert, so a workspace that never
  /// caches costs nothing; a table several workers fill from the start is
  /// allocated up front, since its first growth would wait for a batch end.
  explicit DecisionTable(size_t initial_slots = 0);
  DecisionTable(const DecisionTable&) = delete;
  DecisionTable& operator=(const DecisionTable&) = delete;

  /// Ties the table to one (graph uid, pattern uid) identity, flushing it
  /// iff the identity changed. Flushing is not thread-safe: only a table
  /// with a single holder may change identity; a bind that matches is a
  /// read-only compare.
  void bind(uint64_t graph_uid, uint64_t pattern_uid);
  [[nodiscard]] bool bound_to(uint64_t graph_uid, uint64_t pattern_uid) const {
    return graph_uid_ == graph_uid && pattern_uid_ == pattern_uid;
  }

  /// Brackets one worker batch on a shared table (see the file comment).
  void enter();
  void leave();

  /// enter() for a scope's lifetime; leave() runs on unwinding too, so a
  /// throwing batch cannot leave a retained table entered forever.
  class Batch {
   public:
    explicit Batch(DecisionTable& table) : table_(table) { table_.enter(); }
    ~Batch() { table_.leave(); }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    DecisionTable& table_;
  };

  /// The cached transition for (key_cs, key_mask), or kMiss.
  [[nodiscard]] int64_t lookup(uint64_t key_cs, uint64_t key_mask) const {
    if (cap_ == 0) return kMiss;
    const size_t cap_mask = cap_ - 1;
    for (size_t i = static_cast<size_t>(hash(key_cs, key_mask)) & cap_mask;;
         i = (i + 1) & cap_mask) {
      const Slot& slot = slots_[i];
      const uint64_t key = slot.key_cs.load(std::memory_order_acquire);
      if (key == key_cs && slot.mask == key_mask) return slot.next;
      if (key == kEmptyKey) return kMiss;
    }
  }

  /// Inserts a computed transition; a no-op when the key is present, and a
  /// refused insert (counted in dropped()) past load 4/5.
  void insert(uint64_t key_cs, uint64_t key_mask, int64_t next);

  /// Entries resident, and inserts refused, since the last flush. These are
  /// telemetry, never report bytes: with several workers they can depend on
  /// scheduling, because an insert refused while a growth is pending is
  /// retried on a later visit of the same key.
  [[nodiscard]] size_t entries() const { return size_.load(std::memory_order_relaxed); }
  [[nodiscard]] int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Allocated slots.
  [[nodiscard]] size_t capacity() const { return cap_; }

 private:
  /// One entry. key_cs == kEmptyKey marks a free slot, kBusyKey one being
  /// written; neither is a real key, whose class id fits 31 bits.
  struct Slot {
    std::atomic<uint64_t> key_cs{kEmptyKey};
    uint64_t mask = 0;
    int64_t next = 0;
  };
  static_assert(sizeof(Slot) == 24, "a slot is three words: key, mask, transition");
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr uint64_t kBusyKey = ~uint64_t{0} - 1;

  /// Mixes the 128-bit key down to a table index seed.
  [[nodiscard]] static uint64_t hash(uint64_t key_cs, uint64_t key_mask) {
    uint64_t h = key_mask * 0x9e3779b97f4a7c15ull;
    h ^= key_cs + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    return h ^ (h >> 27);
  }

  /// Asks for a growth; runs it inline when no other worker is inside.
  void request_growth();
  /// Doubles the capacity (or makes the first allocation). The caller holds
  /// mutex_ and no other worker is inside.
  void grow_locked();

  std::unique_ptr<Slot[]> slots_;
  size_t cap_ = 0;  // 0 or a power of two
  std::atomic<size_t> size_{0};
  std::atomic<int64_t> dropped_{0};
  std::atomic<bool> grow_pending_{false};
  std::mutex mutex_;
  std::condition_variable grown_;
  int inside_ = 0;  // workers between enter() and leave(); guarded by mutex_
  uint64_t graph_uid_ = 0;    // identity: graph ... (0 = unbound)
  uint64_t pattern_uid_ = 0;  // ... and pattern uids
};

}  // namespace pofl
