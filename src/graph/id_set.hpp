#pragma once

// Dense bitset over small integer ids (vertex ids, edge ids). Used pervasively
// for failure sets and visited sets; tuned for the sizes this library deals
// with (graphs up to ~1000 edges) rather than for generality.
//
// Storage is small-buffer optimized: universes up to kInlineWords * 64 ids
// (512 — which covers every graph the exhaustive machinery can touch, the
// whole synthetic zoo, and everything EdgeMask can enumerate) live entirely
// inline, so copying failure sets into scenario batches, hashing them as
// cache keys, intersecting them per hop, and destroying them never touches
// the heap. Larger universes spill to a heap block that is reused on
// shrinking re-assignment.
//
// The word-level accessors (num_words/word/assign_bits/for_each_and) are the
// fast-path contract: batch producers blit decoded masks word by word,
// hash() folds the words directly, and the group-parallel routing core walks
// set intersections without materializing them.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace pofl {

class IdSet {
  static constexpr uint32_t kInlineWords = 8;

 public:
  IdSet() = default;
  explicit IdSet(int universe_size) { reset_universe(universe_size); }

  IdSet(const IdSet& other) : universe_(other.universe_) {
    set_word_count(other.num_words_);
    std::copy_n(other.words(), num_words_, words());
  }
  IdSet& operator=(const IdSet& other) {
    if (this == &other) return *this;
    universe_ = other.universe_;
    set_word_count(other.num_words_);
    std::copy_n(other.words(), num_words_, words());
    return *this;
  }
  IdSet(IdSet&& other) noexcept
      : universe_(other.universe_), num_words_(other.num_words_), cap_words_(other.cap_words_) {
    if (other.cap_words_ > kInlineWords) {
      heap_ = std::move(other.heap_);
    } else {
      std::copy_n(other.inline_, kInlineWords, inline_);
    }
    other.universe_ = 0;
    other.num_words_ = 0;
    other.cap_words_ = kInlineWords;
  }
  IdSet& operator=(IdSet&& other) noexcept {
    if (this == &other) return *this;
    universe_ = other.universe_;
    num_words_ = other.num_words_;
    if (other.cap_words_ > kInlineWords) {
      heap_ = std::move(other.heap_);
      cap_words_ = other.cap_words_;
    } else {
      // Copy into whichever storage is active here (we may have spilled to
      // heap earlier; capacity never shrinks, so it always fits).
      std::copy_n(other.inline_, other.num_words_, words());
    }
    other.universe_ = 0;
    other.num_words_ = 0;
    other.cap_words_ = kInlineWords;
    return *this;
  }
  ~IdSet() = default;

  [[nodiscard]] int universe_size() const { return universe_; }

  [[nodiscard]] bool contains(int id) const {
    assert(id >= 0 && id < universe_);
    return (words()[static_cast<size_t>(id) >> 6] >> (id & 63)) & 1u;
  }

  void insert(int id) {
    assert(id >= 0 && id < universe_);
    words()[static_cast<size_t>(id) >> 6] |= (uint64_t{1} << (id & 63));
  }

  void erase(int id) {
    assert(id >= 0 && id < universe_);
    words()[static_cast<size_t>(id) >> 6] &= ~(uint64_t{1} << (id & 63));
  }

  void clear() { std::fill_n(words(), num_words_, uint64_t{0}); }

  /// Re-initializes to an empty set over `universe` ids, reusing the current
  /// storage — the in-place alternative to assigning a fresh IdSet(universe).
  /// Batch producers call this once per refill, so steady-state scenario
  /// production never allocates.
  void reset_universe(int universe) {
    assert(universe >= 0);
    universe_ = universe;
    set_word_count(words_needed(universe));
    std::fill_n(words(), num_words_, uint64_t{0});
  }

  [[nodiscard]] int count() const {
    int total = 0;
    const uint64_t* w = words();
    for (uint32_t i = 0; i < num_words_; ++i) total += __builtin_popcountll(w[i]);
    return total;
  }

  [[nodiscard]] bool empty() const {
    const uint64_t* w = words();
    for (uint32_t i = 0; i < num_words_; ++i) {
      if (w[i] != 0) return false;
    }
    return true;
  }

  /// All ids present, in increasing order.
  [[nodiscard]] std::vector<int> to_vector() const {
    std::vector<int> out;
    out.reserve(static_cast<size_t>(count()));
    const uint64_t* wp = words();
    for (uint32_t wi = 0; wi < num_words_; ++wi) {
      uint64_t w = wp[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        out.push_back(static_cast<int>(wi * 64) + bit);
        w &= w - 1;
      }
    }
    return out;
  }

  /// Set union / intersection / difference, in place. Universes must match.
  IdSet& operator|=(const IdSet& other) {
    assert(universe_ == other.universe_);
    uint64_t* w = words();
    const uint64_t* o = other.words();
    for (uint32_t i = 0; i < num_words_; ++i) w[i] |= o[i];
    return *this;
  }
  IdSet& operator&=(const IdSet& other) {
    assert(universe_ == other.universe_);
    uint64_t* w = words();
    const uint64_t* o = other.words();
    for (uint32_t i = 0; i < num_words_; ++i) w[i] &= o[i];
    return *this;
  }
  IdSet& operator-=(const IdSet& other) {
    assert(universe_ == other.universe_);
    uint64_t* w = words();
    const uint64_t* o = other.words();
    for (uint32_t i = 0; i < num_words_; ++i) w[i] &= ~o[i];
    return *this;
  }

  /// Makes *this the intersection a & b without allocating (beyond growing a
  /// reused buffer once): the hot-path replacement for `IdSet c = a & b;`.
  /// a and b must share a universe; *this may have any prior universe
  /// (scratch sets are reused across graphs of different sizes).
  void assign_and(const IdSet& a, const IdSet& b) {
    assert(a.universe_ == b.universe_);
    universe_ = a.universe_;
    set_word_count(a.num_words_);
    uint64_t* w = words();
    const uint64_t* wa = a.words();
    const uint64_t* wb = b.words();
    for (uint32_t i = 0; i < num_words_; ++i) w[i] = wa[i] & wb[i];
  }

  // ---- word-level fast-path access ----------------------------------------

  /// Number of active 64-bit words (ceil(universe / 64)).
  [[nodiscard]] uint32_t num_words() const { return num_words_; }

  /// Word i of the set (bits 64*i .. 64*i+63).
  [[nodiscard]] uint64_t word(uint32_t i) const {
    assert(i < num_words_);
    return words()[i];
  }

  /// Re-initializes to universe `universe` with the first min(nwords,
  /// words_needed) words blitted from `bits` and the rest zero; bits beyond
  /// the universe in the top word are masked off. The word-level counterpart
  /// of reset_universe + insert-per-bit, used by the mask decoders so batch
  /// refills are a handful of word stores instead of a per-bit loop.
  void assign_bits(const uint64_t* bits, uint32_t nwords, int universe) {
    assert(universe >= 0);
    universe_ = universe;
    set_word_count(words_needed(universe));
    uint64_t* w = words();
    const uint32_t n = std::min(nwords, num_words_);
    std::copy_n(bits, n, w);
    std::fill(w + n, w + num_words_, uint64_t{0});
    const int tail = universe & 63;
    if (num_words_ > 0 && tail != 0) w[num_words_ - 1] &= (uint64_t{1} << tail) - 1;
  }

  /// Calls fn(id) for every id in *this & other, in increasing order, without
  /// materializing the intersection. Universes must match.
  template <typename Fn>
  void for_each_and(const IdSet& other, Fn&& fn) const {
    assert(universe_ == other.universe_);
    const uint64_t* a = words();
    const uint64_t* b = other.words();
    for (uint32_t wi = 0; wi < num_words_; ++wi) {
      uint64_t w = a[wi] & b[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        w &= w - 1;
        fn(static_cast<int>(wi * 64) + bit);
      }
    }
  }

  [[nodiscard]] bool intersects(const IdSet& other) const {
    assert(universe_ == other.universe_);
    const uint64_t* w = words();
    const uint64_t* o = other.words();
    for (uint32_t i = 0; i < num_words_; ++i) {
      if ((w[i] & o[i]) != 0) return true;
    }
    return false;
  }

  [[nodiscard]] bool is_subset_of(const IdSet& other) const {
    assert(universe_ == other.universe_);
    const uint64_t* w = words();
    const uint64_t* o = other.words();
    for (uint32_t i = 0; i < num_words_; ++i) {
      if ((w[i] & ~o[i]) != 0) return false;
    }
    return true;
  }

  /// Highest id present in exactly one of *this and other, or -1 when the
  /// sets are equal. Universes must match. The incremental-connectivity
  /// rollback keys on this: consecutive Gosper failure sets differ only in a
  /// low-bit suffix, so the highest differing id bounds the replay depth.
  [[nodiscard]] int highest_diff(const IdSet& other) const {
    assert(universe_ == other.universe_);
    const uint64_t* w = words();
    const uint64_t* o = other.words();
    for (uint32_t i = num_words_; i-- > 0;) {
      const uint64_t diff = w[i] ^ o[i];
      if (diff != 0) return static_cast<int>(i * 64) + 63 - __builtin_clzll(diff);
    }
    return -1;
  }

  friend bool operator==(const IdSet& a, const IdSet& b) {
    if (a.universe_ != b.universe_) return false;
    const uint64_t* wa = a.words();
    const uint64_t* wb = b.words();
    for (uint32_t i = 0; i < a.num_words_; ++i) {
      if (wa[i] != wb[i]) return false;
    }
    return true;
  }

  /// Stable hash, for use in unordered containers of visited states.
  [[nodiscard]] uint64_t hash() const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    const uint64_t* w = words();
    for (uint32_t i = 0; i < num_words_; ++i) {
      h ^= w[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }

 private:
  static uint32_t words_needed(int universe) {
    return static_cast<uint32_t>((universe + 63) / 64);
  }

  /// Sets the active word count, growing the heap block if it exceeds the
  /// current capacity. Contents are unspecified afterwards; callers fill.
  void set_word_count(uint32_t n) {
    if (n > cap_words_) {
      heap_.reset(new uint64_t[n]);
      cap_words_ = n;
    }
    num_words_ = n;
  }

  [[nodiscard]] uint64_t* words() { return cap_words_ <= kInlineWords ? inline_ : heap_.get(); }
  [[nodiscard]] const uint64_t* words() const {
    return cap_words_ <= kInlineWords ? inline_ : heap_.get();
  }

  int universe_ = 0;
  uint32_t num_words_ = 0;
  uint32_t cap_words_ = kInlineWords;
  uint64_t inline_[kInlineWords] = {};
  std::unique_ptr<uint64_t[]> heap_;
};

[[nodiscard]] inline IdSet operator|(IdSet a, const IdSet& b) { return a |= b; }
[[nodiscard]] inline IdSet operator&(IdSet a, const IdSet& b) { return a &= b; }
[[nodiscard]] inline IdSet operator-(IdSet a, const IdSet& b) { return a -= b; }

}  // namespace pofl
