#pragma once

// Shared bit-twiddling for exhaustive failure-set enumeration. Both the
// minimum-defeat enumerator (search/min_defeat) and the sweep engine's
// ExhaustiveFailureSource walk all size-k edge subsets in Gosper order; the
// subtle same-popcount successor and the mask decoding live here once.
//
// Masks come in two widths. The legacy uint64 helpers below cover universes
// of at most 64 edges and stay exactly as they were — several tests and
// small-graph callers enumerate raw uint64 masks directly. EdgeMask is the
// width-generic form: up to kMaxWords 64-bit words (kMaxBits edge ids), with
// the Gosper step carried across word boundaries, so exhaustive enumeration,
// sharding ordinals and the attack searches work unchanged on graphs past
// the old 64-edge wall. On a <= 64-edge universe EdgeMask enumerates the
// *identical* mask sequence (word 0 is the uint64 Gosper walk bit for bit),
// which is what keeps the golden sweep baselines byte-stable.

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace pofl {

/// Decodes an edge-id bitmask into `out` in place, reusing its storage —
/// the zero-copy batching counterpart of edge_mask_to_set. A single word
/// blit via IdSet::assign_bits, not a per-bit loop.
inline void edge_mask_write(const Graph& g, uint64_t mask, IdSet& out) {
  out.assign_bits(&mask, 1, g.num_edges());
}

/// Decodes an edge-id bitmask into a failure IdSet over g's edges.
[[nodiscard]] inline IdSet edge_mask_to_set(const Graph& g, uint64_t mask) {
  IdSet f = g.empty_edge_set();
  edge_mask_write(g, mask, f);
  return f;
}

/// The next mask with the same popcount (Gosper's hack). The caller checks
/// the result against its universe limit; mask must be non-zero.
[[nodiscard]] inline uint64_t next_same_popcount(uint64_t mask) {
  const uint64_t c = mask & (~mask + 1);
  const uint64_t r = mask + c;
  return (((r ^ mask) >> 2) / c) | r;
}

/// A multi-word edge-subset mask over a universe of up to kMaxBits edge ids,
/// enumerable in Gosper order across word boundaries. The storage carries one
/// spare word above the universe so the successor of the top-most mask can
/// overflow into it; any_at_or_above(num_bits) is the exhaustion test, the
/// multi-word spelling of the old `mask < (1 << m)` check.
class EdgeMask {
 public:
  static constexpr int kMaxWords = 8;
  static constexpr int kMaxBits = kMaxWords * 64;  // 512

  /// Always-on capacity gate (Release builds included): callers that would
  /// enumerate a universe wider than kMaxBits must fail loudly, never
  /// silently corrupt the walk. `what` names the caller in the message.
  static void check_capacity(int num_bits, const char* what) {
    if (num_bits < 0 || num_bits > kMaxBits) {
      throw std::invalid_argument(std::string(what) + ": universe of " +
                                  std::to_string(num_bits) + " edges exceeds the EdgeMask " +
                                  "limit of " + std::to_string(kMaxBits) + " (" +
                                  std::to_string(kMaxWords) + " x 64-bit words)");
    }
  }

  EdgeMask() = default;

  /// An empty mask over `num_bits` edge ids (checked against kMaxBits).
  explicit EdgeMask(int num_bits) : num_bits_(num_bits) {
    check_capacity(num_bits, "EdgeMask");
    num_words_ = num_bits / 64 + 1;  // + the spare carry word
  }

  [[nodiscard]] int num_bits() const { return num_bits_; }

  void clear() {
    for (int i = 0; i < num_words_; ++i) words_[i] = 0;
  }

  /// The canonical first size-k mask: the lowest k bits (k <= num_bits).
  void assign_first_k(int k) {
    assert(k >= 0 && k <= num_bits_);
    clear();
    int i = 0;
    for (; k >= 64; k -= 64) words_[i++] = ~uint64_t{0};
    if (k > 0) words_[i] = (uint64_t{1} << k) - 1;
  }

  [[nodiscard]] bool test(int bit) const {
    assert(bit >= 0 && bit < num_words_ * 64);
    return (words_[bit >> 6] >> (bit & 63)) & 1u;
  }

  void set(int bit) {
    assert(bit >= 0 && bit < num_words_ * 64);
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }

  [[nodiscard]] int popcount() const {
    int total = 0;
    for (int i = 0; i < num_words_; ++i) total += __builtin_popcountll(words_[i]);
    return total;
  }

  [[nodiscard]] bool none() const {
    for (int i = 0; i < num_words_; ++i) {
      if (words_[i] != 0) return false;
    }
    return true;
  }

  /// Lowest set bit id, or -1 when empty (multi-word ctz).
  [[nodiscard]] int lowest_bit() const {
    for (int i = 0; i < num_words_; ++i) {
      if (words_[i] != 0) return i * 64 + __builtin_ctzll(words_[i]);
    }
    return -1;
  }

  /// Whether any set bit lies at position >= bit: with bit = num_bits(),
  /// the Gosper walk has carried past the universe and is exhausted.
  [[nodiscard]] bool any_at_or_above(int bit) const {
    const int wi = bit >> 6;
    if (wi >= num_words_) return false;
    if ((words_[wi] >> (bit & 63)) != 0) return true;
    for (int i = wi + 1; i < num_words_; ++i) {
      if (words_[i] != 0) return true;
    }
    return false;
  }

  /// Word i of the mask (0 past the storage) — word(0) is the whole mask
  /// whenever the universe fits 64 bits, which the exhaustive stream uses
  /// as its bit-compatible replay tag.
  [[nodiscard]] uint64_t word(int i) const { return i < num_words_ ? words_[i] : 0; }
  [[nodiscard]] uint64_t low64() const { return words_[0]; }

  /// Advances to the next mask with the same popcount (Gosper's step with
  /// the carry propagated across words). The mask must be non-empty. On the
  /// last in-universe mask the carry lands at or above num_bits(), which
  /// any_at_or_above(num_bits()) then reports as exhaustion.
  ///
  /// Division-free multi-word form of the classic hack: adding the lowest
  /// set bit clears the lowest run of r ones and sets the bit above it, and
  /// the run's other r-1 ones restart from bit 0.
  void next_same_popcount() {
    assert(!none());
    const int before = popcount();
    // mask += lowest set bit, with carry across words.
    int wi = 0;
    while (words_[wi] == 0) ++wi;
    const uint64_t low = words_[wi] & (~words_[wi] + 1);
    uint64_t carry = __builtin_add_overflow(words_[wi], low, &words_[wi]) ? 1 : 0;
    for (int i = wi + 1; carry != 0 && i < num_words_; ++i) {
      carry = __builtin_add_overflow(words_[i], carry, &words_[i]) ? 1 : 0;
    }
    // Restart the displaced ones from bit 0: the run of r ones collapsed
    // into 1 bit above it, so r - 1 = before - after ones refill the low
    // end (everything below the cleared run is zero already).
    int k = before - popcount();
    int i = 0;
    for (; k >= 64; k -= 64) words_[i++] = ~uint64_t{0};
    if (k > 0) words_[i] |= (uint64_t{1} << k) - 1;
  }

  friend bool operator==(const EdgeMask& a, const EdgeMask& b) {
    if (a.num_bits_ != b.num_bits_) return false;
    for (int i = 0; i < a.num_words_; ++i) {
      if (a.words_[i] != b.words_[i]) return false;
    }
    return true;
  }

 private:
  int num_bits_ = 0;
  int num_words_ = 1;
  uint64_t words_[kMaxWords + 1] = {};  // +1: the successor's carry word
};

/// Decodes an EdgeMask into `out` in place over g's edges — the wide-mask
/// counterpart of the uint64 edge_mask_write above, also a word blit.
inline void edge_mask_write(const Graph& g, const EdgeMask& mask, IdSet& out) {
  uint64_t words[EdgeMask::kMaxWords];
  const int nwords = (g.num_edges() + 63) / 64;
  for (int wi = 0; wi < nwords; ++wi) words[wi] = mask.word(wi);
  out.assign_bits(words, static_cast<uint32_t>(nwords), g.num_edges());
}

[[nodiscard]] inline IdSet edge_mask_to_set(const Graph& g, const EdgeMask& mask) {
  IdSet f = g.empty_edge_set();
  edge_mask_write(g, mask, f);
  return f;
}

/// Enumerates all size-k subsets of {0..m-1} as EdgeMasks in Gosper order,
/// invoking fn until it returns true; returns whether fn ever did. Throws
/// (always, NDEBUG included) when m exceeds EdgeMask::kMaxBits.
template <typename Fn>
bool for_each_k_subset(int m, int k, const Fn& fn) {
  EdgeMask::check_capacity(m, "for_each_k_subset");
  if (k > m || k < 0) return false;
  EdgeMask mask(m);
  mask.assign_first_k(k);
  if (k == 0) return fn(static_cast<const EdgeMask&>(mask));
  for (;;) {
    if (fn(static_cast<const EdgeMask&>(mask))) return true;
    mask.next_same_popcount();
    if (mask.any_at_or_above(m)) return false;
  }
}

}  // namespace pofl
