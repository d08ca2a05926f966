#pragma once

// Fast deterministic Monte Carlo primitives for failure-set draws.
//
// std::mt19937_64 plus std::bernoulli_distribution / std::shuffle dominated
// the sampled sweeps: every i.i.d. coin paid a generate_canonical double
// conversion, every exact-count draw a full O(m) Fisher-Yates shuffle, and
// both allocated a fresh IdSet per draw. The primitives here replace that
// with a 4-word xoshiro256** state, a 2^64-scaled integer coin, and Floyd's
// O(k) algorithm writing straight into a preallocated failure mask — no heap
// and no locks anywhere. State is held per source (scenario production is
// serial under the engine's producer lock), never shared.
//
// The sequences are part of the reproducibility contract: a seed pins the
// exact failure sets across platforms (unlike std:: distributions, which are
// implementation-defined), which is what lets the golden sweep-replay
// baselines be checked into the repo.
//
// The reference_* functions are the obviously-correct, allocating spellings
// of the same draws. They consume the generator identically, so the property
// tests can pin fast draw == reference draw, sequence for sequence.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/id_set.hpp"

namespace pofl {

/// SplitMix64 step: expands a 64-bit seed into well-mixed stream of words
/// (used only to seed FastRng, so nearby seeds give unrelated states).
inline uint64_t splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256**: 4 words of state, ~1 ns per draw, passes BigCrush. Good
/// enough for failure sampling by a wide margin and an order of magnitude
/// cheaper than mt19937_64's 2.5 KB state walk.
class FastRng {
 public:
  explicit FastRng(uint64_t seed) {
    uint64_t sm = seed;
    for (uint64_t& word : state_) word = splitmix64(sm);
  }

  uint64_t next() {
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound), exactly (Lemire's multiply-shift with
  /// rejection); bound must be nonzero.
  uint64_t next_below(uint64_t bound) {
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t cutoff = (0 - bound) % bound;  // 2^64 mod bound
      while (low < cutoff) {
        m = static_cast<unsigned __int128>(next()) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// One Bernoulli coin against a coin_threshold() value. Always consumes
  /// exactly one draw, so p = 0 and p = 1 keep sequences aligned.
  bool coin(uint64_t threshold) {
    const uint64_t r = next();
    if (threshold == UINT64_MAX) return true;  // p >= 1: r < 2^64 - 1 misses one value
    return r < threshold;
  }

  /// Advances the state by n draws without using them. Same end state as n
  /// next() calls — the building block of the leapfrog shard substreams.
  void skip(uint64_t n) {
    while (n-- > 0) (void)next();
  }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

/// Probability -> 2^64-scaled comparison threshold for FastRng::coin.
inline uint64_t coin_threshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return UINT64_MAX;
  return static_cast<uint64_t>(p * 18446744073709551616.0);  // p * 2^64
}

/// I.i.d. draw: inserts each id in [0, num_ids) with probability
/// threshold / 2^64, writing into `out` in place (reset to the id universe
/// first). Consumes exactly num_ids generator draws.
inline void iid_sample(FastRng& rng, int num_ids, uint64_t threshold, IdSet& out) {
  out.reset_universe(num_ids);
  for (int id = 0; id < num_ids; ++id) {
    if (rng.coin(threshold)) out.insert(id);
  }
}

/// Exact-count draw by Floyd's algorithm: a uniform k-subset of
/// [0, num_ids) in exactly k bounded draws (amortized), written into `out`
/// in place. Replaces the O(num_ids) shuffle of the legacy draw.
inline void floyd_sample(FastRng& rng, int num_ids, int k, IdSet& out) {
  out.reset_universe(num_ids);
  if (k >= num_ids) {
    for (int id = 0; id < num_ids; ++id) out.insert(id);
    return;
  }
  for (int j = num_ids - k; j < num_ids; ++j) {
    const int t = static_cast<int>(rng.next_below(static_cast<uint64_t>(j) + 1));
    if (out.contains(t)) {
      out.insert(j);
    } else {
      out.insert(t);
    }
  }
}

/// Consumes exactly the draws of one iid_sample(num_ids) without
/// materializing the set. Sharded Monte Carlo streams leapfrog over the
/// draws owned by other shards with this, so the union of all shards'
/// failure sets is bit-identical to the unsharded sequence.
inline void iid_skip(FastRng& rng, int num_ids) { rng.skip(static_cast<uint64_t>(num_ids)); }

/// Consumes exactly the draws of one floyd_sample(num_ids, k) without
/// materializing the set. Floyd's loop performs one bounded draw per j
/// regardless of the membership test's outcome (only the inserted id
/// depends on it), so replaying the next_below calls reproduces the
/// generator consumption exactly; k >= num_ids consumes nothing.
inline void floyd_skip(FastRng& rng, int num_ids, int k) {
  if (k >= num_ids) return;
  for (int j = num_ids - k; j < num_ids; ++j) {
    (void)rng.next_below(static_cast<uint64_t>(j) + 1);
  }
}

/// Reference i.i.d. draw: same coin sequence as iid_sample, materialized the
/// slow, obvious way. Test-only spec for the fast path.
[[nodiscard]] inline std::vector<int> reference_iid_sample(FastRng& rng, int num_ids,
                                                           uint64_t threshold) {
  std::vector<int> picked;
  for (int id = 0; id < num_ids; ++id) {
    if (rng.coin(threshold)) picked.push_back(id);
  }
  return picked;
}

/// Reference Floyd draw: identical bounded-draw sequence as floyd_sample,
/// but membership kept in a sorted vector. Test-only spec for the fast path.
[[nodiscard]] inline std::vector<int> reference_floyd_sample(FastRng& rng, int num_ids, int k) {
  std::vector<int> picked;
  if (k >= num_ids) {
    for (int id = 0; id < num_ids; ++id) picked.push_back(id);
    return picked;
  }
  for (int j = num_ids - k; j < num_ids; ++j) {
    const int t = static_cast<int>(rng.next_below(static_cast<uint64_t>(j) + 1));
    bool have_t = false;
    for (const int id : picked) have_t = have_t || id == t;
    picked.push_back(have_t ? j : t);
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

}  // namespace pofl
