// Width-generic EdgeMask unit tests: the multi-word Gosper walk against the
// legacy uint64 reference (bit-identity keeps every golden sweep baseline
// stable), the word-boundary carries, the 63/64/65-edge boundary regime
// through ExhaustiveFailureSource, the always-on capacity gate, and the
// saturating scenario totals on universes whose binomials overflow int64.

#include "graph/bitmask.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "graph/builders.hpp"
#include "sim/scenario.hpp"

namespace pofl {
namespace {

// ---- Gosper bit-identity with the uint64 reference -------------------------

TEST(EdgeMask, SingleWordWalkMatchesUint64Gosper) {
  // Every (m, k) walk on a <= 64-bit universe must reproduce the legacy
  // uint64 Gosper sequence word for word — this is the invariant that keeps
  // the historical replay tags and golden baselines byte-stable.
  for (const int m : {4, 10, 24}) {
    for (int k = 1; k <= m; ++k) {
      EdgeMask mask(m);
      mask.assign_first_k(k);
      uint64_t reference = (uint64_t{1} << k) - 1;
      int64_t steps = 0;
      for (;;) {
        ASSERT_EQ(mask.low64(), reference) << "m=" << m << " k=" << k << " step " << steps;
        ASSERT_EQ(mask.popcount(), k);
        mask.next_same_popcount();
        reference = next_same_popcount(reference);
        ++steps;
        const bool mask_done = mask.any_at_or_above(m);
        const bool ref_done = reference >= (uint64_t{1} << m);
        ASSERT_EQ(mask_done, ref_done) << "m=" << m << " k=" << k << " step " << steps;
        if (mask_done) break;
      }
    }
  }
}

TEST(EdgeMask, SuccessorCarriesAcrossWordBoundary) {
  // {62, 63} in a 65-bit universe: the run at the top of word 0 collapses
  // into bit 64 of word 1 and one displaced bit restarts at 0.
  EdgeMask mask(65);
  mask.set(62);
  mask.set(63);
  mask.next_same_popcount();
  EXPECT_EQ(mask.low64(), uint64_t{1});
  EXPECT_EQ(mask.word(1), uint64_t{1});  // bit 64
  EXPECT_EQ(mask.popcount(), 2);
  EXPECT_FALSE(mask.any_at_or_above(65));

  // {63, 64} straddles the boundary: the carry ripples through word 1.
  EdgeMask straddle(66);
  straddle.set(63);
  straddle.set(64);
  straddle.next_same_popcount();
  EXPECT_EQ(straddle.low64(), uint64_t{1});
  EXPECT_EQ(straddle.word(1), uint64_t{2});  // bit 65
  EXPECT_EQ(straddle.popcount(), 2);
}

TEST(EdgeMask, SuccessorRefillsRunsLongerThanAWord) {
  // The first 65-subset of a 70-bit universe: bits 0..64. Its successor
  // keeps word 0 full and moves the top bit up — the >= 64-bit refill path.
  EdgeMask mask(70);
  mask.assign_first_k(65);
  mask.next_same_popcount();
  EXPECT_EQ(mask.low64(), ~uint64_t{0});    // bits 0..63
  EXPECT_EQ(mask.word(1), uint64_t{1} << 1);  // bit 65
  EXPECT_EQ(mask.popcount(), 65);
}

TEST(EdgeMask, ExhaustionCarriesIntoTheSpareWord) {
  // The last 2-subset of a 128-bit universe is {126, 127}, at the very top
  // of word 1 (the last storage word for num_bits = 128 before the spare).
  // Its successor must land in the spare carry word, not wrap or trap.
  EdgeMask mask(128);
  mask.set(126);
  mask.set(127);
  mask.next_same_popcount();
  EXPECT_TRUE(mask.any_at_or_above(128));
}

TEST(EdgeMask, ForEachKSubsetCountsAndTerminates) {
  // C(67, 2) distinct masks on a two-word universe, ending at {65, 66}.
  std::set<std::pair<uint64_t, uint64_t>> seen;
  int count = 0;
  const bool found = for_each_k_subset(67, 2, [&](const EdgeMask& mask) {
    EXPECT_EQ(mask.popcount(), 2);
    seen.insert({mask.word(0), mask.word(1)});
    ++count;
    return false;
  });
  EXPECT_FALSE(found);
  EXPECT_EQ(count, 67 * 66 / 2);
  EXPECT_EQ(static_cast<int>(seen.size()), count) << "duplicate masks in the walk";
  // The Gosper-last mask {65, 66} lives entirely in word 1.
  EXPECT_EQ(seen.count({uint64_t{0}, (uint64_t{1} << 1) | (uint64_t{1} << 2)}), 1u);
}

TEST(EdgeMask, WideDecodeRoundTrips) {
  const Graph g = make_random_connected(40, 70, /*seed=*/9);
  ASSERT_EQ(g.num_edges(), 70);
  EdgeMask mask(g.num_edges());
  const std::vector<int> bits = {0, 5, 63, 64, 69};
  for (const int b : bits) mask.set(b);
  const IdSet decoded = edge_mask_to_set(g, mask);
  EXPECT_EQ(decoded.count(), static_cast<int>(bits.size()));
  for (const int b : bits) EXPECT_TRUE(decoded.contains(b)) << b;
}

// ---- capacity gate ----------------------------------------------------------

TEST(EdgeMask, CapacityGateThrowsBeyondKMaxBits) {
  EXPECT_NO_THROW(EdgeMask(EdgeMask::kMaxBits));
  EXPECT_THROW(EdgeMask(EdgeMask::kMaxBits + 1), std::invalid_argument);
  EXPECT_THROW(EdgeMask::check_capacity(-1, "test"), std::invalid_argument);
  EXPECT_THROW(
      for_each_k_subset(EdgeMask::kMaxBits + 1, 1, [](const EdgeMask&) { return false; }),
      std::invalid_argument);
}

// ---- the 63/64/65-edge boundary through the exhaustive stream ---------------

TEST(ExhaustiveBoundary, EnumerationIsExactAtTheOldWall) {
  // Graphs at exactly 63, 64 and 65 edges: the |F| <= 2 stratum must yield
  // 1 + m + C(m, 2) distinct failure sets, regardless of which side of the
  // word boundary the universe sits on.
  for (const int m : {63, 64, 65}) {
    const Graph g = make_random_connected(20, m, /*seed=*/m);
    ASSERT_EQ(g.num_edges(), m);
    ExhaustiveFailureSource source(g, 2, {{0, 1}});
    const int64_t expected = 1 + m + static_cast<int64_t>(m) * (m - 1) / 2;
    EXPECT_EQ(source.total_scenarios(), expected) << m;

    std::set<std::vector<int>> seen;
    std::set<uint64_t> tags;
    ScenarioBatch batch;
    int64_t produced = 0;
    while (const int n = source.next_batch(64, batch)) {
      for (int i = 0; i < n; ++i) {
        EXPECT_LE(batch.failures(i).count(), 2);
        seen.insert(batch.failures(i).to_vector());
        ++produced;
      }
    }
    EXPECT_EQ(produced, expected) << m;
    EXPECT_EQ(static_cast<int64_t>(seen.size()), expected) << m << ": duplicate failure sets";
  }
}

TEST(ExhaustiveBoundary, TotalScenariosSaturatesInsteadOfOverflowing) {
  // C(100, 50) alone is ~1e29: the unbounded sweep total must clamp at
  // int64 max, not wrap into a negative or small count.
  const Graph g = make_random_connected(20, 100, /*seed=*/3);
  ExhaustiveFailureSource source(g, g.num_edges(), {{0, 1}, {1, 2}});
  EXPECT_EQ(source.total_scenarios(), std::numeric_limits<int64_t>::max());
  // A bounded stratum on the same graph stays exact.
  ExhaustiveFailureSource bounded(g, 1, {{0, 1}});
  EXPECT_EQ(bounded.total_scenarios(), 1 + 100);
}

}  // namespace
}  // namespace pofl
