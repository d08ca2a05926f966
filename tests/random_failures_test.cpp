// Monte Carlo delivery rates (§IX random failures) on the sweep engine:
// RandomFailureSource::iid draws, rates conditioned on the promise holding.

#include <gtest/gtest.h>

#include "attacks/pattern_corpus.hpp"
#include "graph/builders.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "resilience/outerplanar_touring.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace pofl {
namespace {

/// `trials` i.i.d. draws at link failure probability p for one (s, t) pair
/// (t = kNoVertex tours from s), swept on one thread.
SweepStats iid_sweep(const Graph& g, const ForwardingPattern& pattern, VertexId s, VertexId t,
                     double p, int trials, uint64_t seed) {
  auto source = RandomFailureSource::iid(g, p, trials, seed, {{s, t}});
  SweepOptions opts;
  opts.num_threads = 1;
  return SweepEngine(opts).run(g, pattern, source);
}

TEST(RandomFailures, PerfectlyResilientPatternDeliversAlways) {
  // Algorithm 1 on K5 is perfectly resilient: conditioned on connectivity,
  // the delivery rate must be exactly 1 at any failure probability.
  const Graph k5 = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  for (double p : {0.1, 0.3, 0.6}) {
    const SweepStats stats = iid_sweep(k5, *pattern, 0, 4, p, 3000, 7);
    EXPECT_GT(stats.promise_held(), 100);
    EXPECT_DOUBLE_EQ(stats.delivery_rate(), 1.0) << "p=" << p;
  }
}

TEST(RandomFailures, ImperfectPatternDegradesWithP) {
  // On K7 no pattern is perfect; the id-cyclic pattern's conditional
  // delivery rate must visibly drop as p grows.
  const Graph k7 = make_complete(7);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const SweepStats low = iid_sweep(k7, *pattern, 0, 6, 0.05, 4000, 11);
  const SweepStats high = iid_sweep(k7, *pattern, 0, 6, 0.55, 4000, 11);
  EXPECT_GT(low.delivery_rate(), 0.99);   // few failures: nearly always fine
  EXPECT_LT(high.delivery_rate(), 1.0);   // heavy failures: some loops
  EXPECT_GE(low.delivery_rate(), high.delivery_rate());
}

TEST(RandomFailures, MeanFailuresTracksP) {
  const Graph g = make_complete(6);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const SweepStats stats = iid_sweep(g, *pattern, 0, 5, 0.2, 4000, 3);
  // 15 edges * 0.2 = 3 expected failures, biased slightly low by the
  // connectivity conditioning.
  EXPECT_NEAR(stats.mean_failures(), 3.0, 0.7);
}

TEST(RandomFailures, TouringRateOnOuterplanarIsOne) {
  const Graph g = make_random_maximal_outerplanar(8, 2);
  const auto pattern = make_outerplanar_touring(g);
  ASSERT_NE(pattern, nullptr);
  const SweepStats stats = iid_sweep(g, *pattern, 0, kNoVertex, 0.25, 2000, 5);
  EXPECT_EQ(stats.promise_broken, 0);  // touring's promise is unconditional
  EXPECT_DOUBLE_EQ(stats.delivery_rate(), 1.0);
}

}  // namespace
}  // namespace pofl
