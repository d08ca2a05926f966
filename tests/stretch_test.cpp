// Stretch of failover walks on the sweep engine: hops over the shortest
// surviving distance, tallied under RandomFailureSource::exact_count draws.

#include <gtest/gtest.h>

#include "attacks/pattern_corpus.hpp"
#include "graph/builders.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace pofl {
namespace {

/// `trials` uniform draws of exactly `num_failures` links for one (s, t)
/// pair, swept on one thread with stretch on.
SweepStats stretch_sweep(const Graph& g, const ForwardingPattern& pattern, VertexId s, VertexId t,
                         int num_failures, int trials, uint64_t seed) {
  auto source = RandomFailureSource::exact_count(g, num_failures, trials, seed, {{s, t}});
  SweepOptions opts;
  opts.num_threads = 1;
  opts.compute_stretch = true;
  return SweepEngine(opts).run(g, pattern, source);
}

TEST(Stretch, ShortestPathOnFailureFreePathIsExactlyOne) {
  const Graph g = make_path(5);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  const SweepStats stats = stretch_sweep(g, *pattern, 0, 4, /*num_failures=*/0,
                                         /*trials=*/50, /*seed=*/1);
  EXPECT_EQ(stats.stretch_samples, 50);
  EXPECT_EQ(stats.delivered, stats.promise_held());
  EXPECT_DOUBLE_EQ(stats.mean_stretch(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max_stretch, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_hops(), 4.0);
}

TEST(Stretch, EveryTrialIsAccountedFor) {
  const Graph g = make_cycle(6);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  const int trials = 200;
  const SweepStats stats =
      stretch_sweep(g, *pattern, 0, 3, /*num_failures=*/1, trials, /*seed=*/7);
  // One failed link never disconnects a cycle, so no trial is skipped:
  // every draw either delivers (a stretch sample) or fails to deliver.
  EXPECT_EQ(stats.promise_broken, 0);
  EXPECT_EQ(stats.stretch_samples, stats.delivered);
  EXPECT_EQ(stats.delivered + stats.looped + stats.dropped + stats.invalid, trials);
  if (stats.stretch_samples > 0) {
    EXPECT_GE(stats.mean_stretch(), 1.0);
    EXPECT_GE(stats.max_stretch, stats.mean_stretch());
    // Worst detour on C6 between antipodes: walk toward the failure, bounce
    // back, go around — 7 hops for distance 3.
    EXPECT_LE(stats.max_stretch, 7.0 / 3.0 + 1e-9);
  }
}

TEST(Stretch, FixedScenariosOnCleanPathHaveStretchOne) {
  const Graph g = make_path(5);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);

  std::vector<Scenario> scenarios;
  for (int i = 0; i < 10; ++i) scenarios.push_back(Scenario{g.empty_edge_set(), 0, 4});
  FixedScenarioSource source(std::move(scenarios));
  SweepOptions opts;
  opts.num_threads = 2;
  opts.compute_stretch = true;
  const SweepStats stats = SweepEngine(opts).run(g, *pattern, source);

  EXPECT_EQ(stats.delivered, 10);
  EXPECT_EQ(stats.stretch_samples, 10);
  EXPECT_DOUBLE_EQ(stats.mean_stretch(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max_stretch, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_hops(), 4.0);
}

}  // namespace
}  // namespace pofl
