#include "routing/stateful.hpp"

#include <gtest/gtest.h>

#include <random>

#include "graph/builders.hpp"
#include "graph/connectivity.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace pofl {
namespace {

/// Exhaustive perfect-resilience check for a stateful pattern.
bool stateful_perfectly_resilient(const Graph& g, const StatefulPattern& pattern) {
  const uint32_t limit = uint32_t{1} << g.num_edges();
  for (uint32_t mask = 0; mask < limit; ++mask) {
    IdSet failures = g.empty_edge_set();
    for (int b = 0; b < g.num_edges(); ++b) {
      if (mask >> b & 1u) failures.insert(b);
    }
    const auto comp = components(g, failures);
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        if (s == t || comp[static_cast<size_t>(s)] != comp[static_cast<size_t>(t)]) continue;
        const auto r = route_stateful_packet(g, pattern, failures, s, Header{s, t});
        if (r.outcome != RoutingOutcome::kDelivered) return false;
      }
    }
  }
  return true;
}

TEST(DfsRewriting, PerfectlyResilientWhereStaticPatternsCannotBe) {
  // K5^-1 and K3,3 admit no static destination-based pattern (Thms 10/11);
  // with a rewritable header, DFS delivers everywhere. This is the price of
  // immutability made concrete.
  const auto dfs = make_dfs_rewriting_pattern();
  EXPECT_TRUE(stateful_perfectly_resilient(make_complete_minus(5, 1), *dfs));
  EXPECT_TRUE(stateful_perfectly_resilient(make_complete_bipartite(3, 3), *dfs));
  EXPECT_TRUE(stateful_perfectly_resilient(make_complete(5), *dfs));
}

TEST(DfsRewriting, RandomGraphSweep) {
  std::mt19937_64 rng(21);
  const auto dfs = make_dfs_rewriting_pattern();
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 4);
    const int max_m = n * (n - 1) / 2;
    const Graph g =
        make_random_connected(n, std::min(max_m, n + static_cast<int>(rng() % n)), rng());
    if (g.num_edges() > 13) continue;
    EXPECT_TRUE(stateful_perfectly_resilient(g, *dfs)) << g.to_string();
  }
}

TEST(DfsRewriting, WalkAndHeaderAreBounded) {
  const Graph g = make_complete(7);
  const auto dfs = make_dfs_rewriting_pattern();
  const IdSet failures = failures_between(g, {{0, 6}, {1, 6}, {2, 6}, {3, 6}, {4, 6}});
  const auto r = route_stateful_packet(g, *dfs, failures, 0, Header{0, 6});
  EXPECT_EQ(r.outcome, RoutingOutcome::kDelivered);
  EXPECT_LE(r.hops, 2 * g.num_edges());
  // Header: n bits of visited set + path entries.
  EXPECT_GT(r.max_header_bits, g.num_vertices());
  EXPECT_LE(r.max_header_bits, g.num_vertices() + 5 * g.num_vertices());
}

TEST(DfsRewriting, DropsOnlyWhenDisconnected) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto dfs = make_dfs_rewriting_pattern();
  const auto unreachable = route_stateful_packet(g, *dfs, g.empty_edge_set(), 0, Header{0, 4});
  EXPECT_EQ(unreachable.outcome, RoutingOutcome::kDropped);
  const auto reachable = route_stateful_packet(g, *dfs, g.empty_edge_set(), 0, Header{0, 2});
  EXPECT_EQ(reachable.outcome, RoutingOutcome::kDelivered);
}

/// `trials` uniform draws of exactly `num_failures` links on K5 from 0 to 4,
/// swept with stretch on.
SweepStats k5_stretch_sweep(const ForwardingPattern& pattern, int num_failures, int trials,
                            uint64_t seed) {
  const Graph k5 = make_complete(5);
  auto source = RandomFailureSource::exact_count(k5, num_failures, trials, seed, {{0, 4}});
  SweepOptions opts;
  opts.num_threads = 1;
  opts.compute_stretch = true;
  return SweepEngine(opts).run(k5, pattern, source);
}

TEST(Stretch, PerfectPatternHasFiniteStretch) {
  const auto alg1 = make_algorithm1_k5();
  const SweepStats stats = k5_stretch_sweep(*alg1, /*num_failures=*/3, /*trials=*/2000, 3);
  EXPECT_GT(stats.stretch_samples, 500);
  EXPECT_EQ(stats.delivered, stats.promise_held());  // perfectly resilient
  EXPECT_GE(stats.mean_stretch(), 1.0);
  EXPECT_LE(stats.max_stretch, 8.0);  // walks are bounded by the state count
}

TEST(Stretch, ZeroFailuresMeansShortestPathForDeliverFirstPatterns) {
  const auto alg1 = make_algorithm1_k5();
  const SweepStats stats = k5_stretch_sweep(*alg1, 0, 50, 7);
  EXPECT_DOUBLE_EQ(stats.mean_stretch(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max_stretch, 1.0);
}

}  // namespace
}  // namespace pofl
