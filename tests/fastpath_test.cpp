// Fast-path equivalence: the zero-allocation simulator variants
// (route_packet_fast / tour_packet_fast / connected_fast on a shared
// SimContext + RoutingWorkspace) must be bit-identical to the classic
// walk-recording APIs — exhaustively, over every failure set of the small
// canonical graphs — and a single workspace must stay correct when reused
// across graphs of different sizes.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "graph/bitmask.hpp"
#include "graph/builders.hpp"
#include "graph/connectivity.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "routing/simulator.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace pofl {
namespace {

/// Touring pattern for the tour tests: forward to the first alive non-inport
/// edge, else bounce.
class AroundPattern final : public ForwardingPattern {
 public:
  [[nodiscard]] RoutingModel model() const override { return RoutingModel::kTouring; }
  [[nodiscard]] std::string name() const override { return "around"; }
  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                              const IdSet& failures,
                                              const Header&) const override {
    for (EdgeId e : g.incident_edges(at)) {
      if (e != inport && !failures.contains(e)) return e;
    }
    return inport != kNoEdge && !failures.contains(inport) ? std::optional<EdgeId>(inport)
                                                           : std::nullopt;
  }
};

void expect_route_equivalence_exhaustive(const Graph& g, const ForwardingPattern& pattern,
                                         const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  const SimContext ctx(g);
  RoutingWorkspace ws;
  const uint64_t limit = uint64_t{1} << g.num_edges();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    const IdSet failures = edge_mask_to_set(g, mask);
    for (const auto& [s, t] : pairs) {
      const RoutingResult slow = route_packet(g, pattern, failures, s, Header{s, t});
      const FastRouteResult fast = route_packet_fast(ctx, pattern, failures, s, Header{s, t}, ws);
      ASSERT_EQ(fast.outcome, slow.outcome) << "mask=" << mask << " s=" << s << " t=" << t;
      ASSERT_EQ(fast.hops, slow.hops) << "mask=" << mask << " s=" << s << " t=" << t;
      // The context/workspace overload of the walk-recording API agrees too,
      // including the walk itself.
      const RoutingResult with_ws = route_packet(ctx, pattern, failures, s, Header{s, t}, ws);
      ASSERT_EQ(with_ws.outcome, slow.outcome);
      ASSERT_EQ(with_ws.hops, slow.hops);
      ASSERT_EQ(with_ws.walk, slow.walk);
    }
  }
}

TEST(FastPath, RouteEquivalenceExhaustiveK5Algorithm1) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  expect_route_equivalence_exhaustive(k5, *pattern, pairs);  // 2^10 failure sets
}

TEST(FastPath, RouteEquivalenceExhaustiveK33ShortestPath) {
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  expect_route_equivalence_exhaustive(k33, *pattern, all_ordered_pairs(k33));  // 2^9 sets
}

TEST(FastPath, TourEquivalenceExhaustiveWheel) {
  // Wheel: hub plus rim, small enough for all 2^10 failure sets x starts.
  const Graph g = make_wheel(5);
  const AroundPattern pattern;
  const SimContext ctx(g);
  RoutingWorkspace ws;
  const uint64_t limit = uint64_t{1} << g.num_edges();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    const IdSet failures = edge_mask_to_set(g, mask);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const TourResult slow = tour_packet(g, pattern, failures, v);
      const FastTourResult fast = tour_packet_fast(ctx, pattern, failures, v, ws);
      ASSERT_EQ(fast.success, slow.success) << "mask=" << mask << " start=" << v;
      ASSERT_EQ(fast.dropped, slow.dropped) << "mask=" << mask << " start=" << v;
      ASSERT_EQ(fast.steps_walked, slow.steps_walked) << "mask=" << mask << " start=" << v;
      const TourResult with_ws = tour_packet(ctx, pattern, failures, v, ws);
      ASSERT_EQ(with_ws.success, slow.success);
      ASSERT_EQ(with_ws.walk, slow.walk);
      ASSERT_EQ(with_ws.missed, slow.missed);
    }
  }
}

TEST(FastPath, ConnectedFastAgreesExhaustivelyOnK33) {
  const Graph g = make_complete_bipartite(3, 3);
  const SimContext ctx(g);
  RoutingWorkspace ws;
  const uint64_t limit = uint64_t{1} << g.num_edges();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    const IdSet failures = edge_mask_to_set(g, mask);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(connected_fast(ctx, failures, u, v, ws), connected(g, u, v, failures))
            << "mask=" << mask << " u=" << u << " v=" << v;
        ASSERT_EQ(distance_fast(ctx, failures, u, v, ws), distance(g, u, v, failures).value_or(-1))
            << "mask=" << mask << " u=" << u << " v=" << v;
      }
    }
  }
}

/// Legacy reference sweep: the allocating classic APIs plus the uncached
/// connectivity primitive, tallied exactly like the engine.
SweepStats legacy_sweep(const Graph& g, const ForwardingPattern& pattern,
                        ScenarioSource& source) {
  SweepStats stats;
  ScenarioBatch batch;
  while (const int n = source.next_batch(128, batch)) {
    for (int i = 0; i < n; ++i) {
      const Scenario sc = batch.scenario(i);
      ++stats.total;
      if (sc.destination == kNoVertex) {
        stats.failures_seen += sc.failures.count();
        const TourResult r = tour_packet(g, pattern, sc.failures, sc.source);
        stats.tally_tour(r.success, r.dropped, r.steps_walked);
        continue;
      }
      if (!connected(g, sc.source, sc.destination, sc.failures)) {
        ++stats.promise_broken;
        continue;
      }
      stats.failures_seen += sc.failures.count();
      const RoutingResult r = route_packet(g, pattern, sc.failures, sc.source,
                                           Header{sc.source, sc.destination});
      stats.tally_route(r.outcome, r.hops);
    }
  }
  return stats;
}

void expect_integer_stats_equal(const SweepStats& a, const SweepStats& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.promise_broken, b.promise_broken);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.looped, b.looped);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.invalid, b.invalid);
  EXPECT_EQ(a.failures_seen, b.failures_seen);
  EXPECT_EQ(a.hops_delivered, b.hops_delivered);
}

TEST(FastPath, EngineSweepMatchesLegacyLoopOnK5For1AndNThreads) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);

  ExhaustiveFailureSource source(k5, k5.num_edges(), pairs);
  const SweepStats legacy = legacy_sweep(k5, *pattern, source);

  for (const int threads : {1, 4}) {
    SweepOptions opts;
    opts.num_threads = threads;
    source.reset();
    const SweepStats fast = SweepEngine(opts).run(k5, *pattern, source);
    expect_integer_stats_equal(fast, legacy);
  }
}

TEST(FastPath, EngineTouringSweepMatchesLegacyLoop) {
  const Graph g = make_wheel(5);
  const AroundPattern pattern;
  ExhaustiveFailureSource source(g, 3, all_touring_starts(g));
  const SweepStats legacy = legacy_sweep(g, pattern, source);
  for (const int threads : {1, 3}) {
    SweepOptions opts;
    opts.num_threads = threads;
    source.reset();
    const SweepStats fast = SweepEngine(opts).run(g, pattern, source);
    expect_integer_stats_equal(fast, legacy);
  }
}

TEST(FastPath, WorkspaceReusedAcrossGraphsOfDifferentSizes) {
  // One workspace serves packets on a small, a large, and again a small
  // graph — growing buffers and epoch stamps must never leak state between
  // graphs (or between packets).
  const Graph small = make_path(3);
  const Graph big = make_grid(5, 5);
  const Graph k5 = make_complete(5);
  const SimContext ctx_small(small);
  const SimContext ctx_big(big);
  const SimContext ctx_k5(k5);
  const auto sp_small = make_shortest_path_pattern(RoutingModel::kDestinationOnly, small);
  const auto sp_big = make_shortest_path_pattern(RoutingModel::kDestinationOnly, big);
  const auto alg1 = make_algorithm1_k5();

  RoutingWorkspace shared;
  for (int round = 0; round < 50; ++round) {
    // Vary failures per round so the walks differ.
    IdSet f_small = small.empty_edge_set();
    if (round % 2 == 1) f_small.insert(0);
    IdSet f_big = big.empty_edge_set();
    f_big.insert(round % big.num_edges());
    f_big.insert((round * 7 + 3) % big.num_edges());
    IdSet f_k5 = k5.empty_edge_set();
    f_k5.insert((round * 3) % k5.num_edges());

    RoutingWorkspace fresh1, fresh2, fresh3;
    const FastRouteResult a_shared =
        route_packet_fast(ctx_small, *sp_small, f_small, 0, Header{0, 2}, shared);
    const FastRouteResult a_fresh =
        route_packet_fast(ctx_small, *sp_small, f_small, 0, Header{0, 2}, fresh1);
    ASSERT_EQ(a_shared.outcome, a_fresh.outcome);
    ASSERT_EQ(a_shared.hops, a_fresh.hops);

    const FastRouteResult b_shared =
        route_packet_fast(ctx_big, *sp_big, f_big, 0, Header{0, 24}, shared);
    const FastRouteResult b_fresh =
        route_packet_fast(ctx_big, *sp_big, f_big, 0, Header{0, 24}, fresh2);
    ASSERT_EQ(b_shared.outcome, b_fresh.outcome);
    ASSERT_EQ(b_shared.hops, b_fresh.hops);

    const FastRouteResult c_shared =
        route_packet_fast(ctx_k5, *alg1, f_k5, 1, Header{1, 4}, shared);
    const FastRouteResult c_fresh =
        route_packet_fast(ctx_k5, *alg1, f_k5, 1, Header{1, 4}, fresh3);
    ASSERT_EQ(c_shared.outcome, c_fresh.outcome);
    ASSERT_EQ(c_shared.hops, c_fresh.hops);

    // connected_fast and tours interleave on the same workspace too.
    ASSERT_EQ(connected_fast(ctx_big, f_big, 0, 24, shared), connected(big, 0, 24, f_big));
    const AroundPattern around;
    const FastTourResult t_shared = tour_packet_fast(ctx_small, around, f_small, 0, shared);
    const TourResult t_slow = tour_packet(small, around, f_small, 0);
    ASSERT_EQ(t_shared.success, t_slow.success);
    ASSERT_EQ(t_shared.steps_walked, t_slow.steps_walked);
  }
}

TEST(FastPath, SimContextStateIdsAreDenseAndConsistent) {
  const Graph g = make_ring_with_chords(10, 3, 5);
  const SimContext ctx(g);
  std::vector<char> seen(static_cast<size_t>(ctx.num_states()), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const int bottom = ctx.state_id(v, kNoEdge);
    ASSERT_GE(bottom, 0);
    ASSERT_LT(bottom, ctx.num_states());
    EXPECT_FALSE(seen[static_cast<size_t>(bottom)]);
    seen[static_cast<size_t>(bottom)] = 1;
    for (EdgeId e : g.incident_edges(v)) {
      const int sid = ctx.state_id(v, e);
      ASSERT_GE(sid, 0);
      ASSERT_LT(sid, ctx.num_states());
      EXPECT_FALSE(seen[static_cast<size_t>(sid)]);
      seen[static_cast<size_t>(sid)] = 1;
    }
    EXPECT_EQ(ctx.incident_mask(v), g.incident_edge_set(v));
  }
  // Dense: every state id hit exactly once.
  for (const char c : seen) EXPECT_TRUE(c);
}

}  // namespace
}  // namespace pofl
