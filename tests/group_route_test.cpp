// Group-parallel routing conformance: the lockstep word-packed core
// (route_groups_fast) must be bit-identical — outcome and
// hop count per packet, and every tally — to route_packet_fast, exhaustively
// over the canonical benchmark workloads; and the SweepEngine must reproduce
// a per-scenario reference SweepReport exactly at 1 and N threads, across
// repeated runs on one engine (warm pooled decision caches), under a custom
// promise, and for touring patterns.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "classify/zoo.hpp"
#include "graph/bitmask.hpp"
#include "graph/builders.hpp"
#include "graph/connectivity.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "routing/simulator.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "synth/fat_tree.hpp"

namespace pofl {
namespace {

SweepOptions threads(int n) {
  SweepOptions o;
  o.num_threads = n;
  return o;
}

/// The engine's semantics one scenario at a time, in stream order: the
/// promise by connected() (or `promise` when set; touring scenarios hold by
/// default), routing by route_packet_fast, tours by tour_packet_fast and
/// stretch by distance().
SweepReport reference_report(const Graph& g, const ForwardingPattern& pattern,
                             ScenarioSource& source, bool compute_stretch = false,
                             const PromiseCheck& promise = nullptr) {
  const SimContext ctx(g);
  RoutingWorkspace ws;
  ScenarioBatch batch;
  std::map<std::pair<VertexId, VertexId>, SweepStats> rows;
  source.reset();
  while (const int n = source.next_batch(64, batch)) {
    for (int i = 0; i < n; ++i) {
      const VertexId s = batch.source(i);
      const VertexId t = batch.destination(i);
      const IdSet& failures = batch.failures(i);
      SweepStats& st = rows[{s, t}];
      ++st.total;
      const bool held = promise ? promise(g, s, t, failures)
                                : t == kNoVertex || connected(g, s, t, failures);
      if (!held) {
        ++st.promise_broken;
        continue;
      }
      st.failures_seen += failures.count();
      if (t == kNoVertex) {
        const FastTourResult r = tour_packet_fast(ctx, pattern, failures, s, ws);
        st.tally_tour(r.success, r.dropped, r.steps_walked);
        continue;
      }
      const FastRouteResult r = route_packet_fast(ctx, pattern, failures, s, Header{s, t}, ws);
      st.tally_route(r.outcome, r.hops);
      if (compute_stretch && r.outcome == RoutingOutcome::kDelivered) {
        const auto dist = distance(g, s, t, failures);
        if (dist.has_value() && *dist >= 1) st.tally_stretch(r.hops, *dist);
      }
    }
  }
  SweepReport report;
  for (const auto& [pair, stats] : rows) {
    report.totals.merge(stats);
    report.per_pair.push_back(PairStats{pair.first, pair.second, stats});
  }
  return report;
}

void expect_stats_equal(const SweepStats& a, const SweepStats& b, const char* what) {
  EXPECT_EQ(a.total, b.total) << what;
  EXPECT_EQ(a.promise_broken, b.promise_broken) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.looped, b.looped) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.invalid, b.invalid) << what;
  EXPECT_EQ(a.failures_seen, b.failures_seen) << what;
  EXPECT_EQ(a.hops_delivered, b.hops_delivered) << what;
  EXPECT_EQ(a.stretch_samples, b.stretch_samples) << what;
  EXPECT_EQ(a.stretch_sum_q32, b.stretch_sum_q32) << what;
  EXPECT_EQ(a.max_stretch, b.max_stretch) << what;
}

void expect_reports_equal(const SweepReport& a, const SweepReport& b, const char* what) {
  expect_stats_equal(a.totals, b.totals, what);
  ASSERT_EQ(a.per_pair.size(), b.per_pair.size()) << what;
  for (size_t i = 0; i < a.per_pair.size(); ++i) {
    EXPECT_EQ(a.per_pair[i].source, b.per_pair[i].source) << what;
    EXPECT_EQ(a.per_pair[i].destination, b.per_pair[i].destination) << what;
    expect_stats_equal(a.per_pair[i].stats, b.per_pair[i].stats, what);
  }
}

/// Routes every (mask, pair) scenario once through route_groups_fast (one
/// call per failure set, all pairs lockstep) and once through
/// route_packet_fast, asserting bit-identical per-packet results and that
/// the tally is the exact fold of those results.
void expect_group_equivalence_exhaustive(
    const Graph& g, const ForwardingPattern& pattern,
    const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  const SimContext ctx(g);
  RoutingWorkspace group_ws;
  RoutingWorkspace scalar_ws;
  const int count = static_cast<int>(pairs.size());
  std::vector<VertexId> src(pairs.size()), dst(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    src[i] = pairs[i].first;
    dst[i] = pairs[i].second;
  }
  std::vector<FastRouteResult> results(pairs.size());
  const uint64_t limit = uint64_t{1} << g.num_edges();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    const IdSet failures = edge_mask_to_set(g, mask);
    const IdSet* fsets[1] = {&failures};
    const GroupRouteTally tally = route_groups_fast(ctx, pattern, fsets, nullptr, src.data(),
                                                    dst.data(), count, group_ws, results.data());
    GroupRouteTally refold;
    for (int i = 0; i < count; ++i) {
      const FastRouteResult scalar =
          route_packet_fast(ctx, pattern, failures, src[i], Header{src[i], dst[i]}, scalar_ws);
      ASSERT_EQ(results[i].outcome, scalar.outcome)
          << "mask=" << mask << " s=" << src[i] << " t=" << dst[i];
      ASSERT_EQ(results[i].hops, scalar.hops)
          << "mask=" << mask << " s=" << src[i] << " t=" << dst[i];
      switch (results[i].outcome) {
        case RoutingOutcome::kDelivered:
          ++refold.delivered;
          refold.hops_delivered += results[i].hops;
          break;
        case RoutingOutcome::kLooped:
          ++refold.looped;
          break;
        case RoutingOutcome::kDropped:
          ++refold.dropped;
          break;
        case RoutingOutcome::kInvalidForward:
          ++refold.invalid;
          break;
      }
    }
    ASSERT_EQ(tally.delivered, refold.delivered) << "mask=" << mask;
    ASSERT_EQ(tally.looped, refold.looped) << "mask=" << mask;
    ASSERT_EQ(tally.dropped, refold.dropped) << "mask=" << mask;
    ASSERT_EQ(tally.invalid, refold.invalid) << "mask=" << mask;
    ASSERT_EQ(tally.hops_delivered, refold.hops_delivered) << "mask=" << mask;
  }
}

TEST(GroupRouteFast, BitIdenticalToScalarOnExhaustiveK5) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  expect_group_equivalence_exhaustive(k5, *pattern, pairs);
}

TEST(GroupRouteFast, BitIdenticalToScalarOnExhaustiveK33) {
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  expect_group_equivalence_exhaustive(k33, *pattern, all_ordered_pairs(k33));
}

TEST(GroupRoutesFast, MixedGroupsWithDenseOrdinalsSpanChunks) {
  // Pack many failure-set groups of uneven span into single
  // route_groups_fast calls so chunks of 64 packets straddle group
  // boundaries — the ordinal-slot machinery, not just the single-group
  // wrapper, is what the engine exercises. K3,3's 512 single/double-failure
  // masks with a rotating subset of pairs give 16+ groups per call.
  const Graph g = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  const SimContext ctx(g);
  const auto pairs = all_ordered_pairs(g);
  RoutingWorkspace group_ws;
  RoutingWorkspace scalar_ws;

  std::vector<IdSet> sets;
  for (uint64_t mask = 0; mask < (uint64_t{1} << g.num_edges()); ++mask) {
    if (__builtin_popcountll(mask) <= 2) sets.push_back(edge_mask_to_set(g, mask));
  }

  std::vector<const IdSet*> fsets;
  std::vector<int32_t> ord;
  std::vector<VertexId> src, dst;
  auto flush = [&] {
    if (src.empty()) return;
    std::vector<FastRouteResult> results(src.size());
    (void)route_groups_fast(ctx, *pattern, fsets.data(), ord.data(), src.data(), dst.data(),
                            static_cast<int>(src.size()), group_ws, results.data());
    for (size_t i = 0; i < src.size(); ++i) {
      const FastRouteResult scalar = route_packet_fast(ctx, *pattern, *fsets[ord[i]], src[i],
                                                       Header{src[i], dst[i]}, scalar_ws);
      ASSERT_EQ(results[i].outcome, scalar.outcome) << "packet " << i;
      ASSERT_EQ(results[i].hops, scalar.hops) << "packet " << i;
    }
    fsets.clear();
    ord.clear();
    src.clear();
    dst.clear();
  };

  size_t next_pair = 0;
  for (size_t si = 0; si < sets.size(); ++si) {
    fsets.push_back(&sets[si]);
    const int32_t o = static_cast<int32_t>(fsets.size()) - 1;
    // Uneven spans (1..7 packets) so chunk boundaries land mid-group.
    const size_t span = 1 + si % 7;
    for (size_t k = 0; k < span; ++k) {
      const auto& [s, t] = pairs[next_pair++ % pairs.size()];
      src.push_back(s);
      dst.push_back(t);
      ord.push_back(o);
    }
    if (src.size() >= 200) flush();
  }
  flush();
}

TEST(GroupRoutesFast, FatTreeWideGraphSingleFailureStratum) {
  // Fat-tree k=6 has 108 edges, past the 64-edge word: this drives the
  // port-mask (non edge-word) side of the decision cache. |F| <= 1 stratum,
  // all failure sets, host-to-host pairs.
  const Graph ft = make_fat_tree(6);
  ASSERT_GT(ft.num_edges(), 64);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, ft);
  const SimContext ctx(ft);
  RoutingWorkspace group_ws;
  RoutingWorkspace scalar_ws;

  std::vector<std::pair<VertexId, VertexId>> pairs;
  const int step = 3;
  for (VertexId s = 0; s < ft.num_vertices(); s += step) {
    for (VertexId t = 0; t < ft.num_vertices(); t += step) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  std::vector<VertexId> src(pairs.size()), dst(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    src[i] = pairs[i].first;
    dst[i] = pairs[i].second;
  }
  std::vector<FastRouteResult> results(pairs.size());

  std::vector<IdSet> strata;
  strata.push_back(ft.empty_edge_set());
  for (EdgeId e = 0; e < ft.num_edges(); ++e) {
    IdSet f = ft.empty_edge_set();
    f.insert(e);
    strata.push_back(std::move(f));
  }
  for (const IdSet& failures : strata) {
    const IdSet* fsets[1] = {&failures};
    (void)route_groups_fast(ctx, *pattern, fsets, nullptr, src.data(), dst.data(),
                            static_cast<int>(src.size()), group_ws, results.data());
    for (size_t i = 0; i < src.size(); ++i) {
      const FastRouteResult scalar =
          route_packet_fast(ctx, *pattern, failures, src[i], Header{src[i], dst[i]}, scalar_ws);
      ASSERT_EQ(results[i].outcome, scalar.outcome) << "s=" << src[i] << " t=" << dst[i];
      ASSERT_EQ(results[i].hops, scalar.hops) << "s=" << src[i] << " t=" << dst[i];
    }
  }
}

TEST(SweepEngineGroupRouting, ReportMatchesScalarPathAcrossThreadCounts) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);

  ExhaustiveFailureSource src(k5, k5.num_edges(), pairs);
  const SweepReport reference = reference_report(k5, *pattern, src);
  for (const int n : {1, 4}) {
    src.reset();
    expect_reports_equal(SweepEngine(threads(n)).run_report(k5, *pattern, src), reference,
                         n == 1 ? "engine 1t vs reference" : "engine 4t vs reference");
  }
}

TEST(SweepEngineGroupRouting, FatTreeStratumMatchesScalarPath) {
  const Graph ft = make_fat_tree(4);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, ft);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < ft.num_vertices(); s += 2) {
    for (VertexId t = 0; t < ft.num_vertices(); t += 2) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  ExhaustiveFailureSource src(ft, 1, pairs);
  const SweepReport reference = reference_report(ft, *pattern, src);
  for (const int n : {1, 4}) {
    src.reset();
    expect_reports_equal(SweepEngine(threads(n)).run_report(ft, *pattern, src), reference,
                         n == 1 ? "fat-tree 1t" : "fat-tree 4t");
  }
}

TEST(SweepEngineGroupRouting, RepeatedRunsOnOneEngineStayIdentical) {
  // One engine, repeated runs: worker slots (and their decision caches) come
  // back out of the pool warm, and must not change a single counter.
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  const SweepEngine engine(threads(2));
  auto once = [&] {
    ExhaustiveFailureSource src(k33, k33.num_edges(), all_ordered_pairs(k33));
    return engine.run_report(k33, *pattern, src);
  };
  const SweepReport first = once();
  expect_reports_equal(once(), first, "second run, warm pool");
  expect_reports_equal(once(), first, "third run, warm pool");

  // And the warm pool keeps tracking the right identity when the engine is
  // pointed at a different (graph, pattern) in between.
  const Graph k5 = make_complete(5);
  const auto k5pat = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> k5pairs;
  for (VertexId s = 0; s < 4; ++s) k5pairs.emplace_back(s, 4);
  ExhaustiveFailureSource k5src(k5, k5.num_edges(), k5pairs);
  (void)engine.run(k5, *k5pat, k5src);
  expect_reports_equal(once(), first, "after an interleaved foreign run");
}

TEST(SweepEngineGroupRouting, StretchTalliesMatchScalarPath) {
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  ExhaustiveFailureSource src(k33, 2, all_ordered_pairs(k33));
  const SweepReport reference = reference_report(k33, *pattern, src, /*compute_stretch=*/true);
  SweepOptions o = threads(1);
  o.compute_stretch = true;
  src.reset();
  expect_reports_equal(SweepEngine(o).run_report(k33, *pattern, src), reference,
                       "stretch engine vs reference");
}

/// Which stretch tier each delivery of `source` lands in, by the engine's
/// rule: [0] hops == dist_G, [1] no failed link on a shortest s-t path of G,
/// [2] neither (the BFS). Lets a test show it reaches every tier.
std::array<int64_t, 3> stretch_tier_counts(const Graph& g, const ForwardingPattern& pattern,
                                           ScenarioSource& source) {
  const SimContext ctx(g);
  const DistanceTable table(g);
  RoutingWorkspace ws;
  ScenarioBatch batch;
  std::array<int64_t, 3> tiers{};
  source.reset();
  while (const int n = source.next_batch(64, batch)) {
    for (int i = 0; i < n; ++i) {
      const VertexId s = batch.source(i);
      const VertexId t = batch.destination(i);
      const IdSet& failures = batch.failures(i);
      if (!connected(g, s, t, failures)) continue;
      const FastRouteResult r = route_packet_fast(ctx, pattern, failures, s, Header{s, t}, ws);
      if (r.outcome != RoutingOutcome::kDelivered) continue;
      if (r.hops == table(s, t)) {
        ++tiers[0];
      } else if (!table.on_shortest_path(failures, s, t)) {
        ++tiers[1];
      } else {
        ++tiers[2];
      }
    }
  }
  return tiers;
}

/// The engine's stretch tallies against reference_report (one distance()
/// BFS per delivery) at 1 and 4 threads, per pair.
void expect_stretch_matches_reference(const Graph& g, const ForwardingPattern& pattern,
                                      ScenarioSource& src, const std::string& what) {
  const SweepReport reference = reference_report(g, pattern, src, /*compute_stretch=*/true);
  EXPECT_GT(reference.totals.stretch_samples, 0) << what;
  for (const int n : {1, 4}) {
    SweepOptions o = threads(n);
    o.compute_stretch = true;
    src.reset();
    const std::string label = what + (n == 1 ? ", 1t" : ", 4t");
    expect_reports_equal(SweepEngine(o).run_report(g, pattern, src), reference, label.c_str());
  }
}

TEST(SweepEngineGroupRouting, StretchTiersMatchScalarPathOnFatTree) {
  // Fat-tree k=4, every |F| <= 2, every ordered pair. Shortest-path
  // deliveries mostly settle in tier 1; the detouring patterns deliver with
  // hops > dist_G and reach tiers 2 and 3.
  const Graph ft = make_fat_tree(4);
  ExhaustiveFailureSource src(ft, 2, all_ordered_pairs(ft));
  std::array<int64_t, 3> reached{};
  for (const char* name : {"shortest-path", "id-cyclic", "bounce-shy"}) {
    const auto pattern = make_named_pattern(name, ft);
    ASSERT_NE(pattern, nullptr) << name;
    expect_stretch_matches_reference(ft, *pattern, src, name);
    const auto tiers = stretch_tier_counts(ft, *pattern, src);
    for (size_t k = 0; k < tiers.size(); ++k) reached[k] += tiers[k];
  }
  EXPECT_GT(reached[0], 0);
  EXPECT_GT(reached[1], 0);
  EXPECT_GT(reached[2], 0);
}

TEST(SweepEngineGroupRouting, StretchTiersMatchScalarPathOnMonteCarloZoo) {
  // Monte Carlo i.i.d. draws on a synthetic zoo graph: singleton groups, so
  // the promise takes the workspace BFS that the stretch BFS tier shares.
  const auto zoo = make_synthetic_zoo();
  const NamedGraph* pick = &zoo.front();
  for (const NamedGraph& ng : zoo) {
    if (ng.graph.num_vertices() >= 20 && ng.graph.num_vertices() <= 40) {
      pick = &ng;
      break;
    }
  }
  const Graph& g = pick->graph;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  const int step = std::max(1, g.num_vertices() / 6);
  for (VertexId s = 0; s < g.num_vertices(); s += step) {
    for (VertexId t = 0; t < g.num_vertices(); t += step) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  auto src = RandomFailureSource::iid(g, 0.1, /*trials_per_pair=*/30, /*seed=*/11, pairs);
  std::array<int64_t, 3> reached{};
  for (const char* name : {"shortest-path", "id-cyclic"}) {
    const auto pattern = make_named_pattern(name, g);
    ASSERT_NE(pattern, nullptr) << name;
    expect_stretch_matches_reference(g, *pattern, src, pick->name + " " + name);
    const auto tiers = stretch_tier_counts(g, *pattern, src);
    for (size_t k = 0; k < tiers.size(); ++k) reached[k] += tiers[k];
  }
  EXPECT_GT(reached[0], 0);
  EXPECT_GT(reached[1], 0);
  EXPECT_GT(reached[2], 0);
}

TEST(SweepEngineGroupRouting, StretchOnTwoComponentsMatchesScalarPath) {
  // Cross-component pairs read -1 in the failure-free table; they break the
  // promise, and no -1 entry may settle a distance in the components.
  Graph g(9);
  for (VertexId v = 0; v < 5; ++v) (void)g.add_edge(v, (v + 1) % 5);
  for (VertexId v = 5; v < 9; ++v) (void)g.add_edge(v, v == 8 ? 5 : v + 1);
  (void)g.add_edge(0, 2);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  ExhaustiveFailureSource src(g, 2, all_ordered_pairs(g));
  expect_stretch_matches_reference(g, *pattern, src, "two components");
  src.reset();
  EXPECT_GT(reference_report(g, *pattern, src).totals.promise_broken, 0);
}

TEST(SweepEngineGroupRouting, StretchWithoutDistanceTableMatchesScalarPath) {
  // A 2,100-vertex cycle is past the engine's failure-free table cap, so
  // every delivery takes the BFS tier.
  const Graph g = make_cycle(2100);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const std::vector<std::pair<VertexId, VertexId>> pairs{{0, 1}, {0, 700}, {1500, 3}};
  auto src = RandomFailureSource::iid(g, 0.0005, /*trials_per_pair=*/8, /*seed=*/5, pairs);
  expect_stretch_matches_reference(g, *pattern, src, "cycle past the table cap");
}

TEST(SweepEngineGroupRouting, CustomPromiseMatchesReference) {
  // A custom predicate runs once per scenario in the engine's admission
  // loop; a promise narrower than connectivity (2-edge-connected pairs)
  // must give the reference's report, per pair, at 1 and N threads.
  const Graph g = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  const PromiseCheck promise = [](const Graph& gg, VertexId s, VertexId t, const IdSet& f) {
    return edge_connectivity(gg, s, t, f) >= 2;
  };
  ExhaustiveFailureSource src(g, 3, pairs);
  const SweepReport reference = reference_report(g, *pattern, src, false, promise);
  EXPECT_GT(reference.totals.promise_broken, 0);
  for (const int n : {1, 2}) {
    SweepOptions o = threads(n);
    o.promise = promise;
    src.reset();
    expect_reports_equal(SweepEngine(o).run_report(g, *pattern, src), reference,
                         "custom promise");
  }
}

TEST(SweepEngineGroupRouting, TouringScenariosMatchScalarPath) {
  // Touring scenarios never enter the packed router (tours are walks, not
  // (s, t) packets) but flow through the same group loop; the tallies must
  // agree with the reference, with and without a custom promise.
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
  const Graph g = make_cycle(6);
  AroundPattern pattern;
  std::vector<std::pair<VertexId, VertexId>> starts;
  for (VertexId v = 0; v < g.num_vertices(); ++v) starts.emplace_back(v, kNoVertex);
  const PromiseCheck odd_starts = [](const Graph&, VertexId s, VertexId, const IdSet&) {
    return s % 2 == 1;
  };
  ExhaustiveFailureSource src(g, 2, starts);
  for (const PromiseCheck& promise : {PromiseCheck{}, odd_starts}) {
    const SweepReport reference = reference_report(g, pattern, src, false, promise);
    for (const int n : {1, 4}) {
      SweepOptions o = threads(n);
      o.promise = promise;
      src.reset();
      expect_reports_equal(SweepEngine(o).run_report(g, pattern, src), reference,
                           promise ? "touring, custom promise" : "touring");
    }
  }
}

}  // namespace
}  // namespace pofl
