// Pins the branch-and-bound minimum-defeat search to the ground truth it
// must reproduce bit for bit: the increasing-|F| Gosper enumerator.
//
//   * Exhaustive cross-check — on every seed theorem graph (K5, K3,3,
//     K5^-2, and a K4/cycle/wheel/outerplanar zoo), every pattern, every
//     ordered pair, full failure budget: the search's status and witness
//     must equal both the production enumerate strategy and an independent
//     reference enumerator written here from the defeat definition alone.
//   * Property harness — 200 seeded random graphs x rotating pattern
//     families: search == enumerator, proved lower bounds never exceed the
//     optimum, incumbent seeding never changes the answer, reruns are
//     deterministic.
//   * Typed statuses — kPerfectlyResilient vs kNoDefeatWithinBudget replace
//     the old ambiguous nullopt; regressions pin both on an undefeatable
//     pair and on budget-truncated searches.
//   * Verifier identity — the find_* fast paths answer exactly what
//     SweepEngine::find_first_violation answers over the same exhaustive
//     stream, at 1 and N threads, including r-tolerance.
//   * Telemetry pins — whole JSON objects of the enumeration fallbacks and
//     the any-pair and touring searches, byte for byte.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "graph/bitmask.hpp"
#include "graph/builders.hpp"
#include "graph/connectivity.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "resilience/k33_source.hpp"
#include "resilience/k5m2_dest.hpp"
#include "resilience/outerplanar_touring.hpp"
#include "routing/verifier.hpp"
#include "search/min_defeat.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"

namespace pofl {
namespace {

// ---- independent reference enumerator --------------------------------------
// Written from the defeat definition alone (promise first, then delivery),
// sharing no code with either production strategy beyond the mask iterator
// and the walk-recording simulator: strata ascending, Gosper order within a
// stratum, first hit wins.

std::optional<IdSet> reference_min_defeat(const Graph& g, const ForwardingPattern& pattern,
                                          VertexId s, VertexId t, int budget) {
  for (int k = 0; k <= budget; ++k) {
    std::optional<IdSet> found;
    for_each_k_subset(g.num_edges(), k, [&](const EdgeMask& mask) {
      IdSet f = edge_mask_to_set(g, mask);
      if (!connected(g, s, t, f)) return false;
      if (route_packet(g, pattern, f, s, Header{s, t}).outcome == RoutingOutcome::kDelivered) {
        return false;
      }
      found = std::move(f);
      return true;
    });
    if (found.has_value()) return found;
  }
  return std::nullopt;
}

void expect_identical(const MinDefeatResult& a, const MinDefeatResult& b, const char* what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_TRUE(a.failures == b.failures) << what;
  EXPECT_EQ(a.source, b.source) << what;
  EXPECT_EQ(a.destination, b.destination) << what;
  if (a.defeated() && b.defeated()) {
    EXPECT_EQ(a.routing.outcome, b.routing.outcome) << what;
    EXPECT_EQ(a.routing.hops, b.routing.hops) << what;
  }
}

/// Full-budget three-way identity on every ordered pair of `g`: search vs
/// production enumerator vs the reference above.
void cross_check_all_pairs(const Graph& g, const ForwardingPattern& pattern) {
  const int m = g.num_edges();
  SearchOptions enumerate;
  enumerate.strategy = SearchStrategy::kEnumerate;
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (s == t) continue;
      SCOPED_TRACE(pattern.name() + " pair " + std::to_string(s) + "->" + std::to_string(t));
      const MinDefeatResult bnb = min_defeat_search(g, pattern, s, t, m);
      const MinDefeatResult en = min_defeat_search(g, pattern, s, t, m, enumerate);
      expect_identical(bnb, en, "search vs production enumerator");

      const auto ref = reference_min_defeat(g, pattern, s, t, m);
      ASSERT_EQ(bnb.defeated(), ref.has_value());
      if (ref.has_value()) {
        EXPECT_TRUE(bnb.failures == *ref) << "search witness != reference witness";
        EXPECT_EQ(bnb.telemetry.proved_bound, bnb.failures.count());
      } else {
        // Full budget and nothing found: the typed result must say *proven*,
        // for the search and the enumerator alike.
        EXPECT_EQ(bnb.status, MinDefeatStatus::kPerfectlyResilient);
        EXPECT_EQ(bnb.telemetry.proved_bound, m + 1);
      }
    }
  }
}

// ---- exhaustive cross-check on the seed theorem graphs ---------------------

TEST(MinDefeatCrossCheck, K5Algorithm1AllPairs) {
  const Graph k5 = make_complete(5);
  cross_check_all_pairs(k5, *make_algorithm1_k5());
}

TEST(MinDefeatCrossCheck, K5CorpusAllPairs) {
  const Graph k5 = make_complete(5);
  for (const auto& p : make_pattern_corpus(RoutingModel::kSourceDestination, k5, 1, 11)) {
    cross_check_all_pairs(k5, *p);
  }
}

TEST(MinDefeatCrossCheck, K33SourcePatternAllPairs) {
  const Graph k33 = make_complete_bipartite(3, 3);
  cross_check_all_pairs(k33, *make_k33_source_pattern());
}

TEST(MinDefeatCrossCheck, K5MinusTwoDestPatternAllPairs) {
  const Graph g = make_complete_minus(5, 2);
  cross_check_all_pairs(g, *make_k5m2_dest_pattern(g));
}

TEST(MinDefeatCrossCheck, MinorZooCorpusAllPairs) {
  const Graph zoo[] = {make_complete(4), make_cycle(5), make_wheel(5),
                       make_random_maximal_outerplanar(6, 3)};
  for (const Graph& g : zoo) {
    for (const auto& p : make_pattern_corpus(RoutingModel::kSourceDestination, g, 1, 29)) {
      cross_check_all_pairs(g, *p);
    }
  }
}

// ---- randomized property harness -------------------------------------------

std::unique_ptr<ForwardingPattern> property_pattern(int seed, const Graph& g) {
  switch (seed % 5) {
    case 0: return make_shortest_path_pattern(RoutingModel::kSourceDestination, g);
    case 1: return make_id_cyclic_pattern(RoutingModel::kSourceDestination);
    case 2: return make_bounce_shy_pattern(RoutingModel::kSourceDestination, g);
    case 3: return make_random_cyclic_pattern(RoutingModel::kSourceDestination, g,
                                              static_cast<uint64_t>(seed));
    default: return make_random_stateless_pattern(RoutingModel::kSourceDestination,
                                                  static_cast<uint64_t>(seed));
  }
}

TEST(MinDefeatProperty, TwoHundredSeededRandomGraphs) {
  for (int seed = 1; seed <= 200; ++seed) {
    const int n = 4 + seed % 9;  // 4..12 vertices
    const int max_m = n * (n - 1) / 2;
    const int m_target = std::min(n - 1 + seed % 5, max_m);
    const Graph g = make_random_connected(n, m_target, static_cast<uint64_t>(seed));
    const auto pattern = property_pattern(seed, g);

    const VertexId s = static_cast<VertexId>(seed % n);
    VertexId t = static_cast<VertexId>((seed * 7 + 3) % n);
    if (t == s) t = static_cast<VertexId>((t + 1) % n);
    const int m = g.num_edges();
    SCOPED_TRACE("seed " + std::to_string(seed) + " n=" + std::to_string(n) +
                 " m=" + std::to_string(m) + " " + pattern->name() + " " + std::to_string(s) +
                 "->" + std::to_string(t));

    SearchOptions enumerate;
    enumerate.strategy = SearchStrategy::kEnumerate;
    const MinDefeatResult bnb = min_defeat_search(g, *pattern, s, t, m);
    const MinDefeatResult en = min_defeat_search(g, *pattern, s, t, m, enumerate);
    expect_identical(bnb, en, "search vs enumerator");

    // The proven lower bound may never exceed the optimum (= witness size
    // when defeated, m + 1 when the pair is perfectly resilient).
    const int optimum = bnb.defeated() ? bnb.failures.count() : m + 1;
    EXPECT_LE(bnb.telemetry.proved_bound, optimum);
    EXPECT_EQ(bnb.telemetry.proved_bound, optimum);  // full budget: bound is tight
    EXPECT_GE(bnb.telemetry.root_min_cut, 1);        // the graph is connected

    // Incumbent seeding (greedy probes on, corpus candidates in) versus the
    // cold search: the answer may never move, only the bound-closing speed.
    const auto candidates =
        corpus_upper_bound_candidates(g, RoutingModel::kSourceDestination, s, t, m);
    SearchOptions seeded;
    seeded.upper_bound_candidates = &candidates;
    SearchOptions cold;
    cold.seed_incumbents = false;
    expect_identical(min_defeat_search(g, *pattern, s, t, m, seeded), bnb, "seeded vs default");
    expect_identical(min_defeat_search(g, *pattern, s, t, m, cold), bnb, "cold vs default");

    // Deterministic: a rerun reproduces the witness and the whole telemetry
    // trace, not just the answer.
    if (seed % 10 == 0) {
      const MinDefeatResult again = min_defeat_search(g, *pattern, s, t, m);
      expect_identical(again, bnb, "rerun vs first run");
      EXPECT_EQ(again.telemetry.nodes_expanded, bnb.telemetry.nodes_expanded);
      EXPECT_EQ(again.telemetry.leaves_verified, bnb.telemetry.leaves_verified);
      EXPECT_EQ(again.telemetry.incumbent_trajectory, bnb.telemetry.incumbent_trajectory);
    }
  }
}

// ---- typed statuses ---------------------------------------------------------

TEST(MinDefeatStatusTyped, UndefeatablePairIsProvenResilient) {
  // On a path, any failure on the one s-t route breaks the connectivity
  // promise, and with no failures shortest-path delivers: no defeating set
  // of any size exists, and the search must say *proven*, not "none found".
  const Graph p4 = make_path(4);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, p4);
  for (const SearchStrategy strategy : {SearchStrategy::kAuto, SearchStrategy::kEnumerate}) {
    SearchOptions opts;
    opts.strategy = strategy;
    const auto r = min_defeat_search(p4, *pattern, 0, 3, p4.num_edges(), opts);
    EXPECT_EQ(r.status, MinDefeatStatus::kPerfectlyResilient) << to_string(strategy);
    EXPECT_FALSE(r.defeated());
    EXPECT_EQ(r.failures.count(), 0);
    EXPECT_EQ(r.telemetry.proved_bound, p4.num_edges() + 1);
  }
}

TEST(MinDefeatStatusTyped, BudgetBelowOptimumIsNoDefeatWithinBudget) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const auto full = min_defeat_search(k5, *pattern, 0, 4, k5.num_edges());
  ASSERT_TRUE(full.defeated());
  const int k_star = full.failures.count();
  ASSERT_GE(k_star, 1);

  // One below the optimum: a defeat exists, so "perfectly resilient" would
  // be a lie — both strategies must report the budget-bounded status.
  SearchOptions enumerate;
  enumerate.strategy = SearchStrategy::kEnumerate;
  for (const SearchOptions& opts : {SearchOptions{}, enumerate}) {
    const auto below = min_defeat_search(k5, *pattern, 0, 4, k_star - 1, opts);
    EXPECT_EQ(below.status, MinDefeatStatus::kNoDefeatWithinBudget)
        << to_string(opts.strategy);
    EXPECT_EQ(below.telemetry.proved_bound, k_star);  // budget + 1

    // At exactly the optimum the witness reappears, bit-identical.
    const auto at = min_defeat_search(k5, *pattern, 0, 4, k_star, opts);
    expect_identical(at, full, "budget k* vs full budget");
  }
}

TEST(MinDefeatStatusTyped, NegativeBudgetFindsNothing) {
  const Graph k4 = make_complete(4);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const auto r = min_defeat_search(k4, *pattern, 0, 3, -1);
  EXPECT_EQ(r.status, MinDefeatStatus::kNoDefeatWithinBudget);
  EXPECT_EQ(r.telemetry.strategy, "none");
}

// ---- escape hatches ---------------------------------------------------------

TEST(MinDefeatFallback, NodeCapFallsBackToExactEnumeration) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const auto def = min_defeat_search(k5, *pattern, 0, 4, k5.num_edges());
  SearchOptions capped;
  capped.node_cap = 1;
  const auto r = min_defeat_search(k5, *pattern, 0, 4, k5.num_edges(), capped);
  expect_identical(r, def, "node-cap fallback vs default");
}

TEST(MinDefeatFallback, CustomPromiseForcesEnumerateFallback) {
  // A custom predicate (even one equal to the default promise) is opaque to
  // the bound machinery, so kAuto must route through enumeration — and agree
  // with the explicit kEnumerate run under the same predicate.
  const Graph k5 = make_complete(5);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  SearchOptions custom;
  custom.promise = [](const Graph& graph, VertexId s, VertexId t, const IdSet& f) {
    return connected(graph, s, t, f);
  };
  const auto r = min_defeat_search(k5, *pattern, 0, 4, k5.num_edges(), custom);
  EXPECT_EQ(r.telemetry.strategy, "enumerate-fallback");
  const auto def = min_defeat_search(k5, *pattern, 0, 4, k5.num_edges());
  expect_identical(r, def, "custom promise vs default promise");
}

// ---- any-pair and touring ----------------------------------------------------

TEST(MinDefeatAnyPair, StrategiesAgreeOnSmallGraphs) {
  const Graph zoo[] = {make_complete(4), make_complete_bipartite(2, 3), make_cycle(4)};
  SearchOptions enumerate;
  enumerate.strategy = SearchStrategy::kEnumerate;
  for (const Graph& g : zoo) {
    for (const auto& p : make_pattern_corpus(RoutingModel::kSourceDestination, g, 1, 5)) {
      SCOPED_TRACE(p->name() + " on m=" + std::to_string(g.num_edges()));
      const auto bnb = min_defeat_search_any_pair(g, *p, g.num_edges());
      const auto en = min_defeat_search_any_pair(g, *p, g.num_edges(), enumerate);
      expect_identical(bnb, en, "any-pair search vs enumerator");
    }
  }
}

TEST(MinDefeatTouring, StrategiesAgreeOnSmallGraphs) {
  const Graph zoo[] = {make_complete(4), make_cycle(4), make_cycle(5)};
  SearchOptions enumerate;
  enumerate.strategy = SearchStrategy::kEnumerate;
  for (const Graph& g : zoo) {
    const auto pattern = make_id_cyclic_pattern(RoutingModel::kTouring);
    const auto bnb = min_touring_defeat_search(g, *pattern, g.num_edges());
    const auto en = min_touring_defeat_search(g, *pattern, g.num_edges(), enumerate);
    expect_identical(bnb, en, "touring search vs enumerator");
  }
}

TEST(MinDefeatTouring, OuterplanarTourIsResilientBothWays) {
  // Theorem: the outerplanar touring pattern is perfectly resilient — the
  // search must *prove* it (typed status), matching the enumerator.
  const Graph c5 = make_cycle(5);
  const auto pattern = make_outerplanar_touring(c5);
  SearchOptions enumerate;
  enumerate.strategy = SearchStrategy::kEnumerate;
  const auto bnb = min_touring_defeat_search(c5, *pattern, c5.num_edges());
  const auto en = min_touring_defeat_search(c5, *pattern, c5.num_edges(), enumerate);
  EXPECT_EQ(bnb.status, MinDefeatStatus::kPerfectlyResilient);
  expect_identical(bnb, en, "touring resilience proof");
}

// ---- telemetry pins ----------------------------------------------------------
// Whole min-defeat JSON objects (status, witness, telemetry), byte for byte,
// of the paths that enumerate — the node-cap and custom-promise fallbacks,
// forced enumeration, r-tolerance, and the any-pair and touring searches with
// their single-stratum canonical passes. leaves_verified counts masks
// tested, so a change in where an enumeration starts, stops or counts shows
// up here.

/// One labelled min-defeat JSON object per case: the fallback, any-pair and
/// touring paths, each through both strategies where the strategy matters.
std::vector<std::pair<std::string, std::string>> telemetry_cases() {
  std::vector<std::pair<std::string, std::string>> out;
  const auto record = [&out](const std::string& label, const MinDefeatResult& r, const Graph& g) {
    JsonWriter w;
    append_json(w, r, g);
    out.emplace_back(label, w.str());
  };
  SearchOptions enumerate;
  enumerate.strategy = SearchStrategy::kEnumerate;

  const Graph k5 = make_complete(5);
  const auto id_cyclic = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  SearchOptions capped;
  capped.node_cap = 1;
  record("k5 id-cyclic 0,4 node_cap=1", min_defeat_search(k5, *id_cyclic, 0, 4, 10, capped), k5);
  record("k5 id-cyclic 0,4 enumerate", min_defeat_search(k5, *id_cyclic, 0, 4, 10, enumerate), k5);
  SearchOptions custom;
  custom.promise = [](const Graph& graph, VertexId s, VertexId t, const IdSet& f) {
    return connected(graph, s, t, f);
  };
  record("k5 id-cyclic 0,4 custom promise",
         min_defeat_search(k5, *id_cyclic, 0, 4, 10, custom), k5);
  SearchOptions r2 = enumerate;
  r2.promise_r = 2;
  record("k5 id-cyclic 0,4 r=2 enumerate", min_defeat_search(k5, *id_cyclic, 0, 4, 10, r2), k5);

  const Graph k4 = make_complete(4);
  for (const auto& p : make_pattern_corpus(RoutingModel::kSourceDestination, k4, 1, 5)) {
    record("k4 any-pair " + p->name() + " auto", min_defeat_search_any_pair(k4, *p, 6), k4);
    record("k4 any-pair " + p->name() + " enumerate",
           min_defeat_search_any_pair(k4, *p, 6, enumerate), k4);
  }

  const Graph c5 = make_cycle(5);
  const auto outerplanar = make_outerplanar_touring(c5);
  record("c5 touring outerplanar auto", min_touring_defeat_search(c5, *outerplanar, 5), c5);
  record("c5 touring outerplanar enumerate",
         min_touring_defeat_search(c5, *outerplanar, 5, enumerate), c5);
  const auto tour_cyclic = make_id_cyclic_pattern(RoutingModel::kTouring);
  record("k4 touring id-cyclic auto", min_touring_defeat_search(k4, *tour_cyclic, 6), k4);
  record("k4 touring id-cyclic enumerate",
         min_touring_defeat_search(k4, *tour_cyclic, 6, enumerate), k4);
  return out;
}

TEST(MinDefeatTelemetry, EnumeratedPathsReproduceRecordedJson) {
  const std::pair<const char*, const char*> expected[] = {
      {"k5 id-cyclic 0,4 node_cap=1",
       R"({"status":"defeated","budget":10,"cardinality":5,"source":0,"destination":4,"failures":[2,3,6,7,8],"failed_links":[[0,3],[0,4],[1,4],[2,3],[2,4]],"outcome":"looped","hops":4,"telemetry":{"strategy":"enumerate-fallback","nodes_expanded":2,"leaves_verified":503,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[5],"proved_bound":5,"root_min_cut":4}})"},
      {"k5 id-cyclic 0,4 enumerate",
       R"({"status":"defeated","budget":10,"cardinality":5,"source":0,"destination":4,"failures":[2,3,6,7,8],"failed_links":[[0,3],[0,4],[1,4],[2,3],[2,4]],"outcome":"looped","hops":4,"telemetry":{"strategy":"enumerate","nodes_expanded":0,"leaves_verified":503,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":5,"root_min_cut":4}})"},
      {"k5 id-cyclic 0,4 custom promise",
       R"({"status":"defeated","budget":10,"cardinality":5,"source":0,"destination":4,"failures":[2,3,6,7,8],"failed_links":[[0,3],[0,4],[1,4],[2,3],[2,4]],"outcome":"looped","hops":4,"telemetry":{"strategy":"enumerate-fallback","nodes_expanded":0,"leaves_verified":503,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":5,"root_min_cut":4}})"},
      {"k5 id-cyclic 0,4 r=2 enumerate",
       R"({"status":"perfectly-resilient","budget":10,"cardinality":-1,"source":0,"destination":4,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"enumerate","nodes_expanded":0,"leaves_verified":1024,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":11,"root_min_cut":4}})"},
      {"k4 any-pair id-cyclic auto",
       R"({"status":"perfectly-resilient","budget":6,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"branch-and-bound","nodes_expanded":236,"leaves_verified":0,"pruned_bound":0,"pruned_promise":0,"pruned_cover":148,"lookahead_excluded":102,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":7,"root_min_cut":-1}})"},
      {"k4 any-pair id-cyclic enumerate",
       R"({"status":"perfectly-resilient","budget":6,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"enumerate","nodes_expanded":0,"leaves_verified":64,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":7,"root_min_cut":-1}})"},
      {"k4 any-pair shortest-path-rotor auto",
       R"({"status":"perfectly-resilient","budget":6,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"branch-and-bound","nodes_expanded":236,"leaves_verified":0,"pruned_bound":0,"pruned_promise":0,"pruned_cover":148,"lookahead_excluded":102,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":7,"root_min_cut":-1}})"},
      {"k4 any-pair shortest-path-rotor enumerate",
       R"({"status":"perfectly-resilient","budget":6,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"enumerate","nodes_expanded":0,"leaves_verified":64,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":7,"root_min_cut":-1}})"},
      {"k4 any-pair bounce-shy-shortest-path auto",
       R"({"status":"perfectly-resilient","budget":6,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"branch-and-bound","nodes_expanded":236,"leaves_verified":0,"pruned_bound":0,"pruned_promise":0,"pruned_cover":148,"lookahead_excluded":102,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":7,"root_min_cut":-1}})"},
      {"k4 any-pair bounce-shy-shortest-path enumerate",
       R"({"status":"perfectly-resilient","budget":6,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"enumerate","nodes_expanded":0,"leaves_verified":64,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":7,"root_min_cut":-1}})"},
      {"k4 any-pair random-cyclic auto",
       R"({"status":"perfectly-resilient","budget":6,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"branch-and-bound","nodes_expanded":236,"leaves_verified":0,"pruned_bound":0,"pruned_promise":0,"pruned_cover":148,"lookahead_excluded":102,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":7,"root_min_cut":-1}})"},
      {"k4 any-pair random-cyclic enumerate",
       R"({"status":"perfectly-resilient","budget":6,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"enumerate","nodes_expanded":0,"leaves_verified":64,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":7,"root_min_cut":-1}})"},
      {"k4 any-pair random-stateless auto",
       R"({"status":"defeated","budget":6,"cardinality":2,"source":0,"destination":3,"failures":[2,5],"failed_links":[[0,3],[2,3]],"outcome":"looped","hops":3,"telemetry":{"strategy":"branch-and-bound","nodes_expanded":20,"leaves_verified":13,"pruned_bound":72,"pruned_promise":0,"pruned_cover":2,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[3,2],"proved_bound":2,"root_min_cut":-1}})"},
      {"k4 any-pair random-stateless enumerate",
       R"({"status":"defeated","budget":6,"cardinality":2,"source":0,"destination":3,"failures":[2,5],"failed_links":[[0,3],[2,3]],"outcome":"looped","hops":3,"telemetry":{"strategy":"enumerate","nodes_expanded":0,"leaves_verified":20,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":2,"root_min_cut":-1}})"},
      {"c5 touring outerplanar auto",
       R"({"status":"perfectly-resilient","budget":5,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"branch-and-bound","nodes_expanded":57,"leaves_verified":0,"pruned_bound":2,"pruned_promise":0,"pruned_cover":71,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":6,"root_min_cut":-1}})"},
      {"c5 touring outerplanar enumerate",
       R"({"status":"perfectly-resilient","budget":5,"cardinality":-1,"source":-1,"destination":-1,"failures":[],"failed_links":[],"outcome":null,"hops":null,"telemetry":{"strategy":"enumerate","nodes_expanded":0,"leaves_verified":32,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":6,"root_min_cut":-1}})"},
      {"k4 touring id-cyclic auto",
       R"({"status":"defeated","budget":6,"cardinality":1,"source":1,"destination":-1,"failures":[1],"failed_links":[[0,2]],"outcome":null,"hops":null,"telemetry":{"strategy":"branch-and-bound","nodes_expanded":5,"leaves_verified":2,"pruned_bound":19,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[2,1],"proved_bound":1,"root_min_cut":-1}})"},
      {"k4 touring id-cyclic enumerate",
       R"({"status":"defeated","budget":6,"cardinality":1,"source":1,"destination":-1,"failures":[1],"failed_links":[[0,2]],"outcome":null,"hops":null,"telemetry":{"strategy":"enumerate","nodes_expanded":0,"leaves_verified":3,"pruned_bound":0,"pruned_promise":0,"pruned_cover":0,"lookahead_excluded":0,"canonical_nodes":0,"incumbent_trajectory":[],"proved_bound":1,"root_min_cut":-1}})"},
  };
  const auto cases = telemetry_cases();
  ASSERT_EQ(cases.size(), std::size(expected));
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].first, expected[i].first);
    EXPECT_EQ(cases[i].second, expected[i].second) << cases[i].first;
  }
}

// ---- verifier identity -------------------------------------------------------

void expect_same_violation(const std::optional<Violation>& a, const std::optional<Violation>& b,
                           const char* what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (!a.has_value()) return;
  EXPECT_TRUE(a->failures == b->failures) << what;
  EXPECT_EQ(a->source, b->source) << what;
  EXPECT_EQ(a->destination, b->destination) << what;
  EXPECT_EQ(a->routing.outcome, b->routing.outcome) << what;
}

/// The engine's answer to the same question: the first violation of the
/// full exhaustive stream over `pairs` under `promise` (default: s-t
/// connectivity).
std::optional<Violation> engine_violation(const Graph& g, const ForwardingPattern& pattern,
                                          std::vector<std::pair<VertexId, VertexId>> pairs,
                                          int threads, PromiseCheck promise = nullptr) {
  SweepOptions opts;
  opts.num_threads = threads;
  opts.promise = std::move(promise);
  ExhaustiveFailureSource source(g, g.num_edges(), std::move(pairs));
  const auto finding = SweepEngine(opts).find_first_violation(g, pattern, source);
  if (!finding.has_value()) return std::nullopt;
  return Violation{finding->scenario.failures, finding->scenario.source,
                   finding->scenario.destination, finding->routing, finding->tour};
}

TEST(MinDefeatVerifier, PairFinderMatchesEngineAtOneAndFourThreads) {
  const Graph k5 = make_complete(5);
  const auto defeatable = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const auto resilient = make_algorithm1_k5();
  for (const int threads : {1, 4}) {
    VerifyOptions search;
    search.num_threads = threads;
    expect_same_violation(find_resilience_violation_for_pair(k5, *defeatable, 0, 4, search),
                          engine_violation(k5, *defeatable, {{0, 4}}, threads),
                          "defeatable pair");
    expect_same_violation(find_resilience_violation_for_pair(k5, *resilient, 0, 4, search),
                          engine_violation(k5, *resilient, {{0, 4}}, threads), "resilient pair");
    EXPECT_FALSE(find_resilience_violation_for_pair(k5, *resilient, 0, 4, search).has_value());
  }
}

TEST(MinDefeatVerifier, AllPairsFinderMatchesEngine) {
  const Graph k4 = make_complete(4);
  for (const auto& p : make_pattern_corpus(RoutingModel::kSourceDestination, k4, 1, 17)) {
    VerifyOptions search;
    search.num_threads = 1;
    expect_same_violation(find_resilience_violation(k4, *p, search),
                          engine_violation(k4, *p, all_ordered_pairs(k4), 1), p->name().c_str());
  }
}

TEST(MinDefeatVerifier, RToleranceFinderMatchesEngine) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  for (const int r : {1, 2, 3}) {
    VerifyOptions search;
    search.num_threads = 1;
    const PromiseCheck r_tolerance = [r](const Graph& g, VertexId s, VertexId t,
                                         const IdSet& f) {
      return edge_connectivity(g, s, t, f) >= r;
    };
    expect_same_violation(find_r_tolerance_violation(k5, *pattern, 0, 4, r, search),
                          engine_violation(k5, *pattern, {{0, 4}}, 1, r_tolerance),
                          ("r=" + std::to_string(r)).c_str());
  }
}

}  // namespace
}  // namespace pofl
