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
//   * Verifier identity — the find_* fast paths answer exactly what the
//     engine sweep answers, at 1 and N threads, including r-tolerance.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
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

TEST(MinDefeatVerifier, PairFinderMatchesEngineAtOneAndFourThreads) {
  const Graph k5 = make_complete(5);
  const auto defeatable = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const auto resilient = make_algorithm1_k5();
  for (const int threads : {1, 4}) {
    VerifyOptions engine;
    engine.search = SearchStrategy::kEnumerate;
    engine.num_threads = threads;
    VerifyOptions search;
    search.num_threads = threads;
    expect_same_violation(find_resilience_violation_for_pair(k5, *defeatable, 0, 4, search),
                          find_resilience_violation_for_pair(k5, *defeatable, 0, 4, engine),
                          "defeatable pair");
    expect_same_violation(find_resilience_violation_for_pair(k5, *resilient, 0, 4, search),
                          find_resilience_violation_for_pair(k5, *resilient, 0, 4, engine),
                          "resilient pair");
    EXPECT_FALSE(find_resilience_violation_for_pair(k5, *resilient, 0, 4, search).has_value());
  }
}

TEST(MinDefeatVerifier, AllPairsFinderMatchesEngine) {
  const Graph k4 = make_complete(4);
  for (const auto& p : make_pattern_corpus(RoutingModel::kSourceDestination, k4, 1, 17)) {
    VerifyOptions engine;
    engine.search = SearchStrategy::kEnumerate;
    engine.num_threads = 1;
    VerifyOptions search;
    search.num_threads = 1;
    expect_same_violation(find_resilience_violation(k4, *p, search),
                          find_resilience_violation(k4, *p, engine), p->name().c_str());
  }
}

TEST(MinDefeatVerifier, RToleranceFinderMatchesEngine) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  for (const int r : {1, 2, 3}) {
    VerifyOptions engine;
    engine.search = SearchStrategy::kEnumerate;
    engine.num_threads = 1;
    VerifyOptions search;
    search.num_threads = 1;
    expect_same_violation(find_r_tolerance_violation(k5, *pattern, 0, 4, r, search),
                          find_r_tolerance_violation(k5, *pattern, 0, 4, r, engine),
                          ("r=" + std::to_string(r)).c_str());
  }
}

}  // namespace
}  // namespace pofl
