#include "routing/verifier.hpp"

#include <gtest/gtest.h>

#include "attacks/pattern_corpus.hpp"
#include "graph/bitmask.hpp"
#include "graph/builders.hpp"
#include "graph/connectivity.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "resilience/k33_source.hpp"
#include "resilience/k5m2_dest.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace pofl {
namespace {

/// The pre-engine verifier, kept verbatim as a reference oracle: numeric
/// mask order, failure sets outermost, single-threaded. Used to cross-check
/// the engine-backed implementation on the seed theorem graphs.
std::optional<Violation> legacy_find_resilience_violation(const Graph& g,
                                                          const ForwardingPattern& pattern) {
  const uint64_t limit = uint64_t{1} << g.num_edges();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    const IdSet failures = edge_mask_to_set(g, mask);
    const auto comp = components(g, failures);
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        if (s == t) continue;
        if (comp[static_cast<size_t>(s)] != comp[static_cast<size_t>(t)]) continue;
        const RoutingResult result = route_packet(g, pattern, failures, s, Header{s, t});
        if (result.outcome != RoutingOutcome::kDelivered) {
          return Violation{failures, s, t, result, {}};
        }
      }
    }
  }
  return std::nullopt;
}

SweepStats exhaustive_sweep(const Graph& g, const ForwardingPattern& pattern) {
  ExhaustiveFailureSource source(g, g.num_edges(), all_ordered_pairs(g));
  SweepOptions opts;
  opts.num_threads = 2;
  return SweepEngine(opts).run(g, pattern, source);
}

TEST(Verifier, ShortestPathOnAPathIsPerfectlyResilient) {
  // On a path graph the s-t promise forces the whole s-t subpath alive, so
  // the BFS next hop always survives: no violation can exist.
  const Graph g = make_path(5);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  VerifyOptions opts;
  opts.max_exhaustive_edges = g.num_edges();
  EXPECT_FALSE(find_resilience_violation(g, *pattern, opts).has_value());

  // The sweep engine over the same exhaustive space must agree exactly.
  const SweepStats stats = exhaustive_sweep(g, *pattern);
  EXPECT_GT(stats.promise_held(), 0);
  EXPECT_DOUBLE_EQ(stats.delivery_rate(), 1.0);
}

TEST(Verifier, ViolationAndSweepShortfallCoincideOnACycle) {
  // Whatever the verifier concludes about a pattern on C5, the exhaustive
  // sweep must tell the same story: violation found <=> delivery rate < 1.
  const Graph g = make_cycle(5);
  VerifyOptions opts;
  opts.max_exhaustive_edges = g.num_edges();
  for (const auto& pattern :
       make_pattern_corpus(RoutingModel::kDestinationOnly, g, /*random_variants=*/1, 3)) {
    const auto violation = find_resilience_violation(g, *pattern, opts);
    const SweepStats stats = exhaustive_sweep(g, *pattern);
    if (violation.has_value()) {
      EXPECT_LT(stats.delivery_rate(), 1.0) << pattern->name();
    } else {
      EXPECT_DOUBLE_EQ(stats.delivery_rate(), 1.0) << pattern->name();
    }
  }
}

TEST(Verifier, ReportedViolationReplaysAsNonDeliveryInTheEngine) {
  // A pattern that gives up the moment it sees any local failure. On a path
  // with an off-route failure the promise still holds, so this must violate
  // perfect resilience — and the verifier's witness, replayed through the
  // sweep engine, must reproduce the non-delivery.
  class PanicPattern final : public ForwardingPattern {
   public:
    [[nodiscard]] RoutingModel model() const override { return RoutingModel::kDestinationOnly; }
    [[nodiscard]] std::string name() const override { return "panic"; }
    [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId /*inport*/,
                                                const IdSet& local_failures,
                                                const Header& header) const override {
      if (!local_failures.empty()) return std::nullopt;  // panic
      for (EdgeId e : g.incident_edges(at)) {
        if (g.other_endpoint(e, at) == at + 1 && header.destination > at) return e;
      }
      return std::nullopt;
    }
  };

  const Graph g = make_path(4);
  PanicPattern pattern;
  VerifyOptions opts;
  opts.max_exhaustive_edges = g.num_edges();
  const auto violation = find_resilience_violation(g, pattern, opts);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->routing.outcome, RoutingOutcome::kDelivered);

  FixedScenarioSource witness(
      {Scenario{violation->failures, violation->source, violation->destination}});
  SweepOptions sweep_opts;
  sweep_opts.num_threads = 1;
  const SweepStats stats = SweepEngine(sweep_opts).run(g, pattern, witness);
  EXPECT_EQ(stats.total, 1);
  EXPECT_EQ(stats.promise_broken, 0);
  EXPECT_EQ(stats.delivered, 0);
}

TEST(Verifier, AgreesWithLegacyEnumeratorOnSeedTheoremGraphs) {
  // The paper's positive theorems (verified clean) and a family of broken
  // corpus patterns (violations exist): the engine-backed verifier must
  // agree with the pre-engine enumerator on every verdict, and any witness
  // it produces must replay as a genuine violation.
  struct Case {
    Graph g;
    std::unique_ptr<ForwardingPattern> pattern;
  };
  std::vector<Case> cases;
  cases.push_back({make_complete(5), make_algorithm1_k5()});
  cases.push_back({make_complete_bipartite(3, 3), make_k33_source_pattern()});
  {
    const Graph k5m2 = make_complete_minus(5, 2);
    auto p = make_k5m2_dest_pattern(k5m2);
    ASSERT_NE(p, nullptr);
    cases.push_back({k5m2, std::move(p)});
  }
  cases.push_back({make_cycle(5), make_id_cyclic_pattern(RoutingModel::kDestinationOnly)});
  cases.push_back({make_complete(4), make_id_cyclic_pattern(RoutingModel::kDestinationOnly)});

  for (const Case& c : cases) {
    VerifyOptions opts;
    opts.max_exhaustive_edges = c.g.num_edges();
    const auto legacy = legacy_find_resilience_violation(c.g, *c.pattern);
    const auto fresh = find_resilience_violation(c.g, *c.pattern, opts);
    EXPECT_EQ(legacy.has_value(), fresh.has_value()) << c.pattern->name();
    if (fresh.has_value()) {
      // The engine enumerates in increasing |F|, so its witness is one of
      // minimum cardinality in particular — and must replay as a violation.
      EXPECT_TRUE(
          connected(c.g, fresh->source, fresh->destination, fresh->failures));
      const RoutingResult replay =
          route_packet(c.g, *c.pattern, fresh->failures, fresh->source,
                       Header{fresh->source, fresh->destination});
      EXPECT_NE(replay.outcome, RoutingOutcome::kDelivered) << c.pattern->name();
      EXPECT_LE(fresh->failures.count(), legacy->failures.count()) << c.pattern->name();
    }
  }
}

/// Drops on any locally visible failure; else walks toward higher ids.
/// Violates perfect resilience on paths whenever an off-route failure keeps
/// the promise intact.
class PanicPattern final : public ForwardingPattern {
 public:
  [[nodiscard]] RoutingModel model() const override { return RoutingModel::kDestinationOnly; }
  [[nodiscard]] std::string name() const override { return "panic"; }
  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId /*inport*/,
                                              const IdSet& local_failures,
                                              const Header& header) const override {
    if (!local_failures.empty()) return std::nullopt;
    for (EdgeId e : g.incident_edges(at)) {
      if (g.other_endpoint(e, at) == at + 1 && header.destination > at) return e;
    }
    return std::nullopt;
  }
};

TEST(Verifier, FirstViolationIsThreadCountInvariant) {
  // Acceptance gate for the engine migration: the reported violation is
  // bit-identical for 1 and N worker threads, on routing and touring alike.
  const Graph g = make_path(5);
  PanicPattern panic;
  const ForwardingPattern* pattern = &panic;

  auto verify_with = [&](int num_threads) {
    VerifyOptions opts;
    opts.max_exhaustive_edges = g.num_edges();
    opts.num_threads = num_threads;
    return find_resilience_violation(g, *pattern, opts);
  };
  const auto one = verify_with(1);
  ASSERT_TRUE(one.has_value());
  for (int n : {2, 4, 8}) {
    const auto many = verify_with(n);
    ASSERT_TRUE(many.has_value());
    EXPECT_EQ(many->failures, one->failures) << n << " threads";
    EXPECT_EQ(many->source, one->source) << n << " threads";
    EXPECT_EQ(many->destination, one->destination) << n << " threads";
    EXPECT_EQ(many->routing.outcome, one->routing.outcome) << n << " threads";
  }

  const auto touring = make_id_cyclic_pattern(RoutingModel::kTouring);
  auto tour_with = [&](int num_threads) {
    VerifyOptions opts;
    opts.max_exhaustive_edges = g.num_edges();
    opts.num_threads = num_threads;
    return find_touring_violation(g, *touring, opts);
  };
  const auto tour_one = tour_with(1);
  const auto tour_many = tour_with(4);
  ASSERT_EQ(tour_one.has_value(), tour_many.has_value());
  if (tour_one.has_value()) {
    EXPECT_EQ(tour_many->failures, tour_one->failures);
    EXPECT_EQ(tour_many->source, tour_one->source);
  }
}

TEST(Verifier, StratumProbingMatchesBoundedVerdicts) {
  // min_failures stratification: a violation with |F| <= f exists iff some
  // single stratum f' <= f contains one — the identity the incremental
  // budget probes rely on.
  const Graph g = make_cycle(5);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kDestinationOnly);
  for (int f = 0; f <= g.num_edges(); ++f) {
    VerifyOptions bounded;
    bounded.max_exhaustive_edges = g.num_edges();
    bounded.max_failures = f;
    const bool bounded_violation = find_resilience_violation(g, *pattern, bounded).has_value();

    bool any_stratum = false;
    for (int fp = 0; fp <= f && !any_stratum; ++fp) {
      VerifyOptions stratum;
      stratum.max_exhaustive_edges = g.num_edges();
      stratum.min_failures = fp;
      stratum.max_failures = fp;
      any_stratum = find_resilience_violation(g, *pattern, stratum).has_value();
    }
    EXPECT_EQ(bounded_violation, any_stratum) << "f=" << f;
  }
}

TEST(Verifier, SampledRefuterStillFindsPlantedViolations) {
  // Force the sampled path (max_exhaustive_edges = 0) on a pattern with
  // plentiful violations: the legacy-distribution sampler must refute it.
  const Graph g = make_path(6);
  PanicPattern pattern_impl;
  const ForwardingPattern* pattern = &pattern_impl;
  VerifyOptions opts;
  opts.max_exhaustive_edges = 0;
  opts.samples = 500;
  const auto violation = find_resilience_violation(g, *pattern, opts);
  ASSERT_TRUE(violation.has_value());
  EXPECT_TRUE(connected(g, violation->source, violation->destination, violation->failures));
  EXPECT_NE(violation->routing.outcome, RoutingOutcome::kDelivered);
}

TEST(Verifier, BoundedFailureVerdictMatchesBoundedSweep) {
  // C6 tolerates any single failure under shortest-path routing iff the
  // bounded verifier says so; cross-check against an exhaustive |F| <= 1
  // sweep.
  const Graph g = make_cycle(6);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  VerifyOptions opts;
  opts.max_exhaustive_edges = g.num_edges();
  const auto violation = find_bounded_failure_violation(g, *pattern, /*max_failures=*/1, opts);

  ExhaustiveFailureSource source(g, 1, all_ordered_pairs(g));
  SweepOptions sweep_opts;
  sweep_opts.num_threads = 2;
  const SweepStats stats = SweepEngine(sweep_opts).run(g, *pattern, source);
  if (violation.has_value()) {
    EXPECT_LT(stats.delivery_rate(), 1.0);
  } else {
    EXPECT_DOUBLE_EQ(stats.delivery_rate(), 1.0);
  }
}

}  // namespace
}  // namespace pofl
