#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <system_error>
#include <thread>

#include "address_limit.hpp"
#include "attacks/pattern_corpus.hpp"
#include "graph/builders.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "routing/verifier.hpp"
#include "search/min_defeat.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_json.hpp"

namespace pofl {
namespace {

SweepOptions threads(int n) {
  SweepOptions opts;
  opts.num_threads = n;
  opts.batch_size = 7;  // deliberately odd, to exercise partial batches
  return opts;
}

/// Drains `source` from its current position into standalone copies,
/// `batch_size` scenarios per ScenarioBatch.
std::vector<Scenario> drain(ScenarioSource& source, int batch_size) {
  std::vector<Scenario> all;
  ScenarioBatch batch;
  while (const int n = source.next_batch(batch_size, batch)) {
    for (int i = 0; i < n; ++i) all.push_back(batch.scenario(i));
  }
  return all;
}

TEST(ExhaustiveFailureSource, EnumeratesEveryScenarioExactlyOnce) {
  const Graph g = make_complete(4);  // m = 6
  ExhaustiveFailureSource source(g, 2, all_ordered_pairs(g));
  // (C(6,0) + C(6,1) + C(6,2)) failure sets x 12 ordered pairs.
  EXPECT_EQ(source.total_scenarios(), (1 + 6 + 15) * 12);

  const std::vector<Scenario> all = drain(source, 5);
  EXPECT_EQ(static_cast<int64_t>(all.size()), source.total_scenarios());
  for (const Scenario& sc : all) {
    EXPECT_LE(sc.failures.count(), 2);
    EXPECT_NE(sc.source, sc.destination);
  }

  // reset() replays the identical stream.
  source.reset();
  const std::vector<Scenario> again = drain(source, 64);
  ASSERT_EQ(again.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(again[i].failures, all[i].failures);
    EXPECT_EQ(again[i].source, all[i].source);
    EXPECT_EQ(again[i].destination, all[i].destination);
  }
}

TEST(RandomFailureSourceContract, ResetReplaysIdenticalExactCountDraws) {
  const Graph g = make_complete(5);
  auto source = RandomFailureSource::exact_count(g, 3, 20, /*seed=*/21, {{0, 4}});
  const std::vector<Scenario> first = drain(source, 8);
  source.reset();
  const std::vector<Scenario> second = drain(source, 8);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].failures, second[i].failures) << "draw " << i;
  }
}

TEST(RandomFailureSourceContract, ZeroTrialsIsAnEmptyStream) {
  const Graph g = make_complete(4);
  auto source = RandomFailureSource::iid(g, 0.2, /*trials_per_pair=*/0, 1, all_ordered_pairs(g));
  ScenarioBatch out;
  EXPECT_EQ(source.next_batch(16, out), 0);
  const SweepStats stats =
      SweepEngine(threads(2)).run(g, *make_id_cyclic_pattern(RoutingModel::kDestinationOnly),
                                  source);
  EXPECT_EQ(stats.total, 0);
}

TEST(SampledFailureSource, EdgelessGraphYieldsEmptyFailureSets) {
  // With no edges every draw has |F| = 0, so the edge distribution (whose
  // range [0, m - 1] would be empty) must never be built.
  const Graph g(3);
  const auto pairs = all_ordered_pairs(g);
  SampledFailureSource source(g, /*max_failures=*/2, /*samples=*/4, /*seed=*/1, pairs);
  const std::vector<Scenario> all = drain(source, 5);
  ASSERT_EQ(all.size(), 4 * pairs.size());
  for (const Scenario& sc : all) EXPECT_TRUE(sc.failures.empty());

  // The sampled refuter on the same graph: every pair is disconnected, so
  // no scenario keeps the promise and nothing can be a violation.
  VerifyOptions opts;
  opts.max_exhaustive_edges = -1;
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kDestinationOnly);
  EXPECT_FALSE(find_resilience_violation(g, *pattern, opts).has_value());
}

TEST(ExhaustiveFailureSource, RejectsGraphsBeyondTheMaskWidth) {
  // The old wall was 64 edges; a K12 (66 edges) now enumerates fine and the
  // limit sits at EdgeMask::kMaxBits edge ids.
  const Graph k12 = make_complete(12);
  EXPECT_NO_THROW(ExhaustiveFailureSource(k12, 1, all_ordered_pairs(k12)));
  const Graph big = make_complete(33);  // 528 edges > EdgeMask::kMaxBits
  ASSERT_GT(big.num_edges(), EdgeMask::kMaxBits);
  EXPECT_THROW(ExhaustiveFailureSource(big, 1, all_ordered_pairs(big)), std::invalid_argument);
}

TEST(SweepStats, OutcomeCountsSumToScenarioTotal) {
  const Graph g = make_cycle(6);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kDestinationOnly);
  ExhaustiveFailureSource source(g, 3, all_ordered_pairs(g));

  const SweepStats stats = SweepEngine(threads(1)).run(g, *pattern, source);
  EXPECT_EQ(stats.total, source.total_scenarios());
  EXPECT_EQ(stats.delivered + stats.looped + stats.dropped + stats.invalid,
            stats.promise_held());
  EXPECT_EQ(stats.promise_held() + stats.promise_broken, stats.total);
  // With up to 3 of 6 cycle edges down, some draws must disconnect pairs.
  EXPECT_GT(stats.promise_broken, 0);
}

TEST(SweepEngine, SingleAndMultiThreadAggregatesMatch) {
  const Graph g = make_complete(5);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, g);

  auto run_with = [&](int num_threads) {
    RandomFailureSource source =
        RandomFailureSource::iid(g, 0.3, 40, /*seed=*/9, all_ordered_pairs(g));
    SweepOptions opts = threads(num_threads);
    opts.compute_stretch = true;
    return SweepEngine(opts).run(g, *pattern, source);
  };

  const SweepStats one = run_with(1);
  const SweepStats many = run_with(4);
  EXPECT_EQ(one.total, many.total);
  EXPECT_EQ(one.promise_broken, many.promise_broken);
  EXPECT_EQ(one.delivered, many.delivered);
  EXPECT_EQ(one.looped, many.looped);
  EXPECT_EQ(one.dropped, many.dropped);
  EXPECT_EQ(one.invalid, many.invalid);
  EXPECT_EQ(one.failures_seen, many.failures_seen);
  EXPECT_EQ(one.hops_delivered, many.hops_delivered);
  EXPECT_EQ(one.stretch_samples, many.stretch_samples);
  EXPECT_DOUBLE_EQ(one.max_stretch, many.max_stretch);
  EXPECT_EQ(one.stretch_sum_q32, many.stretch_sum_q32);
}

TEST(SweepEngine, ThreadCreationFailureKeepsTheReportBytes) {
  // A worker thread that cannot be created must not std::terminate the
  // sweep: the workers that did start finish the stream, or it runs inline
  // when none did, and the report bytes are the 1-thread bytes either way.
  if (testing::kAddressSanitizer) GTEST_SKIP() << "RLIMIT_AS cannot be lowered under ASan";
  const Graph g = make_complete(5);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, g);
  SweepOptions opts = threads(1);
  opts.compute_stretch = true;
  const auto report = [&](int num_threads) {
    ExhaustiveFailureSource source(g, g.num_edges(), all_ordered_pairs(g));
    opts.num_threads = num_threads;
    return to_json(SweepEngine(opts).run_report(g, *pattern, source));
  };
  const std::string expected = report(1);
  constexpr size_t kStack = testing::kChildThreadStack;
  // Room for no thread stack, then for exactly one.
  for (const size_t headroom : {kStack / 2, kStack + kStack / 2}) {
    const pid_t child = testing::fork_with_address_limit(headroom, [&] {
      if (headroom < kStack) {
        try {
          std::thread([] {}).join();
          return 2;  // the cap did not stop a thread: the test proves nothing
        } catch (const std::system_error&) {
        }
      }
      return report(4) == expected ? 0 : 1;
    });
    ASSERT_GT(child, 0);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << "headroom " << headroom << ": child died, status "
                                   << status;
    EXPECT_EQ(WEXITSTATUS(status), 0) << "headroom " << headroom;
  }
}

TEST(SweepEngine, ExhaustiveAndSampledSweepsAgreeOnPerfectPattern) {
  // Algorithm 1 is perfectly resilient on K5 toward destination 4: every
  // sweep mode must report delivery rate exactly 1 for promise-holding
  // scenarios.
  const Graph k5 = make_complete(5);
  const auto alg1 = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);

  ExhaustiveFailureSource exhaustive(k5, k5.num_edges(), pairs);
  const SweepStats full = SweepEngine(threads(2)).run(k5, *alg1, exhaustive);
  EXPECT_GT(full.promise_held(), 0);
  EXPECT_DOUBLE_EQ(full.delivery_rate(), 1.0);

  RandomFailureSource sampled = RandomFailureSource::iid(k5, 0.4, 500, /*seed=*/3, pairs);
  const SweepStats sub = SweepEngine(threads(2)).run(k5, *alg1, sampled);
  EXPECT_GT(sub.promise_held(), 0);
  EXPECT_DOUBLE_EQ(sub.delivery_rate(), 1.0);
}

TEST(SweepEngine, SampledRateTracksExhaustiveRate) {
  // For an imperfect pattern the Monte Carlo estimate must land near the
  // exhaustive ground truth (deterministic seed, so this is a fixed number).
  const Graph g = make_cycle(5);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kDestinationOnly);

  ExhaustiveFailureSource exhaustive(g, 1, all_ordered_pairs(g));
  const SweepStats truth = SweepEngine(threads(1)).run(g, *pattern, exhaustive);

  RandomFailureSource sampled =
      RandomFailureSource::exact_count(g, 1, 400, /*seed=*/5, all_ordered_pairs(g));
  const SweepStats estimate = SweepEngine(threads(2)).run(g, *pattern, sampled);

  EXPECT_NEAR(estimate.delivery_rate(), truth.delivery_rate(), 0.1);
}

TEST(SweepEngine, TouringScenariosTallyAsDeliveries) {
  // Right-hand-rule tour of a cycle: always leave via the non-inport edge.
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
      return inport != kNoEdge ? std::optional<EdgeId>(inport) : std::nullopt;
    }
  };

  const Graph g = make_cycle(6);
  std::vector<Scenario> scenarios;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    scenarios.push_back(Scenario{g.empty_edge_set(), v, kNoVertex});
  }
  FixedScenarioSource source(std::move(scenarios), "tours");
  AroundPattern pattern;
  const SweepStats stats = SweepEngine(threads(2)).run(g, pattern, source);
  EXPECT_EQ(stats.total, g.num_vertices());
  EXPECT_EQ(stats.delivered, g.num_vertices());  // every tour succeeds
  EXPECT_EQ(stats.promise_broken, 0);
}

TEST(ExhaustiveFailureSource, StratumWindowCoversExactlyTheRequestedCardinalities) {
  const Graph g = make_complete(4);  // m = 6
  ExhaustiveFailureSource stratum(g, 2, 2, {{0, 1}});
  EXPECT_EQ(stratum.total_scenarios(), 15);  // C(6,2)
  const std::vector<Scenario> all = drain(stratum, 4);
  ASSERT_EQ(all.size(), 15u);
  for (const Scenario& sc : all) EXPECT_EQ(sc.failures.count(), 2);

  // Concatenating the strata [0,1] and [2,3] replays the full [0,3] stream.
  ExhaustiveFailureSource low(g, 0, 1, {{0, 1}});
  ExhaustiveFailureSource high(g, 2, 3, {{0, 1}});
  ExhaustiveFailureSource full(g, 0, 3, {{0, 1}});
  std::vector<Scenario> split = drain(low, 8);
  for (Scenario& sc : drain(high, 8)) split.push_back(std::move(sc));
  const std::vector<Scenario> whole = drain(full, 8);
  ASSERT_EQ(split.size(), whole.size());
  for (size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(split[i].failures, whole[i].failures) << i;
  }
}

/// Gives up the moment any incident link has failed — guaranteed violations
/// whenever an off-route failure keeps the promise intact.
class PanicTowardHigher final : public ForwardingPattern {
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

TEST(SweepEngineEarlyExit, FirstViolationIsIdenticalForOneAndManyThreads) {
  // The panic pattern violates perfect resilience on a path; whatever the
  // engine reports first must be bit-identical no matter the thread count.
  const Graph g = make_path(5);
  PanicTowardHigher panic;
  const ForwardingPattern* pattern = &panic;

  auto find_with = [&](int num_threads) {
    ExhaustiveFailureSource source(g, g.num_edges(), all_ordered_pairs(g));
    return SweepEngine(threads(num_threads)).find_first_violation(g, *pattern, source);
  };

  const auto one = find_with(1);
  ASSERT_TRUE(one.has_value());
  for (int n : {2, 4, 8}) {
    const auto many = find_with(n);
    ASSERT_TRUE(many.has_value()) << n << " threads";
    EXPECT_EQ(many->index, one->index) << n << " threads";
    EXPECT_EQ(many->scenario.failures, one->scenario.failures) << n << " threads";
    EXPECT_EQ(many->scenario.source, one->scenario.source) << n << " threads";
    EXPECT_EQ(many->scenario.destination, one->scenario.destination) << n << " threads";
    EXPECT_EQ(many->routing.outcome, one->routing.outcome) << n << " threads";
  }
}

TEST(SweepEngineEarlyExit, PerfectPatternYieldsNoFinding) {
  const Graph k5 = make_complete(5);
  const auto alg1 = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  ExhaustiveFailureSource source(k5, k5.num_edges(), pairs);
  EXPECT_FALSE(
      SweepEngine(threads(4)).find_first_violation(k5, *alg1, source).has_value());
}

TEST(SweepEngineEarlyExit, FindingIndexIsTheMinimalStreamPosition) {
  // Plant violations at known stream positions via a fixed source: a
  // disconnected pair first (promise broken — not a violation), then two
  // undeliverable scenarios. The earliest violation, index 1, must win.
  const Graph g = make_path(3);  // edges 0:(0-1), 1:(1-2)
  IdSet cut = g.empty_edge_set();
  cut.insert(1);
  class NeverForward final : public ForwardingPattern {
   public:
    [[nodiscard]] RoutingModel model() const override { return RoutingModel::kDestinationOnly; }
    [[nodiscard]] std::string name() const override { return "never"; }
    [[nodiscard]] std::optional<EdgeId> forward(const Graph&, VertexId, EdgeId, const IdSet&,
                                                const Header&) const override {
      return std::nullopt;
    }
  };
  NeverForward never;
  FixedScenarioSource source({
      Scenario{cut, 0, 2},                  // promise broken
      Scenario{cut, 0, 1},                  // dropped -> violation at index 1
      Scenario{g.empty_edge_set(), 0, 2},   // also a violation, later
  });
  const auto finding = SweepEngine(threads(3)).find_first_violation(g, never, source);
  ASSERT_TRUE(finding.has_value());
  EXPECT_EQ(finding->index, 1);
  EXPECT_EQ(finding->scenario.source, 0);
  EXPECT_EQ(finding->scenario.destination, 1);
  EXPECT_EQ(finding->routing.outcome, RoutingOutcome::kDropped);
}

TEST(SweepEngineEarlyExit, CustomPromiseDecidesWhichViolationComesFirst) {
  // A custom promise (destination != 1) excludes the default promise's first
  // violation and admits a disconnected scenario, which then comes first.
  const Graph g = make_path(3);  // edges 0:(0-1), 1:(1-2)
  IdSet cut = g.empty_edge_set();
  cut.insert(1);
  PanicTowardHigher panic;
  FixedScenarioSource source({
      Scenario{g.empty_edge_set(), 2, 1},  // dropped; outside the custom promise
      Scenario{cut, 0, 2},                 // disconnected; dropped at 1
      Scenario{g.empty_edge_set(), 2, 0},  // dropped
  });
  const auto by_default = SweepEngine(threads(2)).find_first_violation(g, panic, source);
  ASSERT_TRUE(by_default.has_value());
  EXPECT_EQ(by_default->index, 0);

  SweepOptions opts = threads(2);
  opts.promise = [](const Graph&, VertexId, VertexId t, const IdSet&) { return t != 1; };
  source.reset();
  const auto custom = SweepEngine(opts).find_first_violation(g, panic, source);
  ASSERT_TRUE(custom.has_value());
  EXPECT_EQ(custom->index, 1);
  EXPECT_EQ(custom->scenario.failures, cut);
  EXPECT_EQ(custom->routing.outcome, RoutingOutcome::kDropped);
}

TEST(SweepReportPerPair, RowsSumToTotalsAndMatchPlainRun) {
  const Graph g = make_cycle(6);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kDestinationOnly);

  ExhaustiveFailureSource source(g, 2, all_ordered_pairs(g));
  const SweepStats plain = SweepEngine(threads(1)).run(g, *pattern, source);

  auto report_with = [&](int num_threads) {
    ExhaustiveFailureSource src(g, 2, all_ordered_pairs(g));
    return SweepEngine(threads(num_threads)).run_report(g, *pattern, src);
  };
  const SweepReport one = report_with(1);
  const SweepReport many = report_with(4);

  EXPECT_EQ(one.per_pair.size(), all_ordered_pairs(g).size());
  SweepStats sum;
  for (const PairStats& row : one.per_pair) sum.merge(row.stats);
  EXPECT_EQ(sum.total, plain.total);
  EXPECT_EQ(sum.delivered, plain.delivered);
  EXPECT_EQ(sum.promise_broken, plain.promise_broken);
  EXPECT_EQ(one.totals.total, plain.total);
  EXPECT_EQ(one.totals.delivered, plain.delivered);

  ASSERT_EQ(many.per_pair.size(), one.per_pair.size());
  for (size_t i = 0; i < one.per_pair.size(); ++i) {
    EXPECT_EQ(many.per_pair[i].source, one.per_pair[i].source);
    EXPECT_EQ(many.per_pair[i].destination, one.per_pair[i].destination);
    EXPECT_EQ(many.per_pair[i].stats.total, one.per_pair[i].stats.total);
    EXPECT_EQ(many.per_pair[i].stats.delivered, one.per_pair[i].stats.delivered);
    EXPECT_EQ(many.per_pair[i].stats.promise_broken, one.per_pair[i].stats.promise_broken);
  }
}

TEST(SweepEngineCustomPromise, PromisePredicateNarrowsTheScenarioSpace) {
  // A promise that rejects every scenario tallies everything promise_broken.
  const Graph g = make_cycle(4);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kDestinationOnly);
  ExhaustiveFailureSource source(g, 1, all_ordered_pairs(g));
  SweepOptions opts = threads(2);
  opts.promise = [](const Graph&, VertexId, VertexId, const IdSet&) { return false; };
  const SweepStats stats = SweepEngine(opts).run(g, *pattern, source);
  EXPECT_EQ(stats.promise_broken, stats.total);
  EXPECT_EQ(stats.delivered, 0);
}

TEST(FixedScenarioSource, MinedCorpusDefeatsReplayAgainstTheirOwnPattern) {
  // The defeat library of bench_price_of_locality, on C5: every corpus
  // pattern's minimum any-pair defeat, stored in one FixedScenarioSource.
  const Graph g = make_cycle(5);
  const auto corpus = make_pattern_corpus(RoutingModel::kDestinationOnly, g,
                                          /*random_variants=*/1, /*seed=*/1);
  std::vector<Scenario> library;
  std::vector<const ForwardingPattern*> owners;
  for (const auto& pattern : corpus) {
    const MinDefeatResult defeat = min_defeat_search_any_pair(g, *pattern, /*max_budget=*/2);
    if (!defeat.defeated()) continue;
    library.push_back(Scenario{defeat.failures, defeat.source, defeat.destination});
    owners.push_back(pattern.get());
  }
  ASSERT_FALSE(library.empty()) << "no corpus pattern is defeated on C5";
  FixedScenarioSource source(library, "corpus-defeats");
  const std::vector<Scenario> replayed = drain(source, 3);
  ASSERT_EQ(replayed.size(), library.size());

  // Each defeat, replayed against the pattern it was mined from, keeps the
  // promise and is never delivered.
  const SweepEngine engine(threads(1));
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].failures, library[i].failures) << i;
    EXPECT_EQ(replayed[i].source, library[i].source) << i;
    EXPECT_EQ(replayed[i].destination, library[i].destination) << i;
    FixedScenarioSource own({replayed[i]});
    const SweepStats stats = engine.run(g, *owners[i], own);
    EXPECT_EQ(stats.total, 1) << owners[i]->name();
    EXPECT_EQ(stats.promise_broken, 0) << owners[i]->name();
    EXPECT_EQ(stats.delivered, 0) << owners[i]->name();
  }

  // The pooled library keeps the promise against any pattern, and each
  // owner fails at least on its own defeat.
  for (const ForwardingPattern* pattern : owners) {
    source.reset();
    const SweepStats stats = engine.run(g, *pattern, source);
    EXPECT_EQ(stats.total, static_cast<int64_t>(library.size())) << pattern->name();
    EXPECT_EQ(stats.promise_broken, 0) << pattern->name();
    EXPECT_EQ(stats.delivered + stats.looped + stats.dropped + stats.invalid, stats.total)
        << pattern->name();
    EXPECT_LT(stats.delivered, stats.total) << pattern->name();
  }
}

}  // namespace
}  // namespace pofl
