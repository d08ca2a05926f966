// Equivalence properties of the zero-copy scenario streaming path.
//
// Three contracts pin the ScenarioBatch stream:
//   * stream identity — every source yields the same (F, s, t, tag) sequence
//     at any batch size, and the batch's group structure is consistent
//     (group_of non-decreasing, failures(i) == its group's set, consecutive
//     equal failure sets grouped);
//   * stats identity — the engine aggregates identical SweepStats whether
//     scenarios arrive zero-copy or as materialized copies replayed from a
//     fixed list, at 1 and N threads;
//   * reset determinism — after reset() every source replays the exact same
//     scenario stream (failure sets, pairs, replay tags), including
//     stratum-windowed exhaustive streams;
// plus the fast-Monte-Carlo pin: the in-place draws of graph/fast_rand are
// sequence-identical to their reference implementations for equal seeds.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "graph/builders.hpp"
#include "graph/fast_rand.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace pofl {
namespace {

struct TaggedScenario {
  Scenario scenario;
  uint64_t tag = 0;
};

/// Drains `source` through the batched API, checking the batch invariants
/// along the way.
std::vector<TaggedScenario> drain_batched(ScenarioSource& source, int batch_size) {
  std::vector<TaggedScenario> all;
  ScenarioBatch batch;
  for (;;) {
    const int n = source.next_batch(batch_size, batch);
    if (n == 0) break;
    EXPECT_EQ(n, batch.size());
    EXPECT_GT(batch.num_groups(), 0);
    for (int i = 0; i < n; ++i) {
      const int group = batch.group_of(i);
      EXPECT_GE(group, 0);
      EXPECT_LT(group, batch.num_groups());
      if (i > 0) {
        EXPECT_GE(group, batch.group_of(i - 1)) << "groups must be consecutive";
        if (batch.group_of(i - 1) == group) {
          // Within a group every scenario shares the one stored set. (The
          // converse — adjacent groups with equal sets — is legal: two
          // Monte Carlo draws may coincide and still be distinct draws.)
          EXPECT_EQ(batch.failures(i - 1), batch.failures(i));
        }
      }
      EXPECT_EQ(batch.failures(i), batch.group_failures(group));
      all.push_back(TaggedScenario{batch.scenario(i), batch.tag(i)});
    }
  }
  return all;
}

void expect_same_scenario(const Scenario& a, const Scenario& b, const std::string& what,
                          size_t i) {
  EXPECT_EQ(a.failures, b.failures) << what << " scenario " << i;
  EXPECT_EQ(a.source, b.source) << what << " scenario " << i;
  EXPECT_EQ(a.destination, b.destination) << what << " scenario " << i;
}

void expect_same_stats(const SweepStats& a, const SweepStats& b, const std::string& what) {
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
  EXPECT_DOUBLE_EQ(a.max_stretch, b.max_stretch) << what;
}

/// The source zoo every property below runs over: one factory per source
/// family (including a stratum-windowed exhaustive stream and a touring
/// pair list), each on a graph small enough to drain exhaustively.
struct NamedSource {
  std::string name;
  const Graph* graph;
  std::function<std::unique_ptr<ScenarioSource>()> make;
};

class SourceZoo {
 public:
  SourceZoo()
      : k4_(make_complete(4)), cycle6_(make_cycle(6)) {
    auto add = [this](std::string name, const Graph* g,
                      std::function<std::unique_ptr<ScenarioSource>()> make) {
      sources_.push_back(NamedSource{std::move(name), g, std::move(make)});
    };
    add("exhaustive<=2", &k4_, [this] {
      return std::make_unique<ExhaustiveFailureSource>(k4_, 2, all_ordered_pairs(k4_));
    });
    add("exhaustive[2..3]", &cycle6_, [this] {
      return std::make_unique<ExhaustiveFailureSource>(cycle6_, 2, 3,
                                                       all_ordered_pairs(cycle6_));
    });
    add("random-iid", &cycle6_, [this] {
      return std::make_unique<RandomFailureSource>(
          RandomFailureSource::iid(cycle6_, 0.3, 17, /*seed=*/9, all_ordered_pairs(cycle6_)));
    });
    add("random-exact", &k4_, [this] {
      return std::make_unique<RandomFailureSource>(
          RandomFailureSource::exact_count(k4_, 2, 23, /*seed=*/4, all_ordered_pairs(k4_)));
    });
    add("sampled-legacy", &cycle6_, [this] {
      return std::make_unique<SampledFailureSource>(cycle6_, 3, 11, /*seed=*/2,
                                                    all_ordered_pairs(cycle6_));
    });
    add("fixed-touring", &cycle6_, [this] {
      std::vector<Scenario> fixed;
      IdSet one = cycle6_.empty_edge_set();
      one.insert(0);
      for (VertexId v = 0; v < cycle6_.num_vertices(); ++v) {
        fixed.push_back(Scenario{one, v, kNoVertex});  // shared F: must regroup
      }
      fixed.push_back(Scenario{cycle6_.empty_edge_set(), 0, 3});
      return std::make_unique<FixedScenarioSource>(std::move(fixed), "fixed-touring");
    });
  }

  [[nodiscard]] const std::vector<NamedSource>& sources() const { return sources_; }

 private:
  Graph k4_;
  Graph cycle6_;
  std::vector<NamedSource> sources_;
};

const SourceZoo& source_zoo() {
  static const SourceZoo zoo;
  return zoo;
}

TEST(BatchStreaming, StreamIsInvariantUnderBatchSize) {
  for (const NamedSource& ns : source_zoo().sources()) {
    auto small_source = ns.make();
    auto large_source = ns.make();
    const auto small = drain_batched(*small_source, 3);
    const auto large = drain_batched(*large_source, 1000);
    ASSERT_EQ(small.size(), large.size()) << ns.name;
    for (size_t i = 0; i < small.size(); ++i) {
      expect_same_scenario(small[i].scenario, large[i].scenario, ns.name, i);
      EXPECT_EQ(small[i].tag, large[i].tag) << ns.name << " scenario " << i;
    }
  }
}

TEST(BatchStreaming, ResetReplaysTheExactStream) {
  for (const NamedSource& ns : source_zoo().sources()) {
    auto source = ns.make();
    const auto first = drain_batched(*source, 7);
    source->reset();
    const auto second = drain_batched(*source, 13);  // different batching too
    ASSERT_EQ(first.size(), second.size()) << ns.name;
    ASSERT_GT(first.size(), 0u) << ns.name;
    for (size_t i = 0; i < first.size(); ++i) {
      expect_same_scenario(first[i].scenario, second[i].scenario, ns.name, i);
      EXPECT_EQ(first[i].tag, second[i].tag) << ns.name << " scenario " << i;
    }
  }
}

TEST(BatchStreaming, EngineStatsIdenticalForZeroCopyAndMaterializedStreams) {
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kDestinationOnly);
  for (const NamedSource& ns : source_zoo().sources()) {
    // Zero-copy: engine pulls ScenarioBatches straight from the source.
    auto run_batched = [&](int num_threads) {
      auto source = ns.make();
      SweepOptions opts;
      opts.num_threads = num_threads;
      opts.batch_size = 7;
      opts.compute_stretch = true;
      return SweepEngine(opts).run(*ns.graph, *pattern, *source);
    };
    // Materialized: the same stream drained into standalone Scenario
    // copies, then replayed from a fixed list.
    auto drained_source = ns.make();
    std::vector<Scenario> copies;
    for (TaggedScenario& ts : drain_batched(*drained_source, 7)) {
      copies.push_back(std::move(ts.scenario));
    }
    FixedScenarioSource materialized(std::move(copies), ns.name);
    SweepOptions opts1;
    opts1.num_threads = 1;
    opts1.compute_stretch = true;
    const SweepStats copied = SweepEngine(opts1).run(*ns.graph, *pattern, materialized);

    expect_same_stats(run_batched(1), copied, ns.name + " 1t");
    expect_same_stats(run_batched(4), copied, ns.name + " 4t");
  }
}

TEST(BatchStreaming, FixedSourceRegroupsConsecutiveEqualFailureSets) {
  // Replayed streams (fixed lists, defeat libraries) regroup shared failure
  // sets, so failure-set-major replays hit the promise memo like the
  // structurally grouped sources do.
  const Graph g = make_cycle(6);
  IdSet one = g.empty_edge_set();
  one.insert(0);
  std::vector<Scenario> fixed;
  for (VertexId v = 0; v < 4; ++v) fixed.push_back(Scenario{one, v, kNoVertex});
  fixed.push_back(Scenario{g.empty_edge_set(), 0, 3});
  fixed.push_back(Scenario{one, 1, 2});  // equal to group 0's set, but not adjacent
  FixedScenarioSource source(std::move(fixed), "regroup");

  ScenarioBatch batch;
  ASSERT_EQ(source.next_batch(64, batch), 6);
  EXPECT_EQ(batch.num_groups(), 3);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch.group_of(i), 0) << i;
  EXPECT_EQ(batch.group_of(4), 1);
  EXPECT_EQ(batch.group_of(5), 2);
  EXPECT_EQ(batch.group_failures(0), batch.group_failures(2));
}

TEST(FastDraw, FloydSampleMatchesReferenceSequence) {
  for (const uint64_t seed : {1ull, 7ull, 123456789ull}) {
    for (const int k : {0, 1, 3, 20, 49}) {
      FastRng fast_rng(seed);
      FastRng ref_rng(seed);
      IdSet fast;
      for (int draw = 0; draw < 50; ++draw) {
        floyd_sample(fast_rng, 49, k, fast);
        const std::vector<int> ref = reference_floyd_sample(ref_rng, 49, k);
        EXPECT_EQ(fast.to_vector(), ref) << "seed " << seed << " k " << k << " draw " << draw;
        EXPECT_EQ(fast.count(), std::min(k, 49));
      }
    }
  }
}

TEST(FastDraw, IidSampleMatchesReferenceSequence) {
  for (const uint64_t seed : {3ull, 42ull}) {
    for (const double p : {0.0, 0.05, 0.5, 0.97, 1.0}) {
      FastRng fast_rng(seed);
      FastRng ref_rng(seed);
      const uint64_t threshold = coin_threshold(p);
      IdSet fast;
      for (int draw = 0; draw < 50; ++draw) {
        iid_sample(fast_rng, 61, threshold, fast);
        const std::vector<int> ref = reference_iid_sample(ref_rng, 61, threshold);
        EXPECT_EQ(fast.to_vector(), ref) << "seed " << seed << " p " << p << " draw " << draw;
      }
      if (p == 0.0) EXPECT_TRUE(fast.empty());
      if (p == 1.0) EXPECT_EQ(fast.count(), 61);
    }
  }
}

TEST(FastDraw, ExactCountSourceDrawsMatchStandaloneFloyd) {
  // The source consumes floyd_sample once per scenario in stream order, so
  // a standalone FastRng replays its failure sets exactly.
  const Graph g = make_complete(5);
  auto source = RandomFailureSource::exact_count(g, 3, 6, /*seed=*/21, {{0, 4}, {1, 4}});
  const auto stream = drain_batched(source, 4);
  FastRng rng(21);
  IdSet expected;
  for (size_t i = 0; i < stream.size(); ++i) {
    floyd_sample(rng, g.num_edges(), 3, expected);
    EXPECT_EQ(stream[i].scenario.failures, expected) << "draw " << i;
  }
}

}  // namespace
}  // namespace pofl
