// Golden sweep-replay regression tests.
//
// Each test re-runs one of the bench_perf scenario streams end to end and
// diffs the full SweepReport JSON (totals + per-pair rows, every counter and
// derived rate) bit-for-bit against a baseline checked into
// tests/baselines/. The sweeps are fully deterministic — exhaustive Gosper
// enumeration, and Monte Carlo on the graph/fast_rand primitives whose
// sequences are pinned across platforms — so any diff is a real behavior
// change, not noise. Every sweep is replayed at 1 and at 4 worker threads
// and both serializations must match the baseline, which also pins the
// engine's thread-count invariance at full JSON precision. The Determinism
// suite widens that to the matrix threads {1, 2, 4} x shards {1, 3, 8},
// through run_report and find_first_violation alike (`ctest -L
// determinism`, which also checks the CLI's bytes).
//
// Refreshing after an intentional change:
//   POFL_UPDATE_BASELINES=1 ./build/pofl_tests --gtest_filter='SweepReplay.*'
// then commit the rewritten files under tests/baselines/ with a note on why
// the trajectories moved.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "classify/zoo.hpp"
#include "graph/builders.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"
#include "synth/fat_tree.hpp"

namespace pofl {
namespace {

std::string baseline_path(const std::string& name) {
  return std::string(POFL_BASELINE_DIR) + "/" + name;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Serializes one run of `source` through `pattern` at the given thread
/// count. per-pair rows included: the baselines pin the full breakdown.
std::string replay_json(const Graph& g, const ForwardingPattern& pattern,
                        ScenarioSource& source, int num_threads) {
  source.reset();
  SweepOptions opts;
  opts.num_threads = num_threads;
  const SweepReport report = SweepEngine(opts).run_report(g, pattern, source);
  return to_json(report) + "\n";
}

void check_against_baseline(const std::string& name, const Graph& g,
                            const ForwardingPattern& pattern, ScenarioSource& source) {
  const std::string one_thread = replay_json(g, pattern, source, 1);
  const std::string four_threads = replay_json(g, pattern, source, 4);
  EXPECT_EQ(one_thread, four_threads) << name << ": sweep JSON depends on the thread count";

  const std::string path = baseline_path(name);
  if (std::getenv("POFL_UPDATE_BASELINES") != nullptr) {
    ASSERT_TRUE(write_json_file(path, one_thread.substr(0, one_thread.size() - 1)))
        << "cannot record " << path;
    return;
  }
  std::string golden;
  ASSERT_TRUE(read_file(path, golden))
      << "missing baseline " << path
      << " — record it with POFL_UPDATE_BASELINES=1 ./pofl_tests "
         "--gtest_filter='SweepReplay.*'";
  EXPECT_EQ(golden, one_thread)
      << name << ": sweep trajectory diverged from the checked-in baseline. If the change "
      << "is intentional, refresh with POFL_UPDATE_BASELINES=1 and commit the new file.";
}

/// One golden sweep: the graph, pattern and scenario stream a
/// tests/baselines/sweep_*.json file records. Held by pointer: the pattern
/// and the source point into the graph.
struct GoldenSpec {
  std::string baseline;
  Graph graph;
  std::unique_ptr<ForwardingPattern> pattern;
  std::unique_ptr<ScenarioSource> source;
};

std::unique_ptr<GoldenSpec> k5_spec() {
  // Algorithm 1's machine-checked theorem sweep: all 2^10 failure sets
  // crossed with the four (s, 4) pairs.
  auto spec = std::make_unique<GoldenSpec>();
  spec->baseline = "sweep_k5_exhaustive.json";
  spec->graph = make_complete(5);
  spec->pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  spec->source =
      std::make_unique<ExhaustiveFailureSource>(spec->graph, spec->graph.num_edges(), pairs);
  return spec;
}

std::unique_ptr<GoldenSpec> k33_spec() {
  // All 2^9 failure sets of K3,3 crossed with all 30 ordered pairs under
  // destination-only shortest-path forwarding.
  auto spec = std::make_unique<GoldenSpec>();
  spec->baseline = "sweep_k33_exhaustive.json";
  spec->graph = make_complete_bipartite(3, 3);
  spec->pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, spec->graph);
  spec->source = std::make_unique<ExhaustiveFailureSource>(
      spec->graph, spec->graph.num_edges(), all_ordered_pairs(spec->graph));
  return spec;
}

std::unique_ptr<GoldenSpec> fat_tree_spec() {
  // The wide-mask stream past the old 64-edge wall: every |F| <= 2 failure
  // set of the 108-link k = 6 fat-tree (5887 multi-word Gosper masks)
  // crossed with six cross-pod probe pairs. The pair list must stay in sync
  // with shard_test.cpp, which replays this baseline shard-merged.
  auto spec = std::make_unique<GoldenSpec>();
  spec->baseline = "sweep_fattree_exhaustive.json";
  spec->graph = make_fat_tree(6);
  spec->pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, spec->graph);
  spec->source = std::make_unique<ExhaustiveFailureSource>(
      spec->graph, 2,
      std::vector<std::pair<VertexId, VertexId>>{
          {0, 44}, {9, 30}, {14, 40}, {20, 10}, {35, 5}, {44, 0}});
  return spec;
}

std::unique_ptr<GoldenSpec> zoo_spec() {
  // The bench_perf sampled-zoo stream (same graph pick and pair grid, fewer
  // trials): i.i.d. Monte Carlo on a mid-size synthetic Topology Zoo
  // network, pinned by the fixed seed and the portable fast-rand draws.
  const auto zoo = make_synthetic_zoo();
  const NamedGraph* pick = &zoo.front();
  for (const NamedGraph& ng : zoo) {
    if (ng.graph.num_vertices() >= 40 && ng.graph.num_vertices() <= 80) {
      pick = &ng;
      break;
    }
  }
  auto spec = std::make_unique<GoldenSpec>();
  spec->baseline = "sweep_zoo_sampled.json";
  spec->graph = pick->graph;
  const Graph& g = spec->graph;
  spec->pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  const int step = std::max(1, g.num_vertices() / 8);
  for (VertexId s = 0; s < g.num_vertices(); s += step) {
    for (VertexId t = 0; t < g.num_vertices(); t += step) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  spec->source = std::make_unique<RandomFailureSource>(
      RandomFailureSource::iid(g, 0.05, /*trials_per_pair=*/10, /*seed=*/7, pairs));
  return spec;
}

void check_against_baseline(const GoldenSpec& spec) {
  check_against_baseline(spec.baseline, spec.graph, *spec.pattern, *spec.source);
}

TEST(SweepReplay, ExhaustiveK5MatchesGoldenBaseline) { check_against_baseline(*k5_spec()); }

TEST(SweepReplay, ExhaustiveK33MatchesGoldenBaseline) { check_against_baseline(*k33_spec()); }

TEST(SweepReplay, ExhaustiveFatTreeMatchesGoldenBaseline) {
  check_against_baseline(*fat_tree_spec());
}

TEST(SweepReplay, SampledZooMatchesGoldenBaseline) { check_against_baseline(*zoo_spec()); }

// ---- the determinism matrix ---------------------------------------------------
//
// A report is a pure function of its spec. Every golden spec is swept at
// threads {1, 2, 4} x shards {1, 3, 8}, each thread count on one engine whose
// decision table is shared by the workers of every run (cold on the first
// run, warm after), and both entry points must agree: run_report's merged
// bytes with the golden file, find_first_violation_sharded's witness with
// the one-thread unsharded witness.

void check_determinism_matrix(const GoldenSpec& spec) {
  std::string golden;
  ASSERT_TRUE(read_file(baseline_path(spec.baseline), golden)) << spec.baseline;
  const Graph& g = spec.graph;
  ScenarioSource& source = *spec.source;
  SweepOptions one_thread;
  one_thread.num_threads = 1;
  source.reset();
  const auto reference = SweepEngine(one_thread).find_first_violation(g, *spec.pattern, source);
  for (const int threads : {1, 2, 4}) {
    SweepOptions opts;
    opts.num_threads = threads;
    const SweepEngine engine(opts);
    for (const int shards : {1, 3, 8}) {
      const std::string cell = spec.baseline + " at " + std::to_string(threads) + " threads, " +
                               std::to_string(shards) + " shards";
      SweepReport merged;
      for (int i = 0; i < shards; ++i) {
        source.shard(i, shards);
        merged.merge(engine.run_report(g, *spec.pattern, source));
      }
      source.shard(0, 1);
      EXPECT_EQ(golden, to_json(merged) + "\n") << cell << ": report bytes diverged";

      const auto finding = engine.find_first_violation_sharded(g, *spec.pattern, source, shards);
      ASSERT_EQ(finding.has_value(), reference.has_value()) << cell;
      if (!finding.has_value()) continue;
      EXPECT_EQ(finding->index, reference->index) << cell;
      EXPECT_EQ(finding->scenario.failures, reference->scenario.failures) << cell;
      EXPECT_EQ(finding->scenario.source, reference->scenario.source) << cell;
      EXPECT_EQ(finding->scenario.destination, reference->scenario.destination) << cell;
      EXPECT_EQ(finding->routing.outcome, reference->routing.outcome) << cell;
      EXPECT_EQ(finding->routing.walk, reference->routing.walk) << cell;
    }
  }
}

TEST(Determinism, ExhaustiveK5AcrossThreadsAndShards) { check_determinism_matrix(*k5_spec()); }

TEST(Determinism, ExhaustiveK33AcrossThreadsAndShards) { check_determinism_matrix(*k33_spec()); }

TEST(Determinism, ExhaustiveFatTreeAcrossThreadsAndShards) {
  check_determinism_matrix(*fat_tree_spec());
}

TEST(Determinism, SampledZooAcrossThreadsAndShards) { check_determinism_matrix(*zoo_spec()); }

TEST(Determinism, FourWorkersGrowOneColdTableUnderContention) {
  // Four workers start from an engine's fresh decision table (1,024 slots)
  // on the fat-tree |F| <= 2 stream toward three destinations: about 7,800
  // transitions, so the shared table doubles four times while the workers
  // race to fill it. The bytes must match one worker's.
  const Graph ft = make_fat_tree(6);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, ft);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < ft.num_vertices(); ++s) {
    for (const VertexId t : {0, 22, 44}) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  ExhaustiveFailureSource source(ft, 2, pairs);
  const std::string one = replay_json(ft, *pattern, source, 1);
  EXPECT_EQ(replay_json(ft, *pattern, source, 4), one);
}

}  // namespace
}  // namespace pofl
