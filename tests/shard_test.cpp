// Conformance suite for the multi-process scenario-sharding subsystem.
//
// Three pillars, each pinned bit-for-bit:
//
//   * exact partition — for every scenario source and several (i, n) shard
//     splits, each canonical scenario appears in exactly one shard, with
//     identical content (failure set, pair, replay tag) and a correct
//     global_index mapping back to the unsharded stream position;
//   * shard/merge identity — merging the N per-shard SweepReports
//     reproduces the unsharded report byte for byte against the same golden
//     baselines in tests/baselines/ that sweep_replay_test pins, for
//     N in {1, 2, 8} (the acceptance gate for distributed sweeps), and
//     SweepReport::merge is associative and commutative;
//   * sharded verification — find_first_violation_sharded resolves the
//     canonical-order minimum witness: N shards x 1 thread reports the
//     identical violation to 1 shard x N threads.
//
// Plus the JSON round-trip the multi-process driver rides on: parse(write(r))
// re-serializes to the same bytes, including shard provenance markers.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "classify/zoo.hpp"
#include "graph/builders.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "routing/forwarding.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"
#include "synth/fat_tree.hpp"

namespace pofl {
namespace {

// ---- helpers ---------------------------------------------------------------

/// The probe pairs of the fat-tree golden baseline: cross-pod edge-to-edge
/// and core-to-edge routes on the k = 6 fat-tree (45 switches). Must stay in
/// sync with sweep_replay_test.cpp, which records the baseline.
std::vector<std::pair<VertexId, VertexId>> fat_tree_probe_pairs() {
  return {{0, 44}, {9, 30}, {14, 40}, {20, 10}, {35, 5}, {44, 0}};
}

struct MatScenario {
  Scenario scenario;
  uint64_t tag = 0;
};

/// Drains `source` (from reset) into materialized scenarios. Odd batch
/// sizes stress group re-opening at batch boundaries.
std::vector<MatScenario> materialize(ScenarioSource& source, int batch_size = 7) {
  source.reset();
  std::vector<MatScenario> out;
  ScenarioBatch batch;
  while (source.next_batch(batch_size, batch) > 0) {
    for (int i = 0; i < batch.size(); ++i) {
      out.push_back(MatScenario{batch.scenario(i), batch.tag(i)});
    }
  }
  return out;
}

void expect_same_scenario(const MatScenario& a, const MatScenario& b, const std::string& what) {
  EXPECT_EQ(a.scenario.failures, b.scenario.failures) << what;
  EXPECT_EQ(a.scenario.source, b.scenario.source) << what;
  EXPECT_EQ(a.scenario.destination, b.scenario.destination) << what;
  EXPECT_EQ(a.tag, b.tag) << what;
}

/// The partition property: over all shards of an (i, n) split, every
/// canonical stream position is produced exactly once, with content and
/// global_index agreeing with the unsharded stream.
void check_exact_partition(ScenarioSource& source, const std::string& name) {
  source.shard(0, 1);
  const std::vector<MatScenario> full = materialize(source);
  for (const int count : {1, 2, 3, 5, 8}) {
    std::vector<int> produced(full.size(), 0);
    for (int index = 0; index < count; ++index) {
      source.shard(index, count);
      // Shard totals must match what the sizing hint promises (when known).
      const int64_t hint = source.total_hint();
      const std::vector<MatScenario> shard = materialize(source);
      if (hint >= 0) {
        EXPECT_EQ(hint, static_cast<int64_t>(shard.size()))
            << name << " shard " << index << "/" << count;
      }
      int64_t previous_global = -1;
      for (size_t local = 0; local < shard.size(); ++local) {
        const int64_t global = source.global_index(static_cast<int64_t>(local));
        ASSERT_GE(global, 0) << name << " shard " << index << "/" << count;
        ASSERT_LT(global, static_cast<int64_t>(full.size()))
            << name << " shard " << index << "/" << count;
        // Canonical order is preserved inside a shard.
        EXPECT_GT(global, previous_global) << name << " shard " << index << "/" << count;
        previous_global = global;
        ++produced[static_cast<size_t>(global)];
        expect_same_scenario(shard[local], full[static_cast<size_t>(global)],
                             name + " shard " + std::to_string(index) + "/" +
                                 std::to_string(count) + " local " + std::to_string(local));
      }
    }
    for (size_t i = 0; i < produced.size(); ++i) {
      EXPECT_EQ(produced[i], 1) << name << " split n=" << count << " canonical index " << i;
    }
  }
  source.shard(0, 1);
}

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

/// Runs every shard of an (n)-way split through run_report (2 worker
/// threads each, like independent processes would) and merges.
SweepReport merged_shards(const Graph& g, const ForwardingPattern& pattern,
                          ScenarioSource& source, int shard_count) {
  SweepOptions opts;
  opts.num_threads = 2;
  const SweepEngine engine(opts);
  SweepReport merged;
  for (int i = 0; i < shard_count; ++i) {
    source.shard(i, shard_count);
    merged.merge(engine.run_report(g, pattern, source));
  }
  source.shard(0, 1);
  return merged;
}

/// The acceptance gate: for N in {1, 2, 8}, the merged N-shard report
/// serializes byte-identically to the checked-in golden baseline.
void check_merged_matches_baseline(const std::string& baseline, const Graph& g,
                                   const ForwardingPattern& pattern, ScenarioSource& source) {
  std::string golden;
  ASSERT_TRUE(read_file(baseline_path(baseline), golden))
      << "missing baseline " << baseline
      << " — record it with POFL_UPDATE_BASELINES=1 (see sweep_replay_test)";
  for (const int shards : {1, 2, 8}) {
    const SweepReport merged = merged_shards(g, pattern, source, shards);
    EXPECT_EQ(golden, to_json(merged) + "\n")
        << baseline << ": merged " << shards << "-shard report diverged from the unsharded "
        << "golden baseline";
  }
}

// ---- exact partition, all five sources -------------------------------------

TEST(ShardPartition, ExhaustiveSource) {
  const Graph k5 = make_complete(5);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  ExhaustiveFailureSource source(k5, 3, pairs);
  check_exact_partition(source, "exhaustive<=3");
}

TEST(ShardPartition, ExhaustiveStratumWindow) {
  const Graph k33 = make_complete_bipartite(3, 3);
  ExhaustiveFailureSource source(k33, 2, 3, {{0, 3}, {1, 4}, {2, 5}});
  check_exact_partition(source, "exhaustive[2..3]");
}

TEST(ShardPartition, WideMaskExhaustiveSource) {
  // Past the old 64-edge wall: the 108-link fat-tree's mask stream must
  // partition exactly like any single-word stream (ordinal leapfrog over
  // multi-word Gosper masks, ordinal replay tags).
  const Graph ft = make_fat_tree(6);
  ASSERT_GT(ft.num_edges(), 64);
  ExhaustiveFailureSource source(ft, 1, {{0, 44}, {9, 30}, {20, 10}});
  check_exact_partition(source, "exhaustive-wide<=1");
}

TEST(ShardPartition, RandomIidSource) {
  const Graph k5 = make_complete(5);
  auto source = RandomFailureSource::iid(k5, 0.3, /*trials_per_pair=*/7, /*seed=*/5,
                                         {{0, 1}, {1, 2}, {3, 4}});
  check_exact_partition(source, "random-iid");
}

TEST(ShardPartition, RandomExactCountSource) {
  const Graph k33 = make_complete_bipartite(3, 3);
  auto source = RandomFailureSource::exact_count(k33, /*num_failures=*/2, /*trials_per_pair=*/5,
                                                 /*seed=*/11, all_ordered_pairs(k33));
  check_exact_partition(source, "random-exact");
}

TEST(ShardPartition, SampledSource) {
  const Graph k5 = make_complete(5);
  SampledFailureSource source(k5, /*max_failures=*/4, /*samples=*/9, /*seed=*/3,
                              {{0, 4}, {1, 4}, {2, 4}});
  check_exact_partition(source, "sampled");
}

TEST(ShardPartition, FixedSourceWithGroupRuns) {
  const Graph k5 = make_complete(5);
  // Runs of equal failure sets (including a repeat of F0 later in the list,
  // which must stay a separate group) exercise the group-granular split.
  IdSet f0 = k5.empty_edge_set();
  f0.insert(0);
  IdSet f1 = k5.empty_edge_set();
  f1.insert(1);
  f1.insert(2);
  std::vector<Scenario> list;
  for (VertexId t = 1; t <= 3; ++t) list.push_back(Scenario{f0, 0, t});
  for (VertexId t = 1; t <= 2; ++t) list.push_back(Scenario{f1, 0, t});
  list.push_back(Scenario{f0, 2, 4});
  list.push_back(Scenario{k5.empty_edge_set(), 1, 3});
  FixedScenarioSource source(std::move(list));
  check_exact_partition(source, "fixed");
}

TEST(ShardPartition, ShardSpecValidation) {
  const Graph k5 = make_complete(5);
  auto source = RandomFailureSource::iid(k5, 0.1, 2, 1, all_ordered_pairs(k5));
  EXPECT_THROW(source.shard(0, 0), std::invalid_argument);
  EXPECT_THROW(source.shard(-1, 2), std::invalid_argument);
  EXPECT_THROW(source.shard(2, 2), std::invalid_argument);
  source.shard(7, 8);  // valid; more shards than some streams have groups
  source.shard(0, 1);
}

TEST(ShardPartition, MoreShardsThanGroupsYieldsEmptyShards) {
  const Graph k5 = make_complete(5);
  // 3 samples -> shards 3..7 of an 8-way split must be empty, not wrap.
  SampledFailureSource source(k5, 2, /*samples=*/3, /*seed=*/1, {{0, 1}});
  int64_t produced = 0;
  for (int i = 0; i < 8; ++i) {
    source.shard(i, 8);
    const auto shard = materialize(source);
    EXPECT_EQ(source.total_hint(), static_cast<int64_t>(shard.size())) << "shard " << i;
    if (i >= 3) {
      EXPECT_TRUE(shard.empty()) << "shard " << i;
    }
    produced += static_cast<int64_t>(shard.size());
  }
  EXPECT_EQ(produced, 3);
}

// ---- shard/merge vs the golden baselines -----------------------------------

TEST(ShardConformance, MergedShardsReproduceK5ExhaustiveBaseline) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  ExhaustiveFailureSource source(k5, k5.num_edges(), pairs);
  check_merged_matches_baseline("sweep_k5_exhaustive.json", k5, *pattern, source);
}

TEST(ShardConformance, MergedShardsReproduceK33ExhaustiveBaseline) {
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  ExhaustiveFailureSource source(k33, k33.num_edges(), all_ordered_pairs(k33));
  check_merged_matches_baseline("sweep_k33_exhaustive.json", k33, *pattern, source);
}

TEST(ShardConformance, MergedShardsReproduceFatTreeExhaustiveBaseline) {
  // The wide-mask acceptance gate: a >= 64-edge exhaustive sweep (108-link
  // fat-tree, |F| <= 2) shards and merges byte-identically to its unsharded
  // golden baseline.
  const Graph ft = make_fat_tree(6);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, ft);
  ExhaustiveFailureSource source(ft, 2, fat_tree_probe_pairs());
  check_merged_matches_baseline("sweep_fattree_exhaustive.json", ft, *pattern, source);
}

TEST(ShardConformance, MergedShardsReproduceSampledZooBaseline) {
  const auto zoo = make_synthetic_zoo();
  const NamedGraph* pick = &zoo.front();
  for (const NamedGraph& ng : zoo) {
    if (ng.graph.num_vertices() >= 40 && ng.graph.num_vertices() <= 80) {
      pick = &ng;
      break;
    }
  }
  const Graph& g = pick->graph;
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  const int step = std::max(1, g.num_vertices() / 8);
  for (VertexId s = 0; s < g.num_vertices(); s += step) {
    for (VertexId t = 0; t < g.num_vertices(); t += step) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  auto source = RandomFailureSource::iid(g, 0.05, /*trials_per_pair=*/10, /*seed=*/7, pairs);
  check_merged_matches_baseline("sweep_zoo_sampled.json", g, *pattern, source);
}

// ---- merge algebra ---------------------------------------------------------

/// Builds per-shard reports with every accumulator exercised: stretch on
/// (nonzero Q32 sums and maxes) over a cycle, where rerouting inflates hops.
std::vector<SweepReport> stretch_shard_reports(int shards) {
  const Graph g = make_cycle(8);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  auto source = RandomFailureSource::exact_count(g, 1, /*trials_per_pair=*/40, /*seed=*/13,
                                                 all_ordered_pairs(g));
  SweepOptions opts;
  opts.num_threads = 2;
  opts.compute_stretch = true;
  const SweepEngine engine(opts);
  std::vector<SweepReport> reports;
  for (int i = 0; i < shards; ++i) {
    source.shard(i, shards);
    reports.push_back(engine.run_report(g, *pattern, source));
  }
  source.shard(0, 1);
  return reports;
}

TEST(ShardMergeAlgebra, MergeIsAssociativeAndCommutative) {
  const auto r = stretch_shard_reports(3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_GT(r[0].totals.stretch_sum_q32, 0) << "stretch accumulators not exercised";

  const auto fold = [](std::vector<int> order, const std::vector<SweepReport>& parts) {
    SweepReport acc;
    for (const int i : order) acc.merge(parts[static_cast<size_t>(i)]);
    return to_json(acc);
  };
  const std::string abc = fold({0, 1, 2}, r);
  EXPECT_EQ(abc, fold({2, 1, 0}, r));
  EXPECT_EQ(abc, fold({1, 0, 2}, r));

  // Associativity with explicit trees: (a+b)+c == a+(b+c).
  SweepReport left = r[0];
  left.merge(r[1]);
  left.merge(r[2]);
  SweepReport bc = r[1];
  bc.merge(r[2]);
  SweepReport right = r[0];
  right.merge(bc);
  EXPECT_EQ(to_json(left), to_json(right));

  // And the merge reproduces the unsharded sweep, stretch included.
  const Graph g = make_cycle(8);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  auto source = RandomFailureSource::exact_count(g, 1, 40, 13, all_ordered_pairs(g));
  SweepOptions opts;
  opts.num_threads = 1;
  opts.compute_stretch = true;
  const SweepReport whole = SweepEngine(opts).run_report(g, *pattern, source);
  EXPECT_EQ(abc, to_json(whole));
}

TEST(ShardMergeAlgebra, MergeWithEmptyReportIsIdentity) {
  const auto r = stretch_shard_reports(2);
  SweepReport acc = r[0];
  acc.merge(SweepReport{});
  EXPECT_EQ(to_json(acc), to_json(r[0]));
  SweepReport acc2;
  acc2.merge(r[0]);
  EXPECT_EQ(to_json(acc2), to_json(r[0]));
}

// ---- find_first_violation under sharding -----------------------------------

/// Gives up the moment any incident link has failed — guaranteed violations
/// whenever an off-route failure keeps the promise intact (the same probe
/// pattern the early-exit engine tests use).
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

void check_sharded_witness_identity(const Graph& g, const ForwardingPattern& pattern,
                                    ScenarioSource& source) {
  // 1 shard x 4 threads...
  SweepOptions many_threads;
  many_threads.num_threads = 4;
  source.shard(0, 1);
  const auto unsharded = SweepEngine(many_threads).find_first_violation(g, pattern, source);
  ASSERT_TRUE(unsharded.has_value());

  // ...versus N shards x 1 thread, for several N.
  SweepOptions one_thread;
  one_thread.num_threads = 1;
  const SweepEngine engine(one_thread);
  for (const int shards : {1, 2, 3, 8}) {
    source.reset();
    const auto sharded = engine.find_first_violation_sharded(g, pattern, source, shards);
    ASSERT_TRUE(sharded.has_value()) << shards << " shards";
    EXPECT_EQ(sharded->index, unsharded->index) << shards << " shards";
    EXPECT_EQ(sharded->scenario.failures, unsharded->scenario.failures) << shards << " shards";
    EXPECT_EQ(sharded->scenario.source, unsharded->scenario.source) << shards << " shards";
    EXPECT_EQ(sharded->scenario.destination, unsharded->scenario.destination)
        << shards << " shards";
    EXPECT_EQ(sharded->routing.outcome, unsharded->routing.outcome) << shards << " shards";
    EXPECT_EQ(sharded->routing.walk, unsharded->routing.walk) << shards << " shards";
  }
}

TEST(ShardFirstViolation, WitnessIdenticalOnExhaustivePathSweep) {
  const Graph g = make_path(5);
  const PanicTowardHigher panic;
  ExhaustiveFailureSource source(g, g.num_edges(), all_ordered_pairs(g));
  check_sharded_witness_identity(g, panic, source);
}

TEST(ShardFirstViolation, WitnessIdenticalOnMonteCarloSweep) {
  const Graph g = make_path(6);
  const PanicTowardHigher panic;
  auto source = RandomFailureSource::iid(g, 0.35, /*trials_per_pair=*/30, /*seed=*/17,
                                         all_ordered_pairs(g));
  check_sharded_witness_identity(g, panic, source);
}

TEST(ShardFirstViolation, PerfectPatternHasNoWitnessInAnyShard) {
  // The machine-checked positive theorem: no shard may invent a violation.
  const Graph k5 = make_complete(5);
  const auto alg1 = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  ExhaustiveFailureSource source(k5, k5.num_edges(), pairs);
  SweepOptions opts;
  opts.num_threads = 2;
  EXPECT_FALSE(
      SweepEngine(opts).find_first_violation_sharded(k5, *alg1, source, 4).has_value());
}

// ---- JSON round-trip -------------------------------------------------------

TEST(ShardJson, ReportRoundTripsByteExactly) {
  // A report with every field live: a stretch sweep on a cycle.
  const auto reports = stretch_shard_reports(2);
  for (const SweepReport& report : reports) {
    const std::string serialized = to_json(report);
    ShardInfo shard;
    const auto parsed = report_from_json(serialized, &shard);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(shard.present);
    EXPECT_EQ(to_json(*parsed), serialized);
  }
}

TEST(ShardJson, ShardReportCarriesProvenance) {
  const auto reports = stretch_shard_reports(2);
  const std::string serialized = to_json_shard(reports[1], 1, 2);
  ShardInfo shard;
  const auto parsed = report_from_json(serialized, &shard);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(shard.present);
  EXPECT_EQ(shard.index, 1);
  EXPECT_EQ(shard.count, 2);
  EXPECT_EQ(to_json_shard(*parsed, shard.index, shard.count), serialized);
  // The embedded report is the same bytes as the plain serialization.
  EXPECT_EQ(to_json(*parsed), to_json(reports[1]));
}

TEST(ShardJson, GoldenBaselinesRoundTrip) {
  for (const char* name : {"sweep_k5_exhaustive.json", "sweep_k33_exhaustive.json",
                           "sweep_zoo_sampled.json", "sweep_fattree_exhaustive.json"}) {
    std::string golden;
    ASSERT_TRUE(read_file(baseline_path(name), golden)) << name;
    ASSERT_FALSE(golden.empty());
    const std::string body = golden.substr(0, golden.size() - 1);  // trailing newline
    const auto parsed = report_from_json(body);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(to_json(*parsed), body) << name;
  }
}

TEST(ShardJson, CountersTheEngineCannotWriteAreRejected) {
  // Well-formed JSON whose counters no sweep can produce — a torn or
  // bit-flipped shard — must not merge into a wrong answer. Each rejection
  // names the field and the block.
  const SweepReport good = stretch_shard_reports(1)[0];
  ASSERT_GE(good.per_pair.size(), 2u);
  ASSERT_GT(good.per_pair[0].stats.delivered, 0);
  ASSERT_TRUE(report_from_json(to_json(good)).has_value());
  const auto expect_rejected = [&good](const auto& mutate, const std::string& needle,
                                       const std::string& where) {
    SweepReport bad = good;
    mutate(bad);
    std::string error;
    EXPECT_FALSE(report_from_json(to_json(bad), nullptr, &error).has_value()) << needle;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
    EXPECT_NE(error.find(where), std::string::npos) << error;
  };
  expect_rejected([](SweepReport& r) { r.totals.looped += 7; }, "'looped'", "totals");
  expect_rejected([](SweepReport& r) { r.per_pair[1].stats.failures_seen = -1; },
                  "negative 'failures_seen'", "per_pair row 1");
  expect_rejected(
      [](SweepReport& r) {
        SweepStats& row = r.per_pair[1].stats;
        row.stretch_samples = row.delivered + 1;
      },
      "'stretch_samples'", "per_pair row 1");
  // Each row adds up on its own, but the rows no longer fold to the totals.
  expect_rejected(
      [](SweepReport& r) {
        --r.per_pair[0].stats.delivered;
        ++r.per_pair[0].stats.looped;
        --r.per_pair[0].stats.stretch_samples;
      },
      "'delivered'", "per_pair rows sum");
  expect_rejected([](SweepReport& r) { r.totals.max_stretch += 1.0; }, "'max_stretch'",
                  "totals");
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  expect_rejected(
      [](SweepReport& r) {
        r.per_pair[0].stats.hops_delivered = kMax;
        r.per_pair[1].stats.hops_delivered = kMax;
        r.totals.hops_delivered = kMax;
      },
      "'hops_delivered' overflows", "per_pair row 1");

  // The Q32 stretch sum saturates in the engine's merge, so a pegged total
  // over pegged rows is what the engine writes, and it is accepted.
  SweepReport pegged = good;
  pegged.per_pair[0].stats.stretch_sum_q32 = kMax;
  pegged.per_pair[1].stats.stretch_sum_q32 = kMax;
  pegged.totals.stretch_sum_q32 = kMax;
  const auto parsed = report_from_json(to_json(pegged));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(to_json(*parsed), to_json(pegged));
}

TEST(ShardJson, KeysTheWriterCannotWriteAreRejected) {
  // Every object of a report must carry exactly the writer's keys in the
  // writer's order: a misspelled, unknown, repeated or missing key is a
  // report no sweep wrote, and the error names the byte offset, the key the
  // reader expected there, the block and what it found instead.
  const SweepReport good = stretch_shard_reports(1)[0];
  ASSERT_GE(good.per_pair.size(), 2u);
  const std::string bytes = to_json(good);
  const size_t row1 = bytes.find("{\"source\":", bytes.find("{\"source\":") + 1);
  ASSERT_NE(row1, std::string::npos);
  // Replaces the first `from` at or after `at`; `offset` gets where it was.
  const auto edited = [](std::string text, size_t at, const std::string& from,
                         const std::string& to, size_t& offset) {
    offset = text.find(from, at);
    EXPECT_NE(offset, std::string::npos) << from;
    return text.replace(offset, from.size(), to);
  };
  const auto expect_rejected = [](const std::string& text, const std::string& needle) {
    std::string error;
    EXPECT_FALSE(report_from_json(text, nullptr, &error).has_value()) << needle;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };
  const auto at = [](size_t offset) { return " at byte offset " + std::to_string(offset); };
  size_t pos = 0;
  std::string text = edited(bytes, 0, "\"mean_hops\"", "\"mean_hosp\"", pos);
  expect_rejected(text, "expected key 'mean_hops'" + at(pos) + " in totals, found \"mean_hosp\"");
  text = edited(bytes, row1, "\"loop_rate\"", "\"loop_rat\"", pos);
  expect_rejected(text, "expected key 'loop_rate'" + at(pos) +
                            " in stats of per_pair row 1, found \"loop_rat\"");
  text = edited(bytes, row1, "\"destination\"", "\"source\":0,\"destination\"", pos);
  expect_rejected(text,
                  "expected key 'destination'" + at(pos) + " in per_pair row 1, found \"source\"");
  text = edited(bytes, 0, "\"promise_held\"", "\"total\":1,\"promise_held\"", pos);
  expect_rejected(text, "expected key 'promise_held'" + at(pos) + " in totals, found \"total\"");
  text = edited(bytes, 0, "\"totals\"", "\"extra\":1,\"totals\"", pos);
  expect_rejected(text,
                  "expected key 'totals'" + at(pos) + " in the report object, found \"extra\"");
  text = edited(bytes, bytes.size() - 2, "]}", "],\"per_pair\":[]}", pos);
  expect_rejected(text,
                  "expected '}'" + at(pos + 1) + " in the report object, found \"per_pair\"");
  // A derived field dropped from a row's stats, and the row's last key.
  const size_t held = bytes.find("\"promise_held\":", row1);
  const size_t held_end = bytes.find(',', held);
  expect_rejected(bytes.substr(0, held) + bytes.substr(held_end + 1),
                  "expected key 'promise_held'" + at(held) +
                      " in stats of per_pair row 1, found \"delivered\"");
  const size_t stretch = bytes.find(",\"mean_stretch\":");
  const size_t stretch_end = bytes.find('}', stretch);
  expect_rejected(bytes.substr(0, stretch) + bytes.substr(stretch_end),
                  "expected key 'mean_stretch'" + at(stretch) + " in totals, found '}'");
  // Provenance blocks follow the same rule.
  const std::string shard = to_json_shard(good, 0, 1);
  ASSERT_TRUE(report_from_json(shard).has_value());
  text = edited(shard, 0, "\"index\"", "\"idx\"", pos);
  expect_rejected(text, "expected key 'index'" + at(pos) + " in 'shard', found \"idx\"");
  IncompleteInfo incomplete;
  incomplete.present = true;
  incomplete.shard_count = 2;
  incomplete.missing_shards = {1};
  incomplete.attempts = {3};
  const std::string partial = to_json_partial(good, incomplete);
  ASSERT_TRUE(report_from_json(partial).has_value());
  text = edited(partial, 0, ",\"attempts\":[3]", "", pos);
  expect_rejected(text, "expected key 'attempts'" + at(pos) + " in 'incomplete', found '}'");
}

TEST(ShardJson, OnlyTheEnginesBytesAreAccepted) {
  // A report is accepted only if re-encoding what was read reproduces it
  // byte for byte; the error names the offset, the key and both spellings.
  std::string golden;
  ASSERT_TRUE(read_file(baseline_path("sweep_k5_exhaustive.json"), golden));
  ASSERT_TRUE(report_from_json(golden).has_value());  // the file's newline is framing
  const auto expect_rejected = [](std::string text, const std::string& from,
                                  const std::string& to, const std::string& needle) {
    const size_t pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    std::string error;
    EXPECT_FALSE(report_from_json(text, nullptr, &error).has_value()) << needle;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };
  // A derived rate that does not follow from its counters.
  expect_rejected(golden, "\"delivery_rate\":1", "\"delivery_rate\":0.25",
                  "not the engine's bytes at byte offset 249 in 'delivery_rate': read '0.25' "
                  "where the engine writes '1'");
  // An exact field the writer spells differently, and whitespace.
  expect_rejected(golden, "\"max_stretch\":0", "\"max_stretch\":0.0",
                  "in 'max_stretch': read '0.0' where the engine writes '0'");
  expect_rejected(golden, "{\"total\":", "{\"total\": ",
                  "expected a number for 'total' at byte offset 19 in totals, found ' '");
  expect_rejected(golden, "\n", " x", "trailing bytes at byte offset 1955 of 1956");
  // Shard and partial provenance re-encode with their own writers.
  const SweepReport good = stretch_shard_reports(1)[0];
  expect_rejected(to_json_shard(good, 0, 2), "\"mean_hops\":", "\"mean_hops\":9",
                  "in 'mean_hops': read '9");
  IncompleteInfo incomplete;
  incomplete.present = true;
  incomplete.shard_count = 2;
  incomplete.missing_shards = {1};
  incomplete.attempts = {3};
  expect_rejected(to_json_partial(good, incomplete), "\"loop_rate\":", "\"loop_rate\":0.5",
                  "in 'loop_rate': read '0.5");
}

TEST(ShardJson, HostileBytesAreRejectedWithAnOffsetOrReadExactly) {
  // The K5 golden report in all three of its writers' forms, mutated byte by
  // byte: every rejection carries a byte offset, and a mutant the reader
  // accepts (a flipped vertex id, say) is exactly what the writer emits for
  // what was read. A prefix of a report is never a report.
  std::string golden;
  ASSERT_TRUE(read_file(baseline_path("sweep_k5_exhaustive.json"), golden));
  golden.pop_back();  // the file's newline
  const auto base = report_from_json(golden);
  ASSERT_TRUE(base.has_value());
  IncompleteInfo partial;
  partial.present = true;
  partial.shard_count = 3;
  partial.missing_shards = {0, 2};
  partial.attempts = {1, 4};
  int64_t rejected = 0;
  int64_t accepted = 0;
  int64_t wrong = 0;
  std::string first_wrong;
  const auto check = [&](const std::string& mutant, const std::string& needle) {
    ShardInfo shard;
    IncompleteInfo incomplete;
    std::string error;
    const auto report = report_from_json(mutant, &shard, &error, &incomplete);
    bool ok = false;
    if (report.has_value()) {
      ++accepted;
      ok = needle.empty() &&
           mutant == (shard.present        ? to_json_shard(*report, shard.index, shard.count)
                      : incomplete.present ? to_json_partial(*report, incomplete)
                                           : to_json(*report));
    } else {
      ++rejected;
      ok = error.find(needle.empty() ? "byte offset" : needle) != std::string::npos;
    }
    if (!ok && wrong++ == 0) first_wrong = (report ? "accepted: " : error + ": ") + mutant;
  };
  constexpr std::string_view kCounters[] = {
      "total",   "promise_broken", "delivered",      "looped",          "dropped",
      "invalid", "failures_seen",  "hops_delivered", "stretch_samples", "stretch_sum_q32"};
  const std::string forms[] = {golden, to_json_shard(*base, 1, 3),
                               to_json_partial(*base, partial)};
  for (const std::string& text : forms) {
    for (size_t cut = 1; cut < text.size(); ++cut) {
      check(text.substr(0, cut), "truncated at byte offset " + std::to_string(cut) + " of " +
                                     std::to_string(cut));
    }
    for (size_t at = 0; at < text.size(); ++at) {
      for (const char flip : {'0', '"', ',', '}', '9', '-', ' '}) {
        if (text[at] == flip) continue;
        std::string mutant = text;
        mutant[at] = flip;
        check(mutant, "");
      }
    }
    for (const std::string_view counter : kCounters) {
      const std::string key = "\"" + std::string(counter) + "\":";
      for (size_t at = text.find(key); at != std::string::npos; at = text.find(key, at + 1)) {
        const size_t value = at + key.size();
        const size_t value_end = text.find_first_of(",}", value);
        // Out of range: rejected where the value starts. "-0" reads as 0,
        // so some check downstream of the read rejects it.
        const std::string at_value = "at byte offset " + std::to_string(value);
        check(text.substr(0, value) + "1e999" + text.substr(value_end), at_value);
        check(text.substr(0, value) + "9223372036854775808" + text.substr(value_end), at_value);
        check(text.substr(0, value) + "-0" + text.substr(value_end), "");
      }
    }
  }
  EXPECT_EQ(wrong, 0) << "first: " << first_wrong;
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 40000);
}

TEST(ShardJson, MalformedInputIsRejected) {
  EXPECT_FALSE(report_from_json("").has_value());
  EXPECT_FALSE(report_from_json("{").has_value());
  EXPECT_FALSE(report_from_json("[]").has_value());
  EXPECT_FALSE(report_from_json("{\"totals\":{}}").has_value());
  EXPECT_FALSE(report_from_json("{\"totals\":{\"total\":1}}").has_value());
  // Bad shard provenance.
  const auto reports = stretch_shard_reports(2);
  std::string bad = to_json_shard(reports[0], 0, 2);
  ShardInfo shard;
  ASSERT_TRUE(report_from_json(bad, &shard).has_value());
  const size_t pos = bad.find("\"count\":2");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 9, "\"count\":0");
  EXPECT_FALSE(report_from_json(bad, &shard).has_value());
}

}  // namespace
}  // namespace pofl
