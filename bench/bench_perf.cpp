// P1 — engineering benchmarks for the primitives the reproduction leans on,
// centered on packet-simulation throughput. Not a paper artifact.
//
// The headline section measures the SweepEngine (route_groups_fast: 64-packet
// lockstep chunks, word-packed seen bits, memoized forwarding decisions) on
// four scenario streams, at 1 and N threads. The driver *asserts* that both
// arms produce bit-identical SweepStats and exits nonzero otherwise, so the
// multi-threaded number can never come from diverging semantics. A stretch
// column times the same engine with compute_stretch at 1 thread (the stretch
// layer is its difference from the plain 1-thread column) and asserts its
// SweepStats, stretch sums included, match the N-thread run. A separate
// source-only column drains each source into a ScenarioBatch with no
// simulation at all, so scenario-production regressions show up in
// isolation. `--json <path>` writes every number machine-readably
// (BENCH_perf.json in CI); `--threads <n>` sets the multi-threaded arm.
//
// `--procs <N>` adds a multi-process scaling row: the sampled-zoo stream
// (scaled up so one pass takes a measurable slice of wall time) swept by
// one process at one thread versus N forked workers each sweeping one of N
// leapfrog shards at one thread. This is the scenario-sharding subsystem's
// single-host scaling probe — the conformance tests pin that the shard
// union is bit-identical, so the speedup can never come from doing
// different work.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "classify/zoo.hpp"
#include "orchestrate/supervisor.hpp"
#include "graph/builders.hpp"
#include "graph/connectivity.hpp"
#include "graph/minors.hpp"
#include "graph/planarity.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "routing/simulator.hpp"
#include "search/min_defeat.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"
#include "synth/fat_tree.hpp"

namespace {

using namespace pofl;
using Clock = std::chrono::steady_clock;

// ---- measurement harness ---------------------------------------------------

struct Measured {
  double packets_per_sec = 0.0;
  SweepStats stats;  // from the last run (identical across runs by design)
};

/// One timed measurement: runs `sweep_once` (which must reset + drain the
/// source and return its stats) repeatedly until ~0.25 s has elapsed, after
/// one warmup run.
template <typename F>
Measured measure_sweep_once(F&& sweep_once) {
  Measured m;
  m.stats = sweep_once();  // warmup; also captures the stats
  int64_t scenarios = 0;
  int runs = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    const SweepStats s = sweep_once();
    scenarios += s.total;
    ++runs;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.25 || runs < 2);
  m.packets_per_sec = static_cast<double>(scenarios) / elapsed;
  return m;
}

/// Scenario-production throughput alone: drains the source into a reused
/// ScenarioBatch without simulating anything. Isolates the source-side cost
/// (Monte Carlo draws, Gosper decoding, batch refills) so a regression in
/// scenario production is visible even when simulation dominates end to end.
double measure_source_rate(ScenarioSource& source) {
  ScenarioBatch batch;
  const auto drain = [&] {
    source.reset();
    int64_t total = 0;
    while (const int n = source.next_batch(256, batch)) total += n;
    return total;
  };
  drain();  // warmup
  int64_t scenarios = 0;
  int runs = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    scenarios += drain();
    ++runs;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.25 || runs < 2);
  return static_cast<double>(scenarios) / elapsed;
}

/// Times a thunk in ns/op, repeating until ~0.2 s has elapsed.
template <typename F>
double measure_ns(F&& op) {
  op();  // warmup
  int64_t ops = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    op();
    ++ops;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.2);
  return elapsed * 1e9 / static_cast<double>(ops);
}

bool stats_identical(const SweepStats& a, const SweepStats& b) {
  return a.total == b.total && a.promise_broken == b.promise_broken &&
         a.delivered == b.delivered && a.looped == b.looped && a.dropped == b.dropped &&
         a.invalid == b.invalid && a.failures_seen == b.failures_seen &&
         a.hops_delivered == b.hops_delivered && a.stretch_samples == b.stretch_samples &&
         a.stretch_sum_q32 == b.stretch_sum_q32 && a.max_stretch == b.max_stretch;
}

struct Workload {
  std::string name;
  const Graph* g;
  const ForwardingPattern* pattern;
  ScenarioSource* source;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pofl;
  const BenchArgs args = parse_bench_args(argc, argv);
  if (args.error || !args.positional.empty() || args.shard_set) {
    std::fprintf(stderr,
                 "usage: %s [--threads <n>] [--procs <n>] [--json <path>]\n"
                 "  --threads <n>  worker threads for the multi-threaded engine arm\n"
                 "                 (default 4; the other arm always runs single-threaded)\n"
                 "  --procs <n>    also measure multi-process shard scaling with n\n"
                 "                 forked workers (off unless given)\n"
                 "  --json <path>  write every reported number to <path> (the schema is\n"
                 "                 documented in README.md)\n",
                 argv[0]);
    return 2;
  }
  const int mt_threads = args.num_threads > 0 ? args.num_threads : 4;

  // -- workloads -------------------------------------------------------------

  // Exhaustive K5: Algorithm 1's machine-checked theorem sweep, all 2^10
  // failure sets x the 4 (s, 4) pairs.
  const Graph k5 = make_complete(5);
  const auto k5_pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> k5_pairs;
  for (VertexId s = 0; s < 4; ++s) k5_pairs.emplace_back(s, 4);
  ExhaustiveFailureSource k5_source(k5, k5.num_edges(), k5_pairs);

  // Exhaustive K3,3: all 2^9 failure sets x all 30 ordered pairs.
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto k33_pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  ExhaustiveFailureSource k33_source(k33, k33.num_edges(), all_ordered_pairs(k33));

  // Sampled zoo: Monte Carlo failures on a mid-size synthetic Topology Zoo
  // network (the §VIII regime), a spread of pairs.
  const auto zoo = make_synthetic_zoo();
  const NamedGraph* zoo_pick = &zoo.front();
  for (const NamedGraph& ng : zoo) {
    if (ng.graph.num_vertices() >= 40 && ng.graph.num_vertices() <= 80) {
      zoo_pick = &ng;
      break;
    }
  }
  const Graph& zg = zoo_pick->graph;
  const auto zoo_pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, zg);
  std::vector<std::pair<VertexId, VertexId>> zoo_pairs;
  const int step = std::max(1, zg.num_vertices() / 8);
  for (VertexId s = 0; s < zg.num_vertices(); s += step) {
    for (VertexId t = 0; t < zg.num_vertices(); t += step) {
      if (s != t) zoo_pairs.emplace_back(s, t);
    }
  }
  auto zoo_source = RandomFailureSource::iid(zg, 0.05, /*trials_per_pair=*/40, /*seed=*/7,
                                             zoo_pairs);

  // Fat-tree |F| <= 2: a wide data-center topology (k=6: 108 edges, past the
  // single-word edge mask) under the paper's "up to two link failures"
  // stratum — the group path's port-mask memo side, where the exhaustive
  // K5/K3,3 rows only ever exercise the one-word fast masks.
  const Graph ft = make_fat_tree(6);
  const auto ft_pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, ft);
  std::vector<std::pair<VertexId, VertexId>> ft_pairs;
  const int ft_step = std::max(1, ft.num_vertices() / 6);
  for (VertexId s = 0; s < ft.num_vertices(); s += ft_step) {
    for (VertexId t = 0; t < ft.num_vertices(); t += ft_step) {
      if (s != t) ft_pairs.emplace_back(s, t);
    }
  }
  ExhaustiveFailureSource ft_source(ft, 2, ft_pairs);

  const Workload workloads[] = {
      {"k5_exhaustive", &k5, k5_pattern.get(), &k5_source},
      {"k33_exhaustive", &k33, k33_pattern.get(), &k33_source},
      {"zoo_sampled", &zg, zoo_pattern.get(), &zoo_source},
      {"fattree_f2", &ft, ft_pattern.get(), &ft_source},
  };

  JsonWriter json;
  json.begin_object();
  json.key("bench").value("perf");
  json.key("threads_mt").value(mt_threads);
  json.key("zoo_graph").value(zoo_pick->name);
  json.key("rows").begin_array();

  std::printf("=== Packet-simulation throughput: SweepEngine at 1 vs N threads ===\n");
  std::printf("(zoo graph: %s, n=%d m=%d; fat-tree k=6: n=%d m=%d; mt arm uses %d threads)\n\n",
              zoo_pick->name.c_str(), zg.num_vertices(), zg.num_edges(), ft.num_vertices(),
              ft.num_edges(), mt_threads);
  std::printf("%-16s %12s | %14s %14s %14s | %8s | %14s\n", "workload", "scenarios",
              "source-only/s", "fast 1t/s", "fast mt/s", "x mt", "stretch 1t/s");

  bool all_identical = true;
  for (const Workload& w : workloads) {
    // The two arms are measured interleaved (A/B, three rounds) and each arm
    // keeps its best round: symmetric best-of defuses the noise a shared box
    // injects into a single long measurement.
    SweepOptions opts1;
    opts1.num_threads = 1;
    const SweepEngine engine1(opts1);
    SweepOptions optsN;
    optsN.num_threads = mt_threads;
    const SweepEngine engineN(optsN);
    // The stretch layer rides along in the same rounds: the engine with
    // compute_stretch at 1 thread, and once at N threads for identity.
    opts1.compute_stretch = true;
    const SweepEngine stretch_engine1(opts1);
    optsN.compute_stretch = true;
    const SweepEngine stretch_engineN(optsN);

    Measured fast1, fastN, stretch1;
    for (int round = 0; round < 3; ++round) {
      const Measured f1 = measure_sweep_once([&] {
        w.source->reset();
        return engine1.run(*w.g, *w.pattern, *w.source);
      });
      const Measured fN = measure_sweep_once([&] {
        w.source->reset();
        return engineN.run(*w.g, *w.pattern, *w.source);
      });
      const Measured s1 = measure_sweep_once([&] {
        w.source->reset();
        return stretch_engine1.run(*w.g, *w.pattern, *w.source);
      });
      if (f1.packets_per_sec > fast1.packets_per_sec) fast1 = f1;
      if (fN.packets_per_sec > fastN.packets_per_sec) fastN = fN;
      if (s1.packets_per_sec > stretch1.packets_per_sec) stretch1 = s1;
    }
    w.source->reset();
    const SweepStats stretchN = stretch_engineN.run(*w.g, *w.pattern, *w.source);

    const double source_rate = measure_source_rate(*w.source);

    const bool identical = stats_identical(fast1.stats, fastN.stats);
    const bool stretch_identical = stats_identical(stretch1.stats, stretchN);
    all_identical = all_identical && identical && stretch_identical;

    std::printf("%-16s %12lld | %14.0f %14.0f %14.0f | %7.2fx | %14.0f%s%s\n", w.name.c_str(),
                static_cast<long long>(fast1.stats.total), source_rate, fast1.packets_per_sec,
                fastN.packets_per_sec, fastN.packets_per_sec / fast1.packets_per_sec,
                stretch1.packets_per_sec, identical ? "" : "  STATS MISMATCH",
                stretch_identical ? "" : "  STRETCH STATS MISMATCH");

    json.begin_object();
    json.key("name").value(w.name);
    json.key("scenarios").value(fast1.stats.total);
    json.key("source_packets_per_sec").value(source_rate);
    json.key("fast_packets_per_sec_1t").value(fast1.packets_per_sec);
    json.key("fast_packets_per_sec_mt").value(fastN.packets_per_sec);
    json.key("stats_identical").value(identical);
    json.key("stretch_packets_per_sec_1t").value(stretch1.packets_per_sec);
    json.key("stretch_stats_identical").value(stretch_identical);
    json.key("stats");
    append_json(json, fast1.stats);
    json.end_object();
  }
  json.end_array();

  // -- multi-process scaling (the scenario-sharding subsystem) ---------------

  if (args.procs_set) {
    // A bigger sampled-zoo stream than the throughput rows: one pass must
    // dwarf the fork/wait overhead for the scaling number to mean anything.
    const int mp_trials = 1000;
    const auto zoo_pass = [&](int shard_index, int shard_count) {
      auto src = RandomFailureSource::iid(zg, 0.05, mp_trials, /*seed=*/7, zoo_pairs);
      src.shard(shard_index, shard_count);
      SweepOptions o;
      o.num_threads = 1;
      (void)SweepEngine(o).run(zg, *zoo_pattern, src);
    };
    const int64_t mp_scenarios =
        static_cast<int64_t>(mp_trials) * static_cast<int64_t>(zoo_pairs.size());

    // Wall time of one full pass: single-process inline, or N forked
    // workers each sweeping shard i/N at one thread. Interleaved best-of-3,
    // like the throughput rows.
    const auto time_pass = [&](int procs) {
      const auto start = Clock::now();
      if (procs == 1) {
        zoo_pass(0, 1);
      } else {
        // The same ShardSupervisor the CLI --procs driver rides: fork-only
        // workers (no exec — each child runs its shard in process), no
        // retries. A missing worker would silently shrink the measured
        // workload and fake the speedup CI gates on — fail loudly instead,
        // and the supervisor guarantees every child is reaped even then.
        ShardSupervisor supervisor{ShardSupervisorOptions{}};
        const SupervisorResult result =
            supervisor.run(procs, [&](int shard, int /*attempt*/) -> pid_t {
              const pid_t pid = fork();
              if (pid == 0) {
                zoo_pass(shard, procs);
                _exit(0);
              }
              return pid;
            });
        if (!result.all_completed()) {
          for (const ShardOutcome& outcome : result.shards) {
            if (outcome.completed) continue;
            std::fprintf(stderr, "error: shard %d failed in --procs measurement: %s\n",
                         outcome.shard, outcome.error.c_str());
          }
          std::exit(1);
        }
      }
      return std::chrono::duration<double>(Clock::now() - start).count();
    };

    time_pass(1);  // warmup (page in the zoo graph + pattern)
    double best_single = 0.0;
    double best_multi = 0.0;
    for (int round = 0; round < 3; ++round) {
      const double single = static_cast<double>(mp_scenarios) / time_pass(1);
      const double multi = static_cast<double>(mp_scenarios) / time_pass(args.procs);
      best_single = std::max(best_single, single);
      best_multi = std::max(best_multi, multi);
    }
    const double speedup = best_multi / best_single;

    std::printf("\n=== Multi-process scaling (sampled zoo, %lld scenarios/pass) ===\n",
                static_cast<long long>(mp_scenarios));
    char label[32];
    std::snprintf(label, sizeof(label), "%d procs x 1t", args.procs);
    std::printf("%-16s %14.0f pkt/s\n", "1 proc x 1t", best_single);
    std::printf("%-16s %14.0f pkt/s   %.2fx\n", label, best_multi, speedup);

    json.key("multiproc").begin_object();
    json.key("workload").value("zoo_sampled");
    json.key("procs").value(args.procs);
    json.key("trials").value(mp_trials);
    json.key("scenarios").value(mp_scenarios);
    json.key("single_packets_per_sec").value(best_single);
    json.key("procs_packets_per_sec").value(best_multi);
    json.key("speedup").value(speedup);
    json.end_object();
  }

  // -- minimum-defeat search: branch-and-bound vs stratified enumeration -----
  //
  // The exact question both arms answer, on the fat-tree k=6 pairs below:
  // smallest failure set that defeats the shortest-path failover pattern, and
  // the canonically first such set as the witness. The arms are the two
  // strategies of the same min_defeat_search entry point, so the witness
  // comparison is a semantic pin, not a formality: branch-and-bound must
  // reproduce the enumerator's witness bit for bit while skipping almost all
  // of its ~117M leaf tests (the cardinality-6 pair dominates; its strata
  // |F| <= 5 alone are ~114M masks the bounds let the search never visit).

  {
    const auto md_pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, ft);
    const std::pair<VertexId, VertexId> md_pairs[] = {{0, 9}, {0, 3}};

    double enum_seconds = 0.0;
    double bnb_seconds = 0.0;
    int max_cardinality = 0;
    bool witnesses_identical = true;
    std::printf("\n=== Minimum-defeat search (fat-tree k=6, shortest-path pattern) ===\n");
    std::printf("%-8s %6s | %12s %12s %10s\n", "pair", "min|F|", "enum (s)", "b&b (s)", "same");
    for (const auto& [s, t] : md_pairs) {
      // Branch-and-bound is milliseconds: best of three. Enumeration is the
      // expensive arm (tens of seconds on the hard pair): measured once.
      double bnb_best = -1.0;
      MinDefeatResult bnb;
      for (int round = 0; round < 3; ++round) {
        const auto start = Clock::now();
        MinDefeatResult r = min_defeat_search(ft, *md_pattern, s, t, ft.num_edges());
        const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
        if (bnb_best < 0.0 || elapsed < bnb_best) {
          bnb_best = elapsed;
          bnb = std::move(r);
        }
      }
      SearchOptions enum_opts;
      enum_opts.strategy = SearchStrategy::kEnumerate;
      const auto start = Clock::now();
      const MinDefeatResult en = min_defeat_search(ft, *md_pattern, s, t, ft.num_edges(),
                                                   enum_opts);
      const double enum_elapsed = std::chrono::duration<double>(Clock::now() - start).count();

      const bool identical = bnb.status == en.status && bnb.failures == en.failures;
      witnesses_identical = witnesses_identical && identical;
      const int cardinality = bnb.defeated() ? bnb.failures.count() : -1;
      max_cardinality = std::max(max_cardinality, cardinality);
      enum_seconds += enum_elapsed;
      bnb_seconds += bnb_best;
      std::printf("%d,%-6d %6d | %12.3f %12.3f %10s\n", s, t, cardinality, enum_elapsed,
                  bnb_best, identical ? "yes" : "WITNESS MISMATCH");
      all_identical = all_identical && identical;
    }
    const double md_speedup = bnb_seconds > 0.0 ? enum_seconds / bnb_seconds : 0.0;
    std::printf("total: enum %.3f s, b&b %.3f s  ->  %.0fx\n", enum_seconds, bnb_seconds,
                md_speedup);

    json.key("min_defeat_fattree").begin_object();
    json.key("graph").value("fat-tree-k6");
    json.key("pattern").value("shortest-path");
    json.key("enum_seconds").value(enum_seconds);
    json.key("bnb_seconds").value(bnb_seconds);
    json.key("speedup").value(md_speedup);
    json.key("max_cardinality").value(max_cardinality);
    json.key("witnesses_identical").value(witnesses_identical);
    json.end_object();
  }

  // -- micro rows (primitive costs the reproduction leans on) ---------------

  std::printf("\n=== Microbenchmarks ===\n");
  json.key("micro").begin_array();
  const auto emit_micro = [&](const std::string& name, double ns) {
    std::printf("%-28s %12.0f ns/op\n", name.c_str(), ns);
    json.begin_object();
    json.key("name").value(name);
    json.key("ns_per_op").value(ns);
    json.end_object();
  };

  {
    const Graph g = make_random_planar(200, 400, 7);
    emit_micro("planarity_random_n200", measure_ns([&] {
      volatile bool r = is_planar(g);
      (void)r;
    }));
  }
  {
    const Graph g = make_random_connected(10, 16, 5);
    const Graph k4 = make_complete(4);
    emit_micro("exact_minor_k4_n10", measure_ns([&] {
      volatile bool r = find_minor_exact(g, k4).has_value();
      (void)r;
    }));
  }
  {
    const Graph g = make_complete(13);
    emit_micro("edge_connectivity_k13", measure_ns([&] {
      volatile int r = edge_connectivity(g, 0, 1, g.empty_edge_set());
      (void)r;
    }));
  }
  {
    const IdSet failures = failures_between(k5, {{0, 4}, {0, 1}, {1, 4}});
    emit_micro("route_packet_k5_legacy", measure_ns([&] {
      volatile int r = route_packet(k5, *k5_pattern, failures, 0, Header{0, 4}).hops;
      (void)r;
    }));
    const SimContext ctx(k5);
    RoutingWorkspace ws;
    emit_micro("route_packet_k5_fast", measure_ns([&] {
      volatile int r = route_packet_fast(ctx, *k5_pattern, failures, 0, Header{0, 4}, ws).hops;
      (void)r;
    }));
  }
  {
    // One zoo report as the CLI and the daemon serialize it: every ordered
    // pair of the sampled zoo graph, 20 iid trials each, stretch on.
    SweepOptions report_opts;
    report_opts.num_threads = 1;
    report_opts.compute_stretch = true;
    auto report_source =
        RandomFailureSource::iid(zg, 0.05, 20, /*seed=*/1, all_ordered_pairs(zg));
    const SweepReport report =
        SweepEngine(report_opts).run_report(zg, *zoo_pattern, report_source);
    const std::string bytes = to_json(report);
    std::printf("zoo report: %zu per-pair rows, %zu bytes\n", report.per_pair.size(),
                bytes.size());
    emit_micro("report_json_encode_zoo", measure_ns([&] {
      volatile size_t r = to_json(report).size();
      (void)r;
    }));
    emit_micro("report_json_parse_zoo", measure_ns([&] {
      volatile bool r = report_from_json(bytes).has_value();
      (void)r;
    }));
  }
  json.end_array();
  json.end_object();

  if (!args.json_path.empty() && !write_json_file(args.json_path, json.str())) return 1;
  if (!all_identical) {
    std::fprintf(stderr,
                 "error: an arm diverged (SweepStats at 1 vs N threads, with or without "
                 "stretch, or branch-and-bound witness vs enumeration)\n");
    return 1;
  }
  return 0;
}
