// E4 — Figure 9: the feasibility landscape of local fast rerouting across
// header models and graph density. Every cell is *computed*: positive cells
// run the paper's construction through the engine-backed exhaustive verifier
// (early-exit parallel sweeps); negative cells defeat an entire candidate-
// pattern corpus with the matching attack.
//
// Paper layout (Fig. 9):
//   touring:             possible up to outerplanar;   impossible from K4 / K2,3
//   destination only:    possible up to K5^-2/K3,3^-2; impossible from K5^-1 / K3,3^-1
//   source-destination:  possible up to K5 / K3,3;     impossible from K7^-1 / K4,4^-1
//
// `--json <path>` writes every cell machine-readably. `--shard i/N`
// computes every N-th cell (cell ordinal i mod N) so the landscape's
// expensive corpus-defeat cells can spread across hosts; the JSON cell
// lists of all N shards union to the full figure.

#include <cstdio>
#include <functional>
#include <string>

#include "attacks/pattern_corpus.hpp"
#include "attacks/touring_attack.hpp"
#include "graph/builders.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "resilience/k33_source.hpp"
#include "resilience/k5m2_dest.hpp"
#include "resilience/outerplanar_touring.hpp"
#include "routing/verifier.hpp"
#include "search/min_defeat.hpp"
#include "sim/sweep_json.hpp"

namespace {

using namespace pofl;

const char* verified_possible(bool ok) { return ok ? "POSSIBLE (verified)" : "BROKEN?!"; }

struct CellLog {
  JsonWriter* json;
  void possible(const std::string& row, const std::string& graph, bool ok) {
    json->begin_object();
    json->key("row").value(row);
    json->key("graph").value(graph);
    json->key("verdict").value(ok ? "possible" : "broken");
    json->end_object();
  }
  void impossible(const std::string& row, const std::string& graph, int defeated, int corpus) {
    json->begin_object();
    json->key("row").value(row);
    json->key("graph").value(graph);
    json->key("verdict").value("impossible");
    json->key("corpus_defeated").value(defeated);
    json->key("corpus_size").value(corpus);
    json->end_object();
  }
};

/// Defeats every corpus pattern; returns a cell string.
std::string defeat_cell(const Graph& g, RoutingModel model,
                        const std::function<bool(const ForwardingPattern&)>& defeat,
                        CellLog& log, const std::string& row, const std::string& graph) {
  const auto corpus = make_pattern_corpus(model, g, 2, 7);
  int defeated = 0;
  for (const auto& p : corpus) {
    if (defeat(*p)) ++defeated;
  }
  log.impossible(row, graph, defeated, static_cast<int>(corpus.size()));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "IMPOSSIBLE (%d/%zu defeated)", defeated, corpus.size());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pofl;
  const BenchArgs args = parse_bench_args(argc, argv);
  if (args.error || !args.positional.empty() || args.procs_set) {
    std::fprintf(stderr, "usage: %s [--threads <n>] [--json <path>] [--shard i/N]\n",
                 argv[0]);
    return 2;
  }
  const std::string& json_path = args.json_path;
  // Work-item sharding: each landscape cell gets an ordinal; --shard i/N
  // computes the cells with ordinal congruent to i mod N and skips the rest.
  int64_t next_cell = 0;
  const auto owns_cell = [&]() { return args.owns(next_cell++); };
  VerifyOptions vopts;
  vopts.num_threads = args.num_threads;
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("fig9_landscape");
  json.key("cells").begin_array();
  CellLog log{&json};

  std::printf("=== Figure 9: feasibility landscape (every cell computed) ===\n\n");

  // ---- Touring row ---------------------------------------------------------
  std::printf("[touring]\n");
  {
    if (owns_cell()) {
      const Graph c8 = make_cycle(8);
      const auto rh = make_outerplanar_touring(c8);
      const bool ok = !find_touring_violation(c8, *rh, vopts).has_value();
      std::printf("  outerplanar (C8 + right-hand rule): %s\n", verified_possible(ok));
      log.possible("touring", "C8", ok);
    }

    if (owns_cell()) {
      const Graph mop = make_random_maximal_outerplanar(8, 3);
      const auto rh2 = make_outerplanar_touring(mop);
      const bool ok2 = !find_touring_violation(mop, *rh2, vopts).has_value();
      std::printf("  maximal outerplanar n=8:            %s\n", verified_possible(ok2));
      log.possible("touring", "maximal-outerplanar-8", ok2);
    }

    for (const auto& [name, g] :
         {std::pair<const char*, Graph>{"K4", make_complete(4)},
          std::pair<const char*, Graph>{"K2,3", make_complete_bipartite(2, 3)}}) {
      if (!owns_cell()) continue;
      const auto cell = defeat_cell(
          g, RoutingModel::kTouring,
          [&](const ForwardingPattern& p) { return attack_touring(g, p).defeated(); }, log,
          "touring", name);
      std::printf("  %-35s %s\n", name, cell.c_str());
    }
    if (owns_cell()) {
      const auto prover_k4 = prove_touring_impossible(make_complete(4));
      const auto prover_k23 = prove_touring_impossible(make_complete_bipartite(2, 3));
      std::printf("  exhaustive prover: K4 %s over %lld cyclic patterns; K2,3 %s over %lld\n",
                  prover_k4.impossibility_established ? "impossible" : "POSSIBLE?!",
                  prover_k4.patterns_enumerated,
                  prover_k23.impossibility_established ? "impossible" : "POSSIBLE?!",
                  prover_k23.patterns_enumerated);
    }
  }

  // ---- Destination-only row ------------------------------------------------
  std::printf("\n[destination only]\n");
  {
    if (owns_cell()) {
      const Graph k5m2 = make_complete_minus(5, 2);
      const auto p1 = make_k5m2_dest_pattern(k5m2);
      const bool ok1 = p1 && !find_resilience_violation(k5m2, *p1, vopts).has_value();
      std::printf("  K5^-2  (Theorem 12 table):          %s\n", verified_possible(ok1));
      log.possible("destination", "K5^-2", ok1);
    }
    if (owns_cell()) {
      const Graph k33m2 = make_complete_bipartite_minus(3, 3, 2);
      const auto p2 = make_k33m2_dest_pattern(k33m2);
      const bool ok2 = p2 && !find_resilience_violation(k33m2, *p2, vopts).has_value();
      std::printf("  K3,3^-2 (Theorem 13 relay):         %s\n", verified_possible(ok2));
      log.possible("destination", "K3,3^-2", ok2);
    }

    for (const auto& [name, g] :
         {std::pair<const char*, Graph>{"K5^-1", make_complete_minus(5, 1)},
          std::pair<const char*, Graph>{"K3,3^-1", make_complete_bipartite_minus(3, 3, 1)}}) {
      if (!owns_cell()) continue;
      const Graph& graph = g;
      const auto cell = defeat_cell(
          graph, RoutingModel::kDestinationOnly,
          [&](const ForwardingPattern& p) {
            return min_defeat_search_any_pair(graph, p, graph.num_edges()).defeated();
          },
          log, "destination", name);
      std::printf("  %-35s %s\n", name, cell.c_str());
    }
  }

  // ---- Source-destination row ------------------------------------------------
  std::printf("\n[source + destination]\n");
  {
    if (owns_cell()) {
      const Graph k5 = make_complete(5);
      const auto alg1 = make_algorithm1_k5();
      const bool ok1 = !find_resilience_violation(k5, *alg1, vopts).has_value();
      std::printf("  K5   (Algorithm 1):                 %s\n", verified_possible(ok1));
      log.possible("source-destination", "K5", ok1);
    }
    if (owns_cell()) {
      const Graph k33 = make_complete_bipartite(3, 3);
      const auto tab = make_k33_source_pattern();
      const bool ok2 = !find_resilience_violation(k33, *tab, vopts).has_value();
      std::printf("  K3,3 (Theorem 9 tables):            %s\n", verified_possible(ok2));
      log.possible("source-destination", "K3,3", ok2);
    }

    if (owns_cell()) {
      const Graph k7 = make_complete(7);
      const auto cell = defeat_cell(
          k7, RoutingModel::kSourceDestination,
          [&](const ForwardingPattern& p) {
            return min_defeat_search(k7, p, 0, 6, 15).defeated();
          },
          log, "source-destination", "K7");
      std::printf("  %-35s %s\n", "K7 (<=15 failures, Cor. 3)", cell.c_str());
    }
    if (owns_cell()) {
      const Graph k44 = make_complete_bipartite(4, 4);
      const auto cell = defeat_cell(
          k44, RoutingModel::kSourceDestination,
          [&](const ForwardingPattern& p) {
            return min_defeat_search(k44, p, 0, 7, 11).defeated();
          },
          log, "source-destination", "K4,4");
      std::printf("  %-35s %s\n", "K4,4 (<=11 failures, Cor. 4)", cell.c_str());
    }
  }
  json.end_array();
  json.end_object();
  std::printf("\nExpected (paper): each row flips from POSSIBLE to IMPOSSIBLE exactly\n"
              "between the graphs listed, one link apart in the middle row.\n");
  if (!json_path.empty() && !write_json_file(json_path, json.str())) return 1;
  return 0;
}
