// Replays the paper's K7 impossibility construction (Theorem 6 / Lemma 5,
// Fig. 10): the constructive adversary probes a candidate forwarding pattern
// and produces a failure set under which the packet provably loops although
// source and destination remain connected.
//
//   ./examples/attack_demo

#include <cstdio>

#include "attacks/k7_attack.hpp"
#include "attacks/pattern_corpus.hpp"
#include "graph/builders.hpp"
#include "graph/connectivity.hpp"
#include "search/min_defeat.hpp"

int main() {
  using namespace pofl;

  const Graph k7 = make_complete(7);
  const VertexId s = 0, t = 6;
  std::printf("K7 (21 links), s=%d, t=%d.\n\n", s, t);

  const auto corpus = make_pattern_corpus(RoutingModel::kSourceDestination, k7, 2, 1);
  for (const auto& pattern : corpus) {
    const auto result = attack_k7(k7, *pattern, s, t);
    if (!result.has_value()) {
      std::printf("%-28s NOT defeated (unexpected!)\n", pattern->name().c_str());
      continue;
    }
    const auto& defeat = result->defeat;
    std::printf("%-28s defeated with %2d failures after %3d templates\n",
                pattern->name().c_str(), defeat.failures.count(), result->templates_tried);
    std::printf("  failed links:");
    for (int e : defeat.failures.to_vector()) {
      std::printf(" (%d,%d)", k7.edge(e).u, k7.edge(e).v);
    }
    std::printf("\n  s-t still connected: %s\n",
                connected(k7, s, t, defeat.failures) ? "yes" : "NO (bug)");
    std::printf("  packet walk (%s):", to_string(defeat.routing.outcome));
    for (VertexId v : defeat.routing.walk) std::printf(" %d", v);
    std::printf("\n\n");
  }

  std::printf("Ground truth for one pattern: minimum defeating failure set by\n"
              "exhaustive search (Corollary 3 bounds it by 15)...\n");
  const auto exact = min_defeat_search(k7, *corpus[0], s, t, 15);
  if (exact.defeated()) {
    std::printf("minimum defeat for %s: %d failures\n", corpus[0]->name().c_str(),
                exact.failures.count());
  }
  return 0;
}
