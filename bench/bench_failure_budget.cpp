// E5 — Corollaries 3 and 4: how many failures does the adversary need?
// Paper: at most 15 on K7, at most 11 on K4,4 defeat *any* pattern. For
// every corpus pattern we report the constructive attack's budget and the
// exact minimum (exhaustive search), confirming max <= the paper's bound.

#include <algorithm>
#include <cstdio>

#include "attacks/k7_attack.hpp"
#include "attacks/pattern_corpus.hpp"
#include "graph/builders.hpp"
#include "search/min_defeat.hpp"

int main() {
  using namespace pofl;

  std::printf("=== Corollary 3: failure budget on K7 (paper bound: 15) ===\n");
  std::printf("%-28s %12s %12s\n", "pattern", "constructive", "exact-min");
  {
    const Graph k7 = make_complete(7);
    const VertexId s = 0, t = 6;
    int worst_exact = 0;
    for (const auto& pattern : make_pattern_corpus(RoutingModel::kSourceDestination, k7, 3, 42)) {
      const auto constructive = attack_k7(k7, *pattern, s, t);
      const auto exact = min_defeat_search(k7, *pattern, s, t, 15);
      const int cb = constructive ? constructive->defeat.failures.count() : -1;
      const int eb = exact.defeated() ? exact.failures.count() : -1;
      worst_exact = std::max(worst_exact, eb);
      std::printf("%-28s %12d %12d\n", pattern->name().c_str(), cb, eb);
    }
    std::printf("max exact minimum over corpus: %d  (paper bound 15: %s)\n\n", worst_exact,
                worst_exact <= 15 ? "holds" : "VIOLATED");
  }

  std::printf("=== Corollary 4: failure budget on K4,4 (paper bound: 11) ===\n");
  std::printf("%-28s %12s %12s\n", "pattern", "constructive", "exact-min");
  {
    const Graph k44 = make_complete_bipartite(4, 4);
    const VertexId s = 0, t = 7;
    int worst_exact = 0;
    for (const auto& pattern : make_pattern_corpus(RoutingModel::kSourceDestination, k44, 3, 43)) {
      const auto constructive = attack_k44(k44, *pattern, s, t);
      const auto exact = min_defeat_search(k44, *pattern, s, t, 11);
      const int cb = constructive ? constructive->defeat.failures.count() : -1;
      const int eb = exact.defeated() ? exact.failures.count() : -1;
      worst_exact = std::max(worst_exact, eb);
      std::printf("%-28s %12d %12d\n", pattern->name().c_str(), cb, eb);
    }
    std::printf("max exact minimum over corpus: %d  (paper bound 11: %s)\n", worst_exact,
                worst_exact <= 11 ? "holds" : "VIOLATED");
  }
  return 0;
}
