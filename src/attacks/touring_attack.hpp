#pragma once

// §VII negative side: K4 and K2,3 cannot be toured under perfect resilience
// (Lemmas 3 and 4), which combined with the forbidden-minor theorem yields
// "touring possible iff outerplanar" (Corollary 6).
//
// Two artifacts:
//  * a constructive per-pattern adversary following Figs. 12/13 — probe the
//    start node's cyclic permutation, fail the two links the proof names,
//    verify the tour misses a node;
//  * an exhaustive prover: enumerate *every* Lemma-1-conforming touring
//    pattern (each node routes a cyclic permutation of its alive neighbors
//    for each local failure view, with every possible origin port) and show
//    each is defeated by some failure set. Lemma 1 shows non-conforming
//    patterns are defeated outright, so this is a computational proof of
//    Lemmas 3 and 4 modulo Lemma 1.

#include <cstdint>

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"
#include "search/min_defeat.hpp"

namespace pofl {

/// Constructive touring defeat (tries the proof's failure sets over all role
/// labelings, verified; falls back to min_touring_defeat_search). Typed:
/// .defeated() is the old has_value().
[[nodiscard]] MinDefeatResult attack_touring(const Graph& g, const ForwardingPattern& pattern);

struct TouringProverResult {
  long long patterns_enumerated = 0;
  long long patterns_defeated = 0;
  /// True iff every enumerated pattern was defeated by some failure set —
  /// i.e. no perfectly resilient conforming touring pattern exists.
  bool impossibility_established = false;
};

/// Exhaustive ∃-pattern ∀-failure search over all cyclic-permutation touring
/// patterns of g. Feasible for K4 (~5e6 patterns) and K2,3 (~1e5).
[[nodiscard]] TouringProverResult prove_touring_impossible(const Graph& g);

}  // namespace pofl
