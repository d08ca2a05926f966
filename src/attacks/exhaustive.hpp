#pragma once

// Exhaustive adversary: the minimum-cardinality failure set defeating a given
// pattern. This is the ground truth behind Corollaries 3 and 4: on K7 at most
// 15 failures defeat any pattern, on K4,4 at most 11 — the bench measures
// the actual minimum budget over the pattern corpus.
//
// Since PR 9 the finders are thin wrappers over search/min_defeat: a
// best-first branch and bound proves the optimum and a canonical pass
// reconstructs the exact witness the old increasing-|F| Gosper enumeration
// reported (bit-identical — pinned by tests/min_defeat_search_test). Pass
// SearchOptions{.strategy = SearchStrategy::kEnumerate} to replay the legacy
// enumeration verbatim. The result is typed: kDefeated carries the witness,
// kNoDefeatWithinBudget means larger sets were not ruled out, and
// kPerfectlyResilient is a proof that no defeating set of any size exists
// (the old API returned an ambiguous nullopt for both of the latter).

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"
#include "routing/simulator.hpp"
#include "search/min_defeat.hpp"

namespace pofl {

/// A constructed (not searched) defeat witness, used by the closed-form
/// attacks (k7_attack and friends).
struct Defeat {
  IdSet failures;
  VertexId source = kNoVertex;
  VertexId destination = kNoVertex;
  RoutingResult routing;
};

/// Smallest failure set F such that s,t stay connected in G\F but the packet
/// is not delivered. Exact; graphs up to EdgeMask::kMaxBits edges are
/// accepted (checked, throws). `max_budget` bounds |F|.
[[nodiscard]] MinDefeatResult find_minimum_defeat(const Graph& g, const ForwardingPattern& pattern,
                                                  VertexId source, VertexId destination,
                                                  int max_budget,
                                                  const SearchOptions& options = {});

/// Smallest defeating failure set over all (s,t) pairs.
[[nodiscard]] MinDefeatResult find_minimum_defeat_any_pair(const Graph& g,
                                                           const ForwardingPattern& pattern,
                                                           int max_budget,
                                                           const SearchOptions& options = {});

/// Touring version: smallest F such that some start's surviving component is
/// not toured (`source` in the result is the failing start).
[[nodiscard]] MinDefeatResult find_minimum_touring_defeat(const Graph& g,
                                                          const ForwardingPattern& pattern,
                                                          int max_budget,
                                                          const SearchOptions& options = {});

}  // namespace pofl
