#pragma once

// Constructive adversaries for the source-destination impossibility results:
//
//   Theorem 6 / Lemma 5 (K7, Fig. 10): whatever a pattern does, one of the
//   proof's failure-set templates defeats it — either a "spine" set that
//   exposes a node refusing to relay, an "orbit" set that starves a neighbor
//   outside the cyclic orbit of the hub node v2, or the full Fig. 10 set
//   that closes the loop v2-v3-v5-v2.
//
//   Theorem 7 / Lemma 6 (K4,4): the analogous bipartite templates.
//
// Rather than replaying the proofs' adaptive case analysis imperatively, the
// attack enumerates every template over every role labeling (the proof's
// "w.l.o.g." choices) and returns the first candidate that *verifiably*
// defeats the pattern (simulation + connectivity check). The proofs
// guarantee a hit; the exact minimum-defeat search (search/min_defeat.hpp)
// is the independent ground truth used by the tests.

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"
#include "routing/simulator.hpp"

namespace pofl {

/// A constructed (not searched) defeat witness, returned by the closed-form
/// attacks (attack_k7 and friends, attack_r_tolerance).
struct Defeat {
  IdSet failures;
  VertexId source = kNoVertex;
  VertexId destination = kNoVertex;
  RoutingResult routing;
};

struct ConstructiveAttackResult {
  Defeat defeat;
  int templates_tried = 0;
};

/// Attack on K7 (or K7 minus the (s,t) link) for the given pair. The
/// returned failure set has at most 15 failures (Corollary 3).
[[nodiscard]] std::optional<ConstructiveAttackResult> attack_k7(const Graph& g,
                                                                const ForwardingPattern& pattern,
                                                                VertexId s, VertexId t);

/// Embedded variant (Theorem 14): runs the K7 templates on the clique
/// spanned by {s, t} ∪ others (|others| = 5) inside a larger complete graph.
/// Failing all links from the six non-t gadget nodes to the rest confines
/// the packet, so the K7 impossibility lifts at a budget linear in n.
[[nodiscard]] std::optional<ConstructiveAttackResult> attack_k7_embedded(
    const Graph& g, const ForwardingPattern& pattern, VertexId s, VertexId t,
    const std::vector<VertexId>& others);

/// Attack on K4,4 (or K4,4^-1) with s and t in different parts (the proof's
/// setting); parts follow make_complete_bipartite numbering. At most 11
/// failures (Corollary 4).
[[nodiscard]] std::optional<ConstructiveAttackResult> attack_k44(const Graph& g,
                                                                 const ForwardingPattern& pattern,
                                                                 VertexId s, VertexId t);

/// Embedded variant (Theorem 15) for complete bipartite hosts: t_side /
/// s_side are three gadget nodes from t's / s's part respectively.
[[nodiscard]] std::optional<ConstructiveAttackResult> attack_k44_embedded(
    const Graph& g, const ForwardingPattern& pattern, VertexId s, VertexId t,
    const std::vector<VertexId>& t_side, const std::vector<VertexId>& s_side);

}  // namespace pofl
