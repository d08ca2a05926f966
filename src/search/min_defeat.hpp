#pragma once

// Minimum-defeat search: the smallest failure set that defeats a forwarding
// pattern, posed as exact optimization instead of blind enumeration.
//
// Enumeration walks every mask in increasing-|F| Gosper order — O(m choose k)
// leaf tests, a wall right where the 512-edge EdgeMask opened up larger
// graphs. This module answers the same question with a best-first
// branch-and-bound:
//
//   * Branch on include/exclude of candidate edges. A node is a pair (I, X):
//     every failure set in its subtree contains all of I and none of X.
//   * Prune with structural bounds. If s,t are already disconnected (or the
//     s-t min-cut of G\I drops below the promised tolerance r), no superset
//     of I can defeat the promise — promises are anti-monotone in F, so the
//     whole subtree dies. If the packet is *delivered* under I, any
//     defeating superset must fail an edge incident to the delivered walk
//     (routing is local: a failure set that agrees with I on every edge the
//     walk can see routes identically), which both restricts branching to
//     that incident "cover" and, via a one-step lookahead over the cover,
//     yields a packing-style +2 lower bound per delivered child. The touring
//     search runs the same skeleton per start, with no promise term and the
//     cover widened to the vertices the tour missed.
//   * Seed incumbents from cheap upper bounds: greedy walk-cutting probes
//     and defeats mined from the attacks/pattern_corpus patterns.
//   * Verify candidate leaves exactly as the sweep engine does —
//     IncrementalConnectivity for the promise, route_packet_fast for the
//     delivery check.
//
// The search is exact, and its witness is *bit-identical* to enumeration's:
// once branch and bound has proved the optimum cardinality k*, a canonical
// pass reconstructs the numerically smallest defeating mask of size k* — the
// very mask the increasing-|F| Gosper walk reports first (a depth-first
// reconstruction for one pair; for all pairs and touring, the enumeration
// of the stratum |F| = k* alone). Cross-checked exhaustively in
// tests/min_defeat_search_test.
//
// Enumeration itself is SweepEngine::find_first_violation over an
// ExhaustiveFailureSource, on one thread. SearchOptions picks it: strategy
// kEnumerate enumerates outright (same witness, telemetry counts one leaf
// per mask tested); kAuto runs the search — falling back to enumeration for
// custom promise predicates (anti-monotonicity is not guaranteed for
// arbitrary PromiseChecks) and when a node cap suggests enumeration would be
// cheaper (dense graphs with large minima). Every path reports telemetry
// through the existing JSON writer.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/connectivity.hpp"
#include "graph/graph.hpp"
#include "routing/forwarding.hpp"
#include "routing/simulator.hpp"

namespace pofl {

class JsonWriter;

enum class SearchStrategy {
  kAuto,       // branch and bound, falling back to enumeration on custom
               // promises or past the node cap
  kEnumerate,  // increasing-|F| Gosper enumeration on the sweep engine
};

[[nodiscard]] const char* to_string(SearchStrategy s);

enum class MinDefeatStatus {
  kDefeated,             // a defeating set within budget was found (the minimum)
  kNoDefeatWithinBudget, // none with |F| <= budget, larger sets not ruled out
  kPerfectlyResilient,   // proven: no defeating set of any size exists
};

[[nodiscard]] const char* to_string(MinDefeatStatus s);

struct SearchOptions {
  SearchStrategy strategy = SearchStrategy::kAuto;
  /// Promised edge tolerance: defeat requires edge_connectivity(G\F, s, t)
  /// >= r. r = 1 is plain s-t connectivity, the verifier's default promise.
  /// Pair search only — the any-pair and touring searches keep their own
  /// defeat notions (same surviving component / no promise at all).
  int promise_r = 1;
  /// Custom promise predicate: a defeat is a failure set with the promise
  /// intact but delivery broken. Branch and bound is only sound for
  /// predicates anti-monotone in F, so a custom one forces the enumerate
  /// fallback. Overrides promise_r when set. Pair search only, like
  /// promise_r.
  PromiseCheck promise;
  /// Extra candidate incumbents (failure IdSets over the graph's edges),
  /// e.g. from corpus_upper_bound_candidates. Each candidate is verified
  /// before adoption; wrong or oversized candidates are ignored. Seeding
  /// never changes the result — only how fast the bound closes.
  const std::vector<IdSet>* upper_bound_candidates = nullptr;
  /// Greedy walk-cutting incumbent probes before the search (cheap, exact
  /// upper bounds). Disable to benchmark the cold search.
  bool seed_incumbents = true;
  /// Branch-and-bound expansion cap before falling back to enumeration
  /// (exact either way; the cap guards dense graphs whose minimum is large,
  /// where the cover branching degenerates). <= 0 disables the cap.
  int64_t node_cap = 20000;
};

/// Search counters, reported through the JSON writer. All counters are
/// deterministic for a given (graph, pattern, options) input.
struct SearchTelemetry {
  std::string strategy;          // "branch-and-bound", "enumerate", "enumerate-fallback",
                                 // "none" (negative budget)
  int64_t nodes_expanded = 0;    // branch-and-bound nodes popped and branched
  int64_t leaves_verified = 0;   // full defeat tests; one per mask when enumerating
  int64_t pruned_bound = 0;      // subtrees cut by incumbent/budget bound
  int64_t pruned_promise = 0;    // subtrees cut: promise already broken at I
  int64_t pruned_cover = 0;      // subtrees cut: delivered walk with empty cover
  int64_t lookahead_excluded = 0;  // cover edges excluded by the one-step probe
  int64_t canonical_nodes = 0;   // nodes of the canonical reconstruction pass
  std::vector<int> incumbent_trajectory;  // successive incumbent cardinalities
  /// Proven lower bound on any defeating set: the optimum when defeated,
  /// budget + 1 when the budget truncated the proof, m + 1 when perfect
  /// resilience is proven.
  int proved_bound = 0;
  /// s-t min-cut of the intact graph (pair search only; -1 otherwise) — the
  /// structural bound on sets that can break an r-tolerance promise.
  int root_min_cut = -1;
};

struct MinDefeatResult {
  MinDefeatStatus status = MinDefeatStatus::kNoDefeatWithinBudget;
  /// The minimum defeating set (canonical: first in increasing-|F| Gosper
  /// order) when status == kDefeated; empty otherwise.
  IdSet failures;
  VertexId source = kNoVertex;
  VertexId destination = kNoVertex;  // kNoVertex for touring defeats
  /// Witness walk, re-simulated with the walk-recording core (empty for
  /// touring defeats).
  RoutingResult routing;
  int budget = 0;
  SearchTelemetry telemetry;

  [[nodiscard]] bool defeated() const { return status == MinDefeatStatus::kDefeated; }
};

/// Minimum defeating set for one (source, destination) pair: smallest F with
/// the promise intact in G\F but the packet not delivered. Exact; witnesses
/// are bit-identical to enumeration's. Graphs up to
/// EdgeMask::kMaxBits edges are accepted (checked, throws).
[[nodiscard]] MinDefeatResult min_defeat_search(const Graph& g, const ForwardingPattern& pattern,
                                                VertexId source, VertexId destination,
                                                int max_budget, const SearchOptions& options = {});

/// Minimum defeating set over all ordered (s, t) pairs, witness pair chosen
/// in scan order (s-major, t-minor).
[[nodiscard]] MinDefeatResult min_defeat_search_any_pair(const Graph& g,
                                                         const ForwardingPattern& pattern,
                                                         int max_budget,
                                                         const SearchOptions& options = {});

/// Touring version: smallest F such that some start's surviving component is
/// not toured. No promise term; `source` in the result is the failing start.
[[nodiscard]] MinDefeatResult min_touring_defeat_search(const Graph& g,
                                                        const ForwardingPattern& pattern,
                                                        int max_budget,
                                                        const SearchOptions& options = {});

/// Cheap candidate incumbents for (s, t) searches on `g`: greedy walk-cut
/// defeats of every attacks/pattern_corpus pattern of the model, deduplicated.
/// Feed through SearchOptions::upper_bound_candidates when attacking many
/// patterns on one graph — a set that defeats one local pattern often defeats
/// its siblings, and a verified incumbent closes the bound immediately.
[[nodiscard]] std::vector<IdSet> corpus_upper_bound_candidates(const Graph& g, RoutingModel model,
                                                               VertexId source,
                                                               VertexId destination,
                                                               int max_budget);

/// Serializes the result as one JSON object: status, cardinality, witness
/// edge ids and endpoints, routing outcome, and the telemetry block.
void append_json(JsonWriter& w, const MinDefeatResult& result, const Graph& g);

}  // namespace pofl
