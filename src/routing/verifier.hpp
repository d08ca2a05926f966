#pragma once

// Resilience verification by failure-set enumeration.
//
// Perfect resilience (paper §II) quantifies over *all* failure sets that
// leave source and destination connected; on the small graphs where the
// paper's theorems live (K5, K3,3, K5^-2, ...) the 2^m failure sets can be
// enumerated exhaustively, turning each positive theorem into a
// machine-checked statement. Larger graphs fall back to stratified random
// sampling (a sound refuter, not a prover).
//
// Every finder here is a thin wrapper over SweepEngine::find_first_violation:
// the scenario stream (exhaustive in increasing |F|, Gosper order within a
// stratum, pairs innermost; or the sampled refutation stream) is drained by a
// worker pool that stops as soon as the earliest violation in stream order is
// pinned down. The reported violation is deterministic and identical for 1
// and N worker threads. Exhaustive-regime pair and all-pairs questions go to
// search/min_defeat instead, which reports the same canonical witness.

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"
#include "routing/simulator.hpp"
#include "search/min_defeat.hpp"

namespace pofl {

struct VerifyOptions {
  /// Exhaustive enumeration whenever the graph has at most this many edges.
  int max_exhaustive_edges = 20;
  /// Number of random failure sets (each crossed with every pair) above the
  /// cutoff.
  int samples = 2000;
  uint64_t seed = 1;
  /// If set, only failure sets with at most this many failures are tried.
  std::optional<int> max_failures;
  /// If set, failure sets smaller than this are skipped (exhaustive mode
  /// only) — incremental budget probes sweep each |F| stratum exactly once.
  std::optional<int> min_failures;
  /// Worker threads for the sweep; 0 = hardware concurrency, 1 = inline.
  int num_threads = 0;
  /// How exhaustive-regime questions are answered: kAuto routes the pair,
  /// all-pairs and r-tolerance finders through search/min_defeat (same
  /// canonical witness, usually far fewer leaf tests); kEnumerate keeps the
  /// legacy engine sweep. Finders the search cannot express (sampling,
  /// min_failures windows, custom promises, touring) always use the engine.
  SearchStrategy search = SearchStrategy::kAuto;
};

struct Violation {
  IdSet failures;
  VertexId source = kNoVertex;
  VertexId destination = kNoVertex;  // start node for touring violations
  RoutingResult routing;             // for routing models
  TourResult tour;                   // for touring
};

/// First perfect-resilience violation of a routing pattern (any model with a
/// destination): some F with s,t connected in G\F where the packet is not
/// delivered. nullopt = verified (exhaustive) or no counterexample found
/// (sampled).
[[nodiscard]] std::optional<Violation> find_resilience_violation(const Graph& g,
                                                                 const ForwardingPattern& pattern,
                                                                 const VerifyOptions& opts = {});

/// Restriction of the above to one (source, destination) pair.
[[nodiscard]] std::optional<Violation> find_resilience_violation_for_pair(
    const Graph& g, const ForwardingPattern& pattern, VertexId source, VertexId destination,
    const VerifyOptions& opts = {});

/// r-tolerance (Definition 1): only failure sets under which source and
/// destination remain r-edge-connected count.
[[nodiscard]] std::optional<Violation> find_r_tolerance_violation(const Graph& g,
                                                                  const ForwardingPattern& pattern,
                                                                  VertexId source,
                                                                  VertexId destination, int r,
                                                                  const VerifyOptions& opts = {});

/// Touring violation (§VII): some F and start v whose surviving component is
/// not fully toured (visited and returned).
[[nodiscard]] std::optional<Violation> find_touring_violation(const Graph& g,
                                                              const ForwardingPattern& pattern,
                                                              const VerifyOptions& opts = {});

/// Distance-promise resilience ([2, Thm 6.1]; paper Thm 4): violations only
/// count when dist_{G\F}(source, destination) <= max_distance.
[[nodiscard]] std::optional<Violation> find_distance_promise_violation(
    const Graph& g, const ForwardingPattern& pattern, int max_distance,
    const VerifyOptions& opts = {});

/// Bounded-failure resilience (§VI): violations restricted to |F| <= f.
[[nodiscard]] std::optional<Violation> find_bounded_failure_violation(
    const Graph& g, const ForwardingPattern& pattern, int max_failures,
    const VerifyOptions& opts = {});

}  // namespace pofl
