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
// Every finder reports the earliest violation of one canonical scenario
// stream: exhaustive in increasing |F|, Gosper order within a stratum, pairs
// innermost; or, above the exhaustive cutoff, the sampled refutation stream.
// Two back ends answer it with the same witness:
//   * search/min_defeat, for the exhaustive pair, all-pairs and r-tolerance
//     questions over the full stream (no min_failures window) — branch and
//     bound, usually far fewer leaf tests than the sweep;
//   * SweepEngine::find_first_violation for everything else (sampling,
//     min_failures windows, touring, distance promises): a worker pool that
//     stops as soon as the earliest violation in stream order is pinned
//     down, identical for 1 and N worker threads.

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"
#include "routing/simulator.hpp"

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
  /// Worker threads for the engine sweeps; 0 = hardware concurrency,
  /// 1 = inline. Questions answered by search/min_defeat run on one thread.
  int num_threads = 0;
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
