#include "routing/verifier.hpp"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/bitmask.hpp"
#include "graph/connectivity.hpp"
#include "search/min_defeat.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace pofl {

namespace {

// Entry cap of the distance-promise finder's per-call BFS cache, so a
// pathological exhaustive call cannot balloon memory.
constexpr size_t kDistanceCacheEntries = size_t{1} << 16;

[[nodiscard]] bool use_exhaustive(const Graph& g, const VerifyOptions& opts) {
  // The hard cap is EdgeMask's word budget, not the old single-word 62-edge
  // wall; opts.max_exhaustive_edges stays the cost-based knob.
  return g.num_edges() <= opts.max_exhaustive_edges && g.num_edges() <= EdgeMask::kMaxBits;
}

/// Builds the scenario stream the options describe: exhaustive strata when
/// the graph is small enough, the legacy sampled refutation stream otherwise.
[[nodiscard]] std::unique_ptr<ScenarioSource> make_verify_source(
    const Graph& g, const VerifyOptions& opts,
    std::vector<std::pair<VertexId, VertexId>> pairs) {
  const int cap = opts.max_failures.value_or(g.num_edges());
  if (use_exhaustive(g, opts)) {
    return std::make_unique<ExhaustiveFailureSource>(g, opts.min_failures.value_or(0), cap,
                                                     std::move(pairs));
  }
  return std::make_unique<SampledFailureSource>(g, cap, opts.samples, opts.seed,
                                                std::move(pairs));
}

/// Runs the early-exit sweep and converts the finding into a Violation.
[[nodiscard]] std::optional<Violation> run_find(const Graph& g, const ForwardingPattern& pattern,
                                                const VerifyOptions& opts,
                                                std::vector<std::pair<VertexId, VertexId>> pairs,
                                                PromiseCheck promise) {
  SweepOptions sweep_opts;
  sweep_opts.num_threads = opts.num_threads;
  sweep_opts.promise = std::move(promise);
  const auto source = make_verify_source(g, opts, std::move(pairs));
  const auto finding = SweepEngine(sweep_opts).find_first_violation(g, pattern, *source);
  if (!finding.has_value()) return std::nullopt;
  return Violation{finding->scenario.failures, finding->scenario.source,
                   finding->scenario.destination, finding->routing, finding->tour};
}

/// Whether the min-defeat search answers this exhaustive-regime question:
/// the full increasing-|F| stream from stratum 0 (no min_failures window).
/// The search's witness is bit-identical to the engine's, so callers cannot
/// tell the difference — except in speed.
[[nodiscard]] bool use_search(const Graph& g, const VerifyOptions& opts) {
  return use_exhaustive(g, opts) && !opts.min_failures.has_value();
}

[[nodiscard]] std::optional<Violation> violation_from(MinDefeatResult&& r) {
  if (!r.defeated()) return std::nullopt;
  return Violation{std::move(r.failures), r.source, r.destination, std::move(r.routing), {}};
}

}  // namespace

std::optional<Violation> find_resilience_violation_for_pair(const Graph& g,
                                                            const ForwardingPattern& pattern,
                                                            VertexId source, VertexId destination,
                                                            const VerifyOptions& opts) {
  if (use_search(g, opts)) {
    return violation_from(min_defeat_search(g, pattern, source, destination,
                                            opts.max_failures.value_or(g.num_edges())));
  }
  return run_find(g, pattern, opts, {{source, destination}}, nullptr);
}

std::optional<Violation> find_resilience_violation(const Graph& g,
                                                   const ForwardingPattern& pattern,
                                                   const VerifyOptions& opts) {
  if (use_search(g, opts)) {
    return violation_from(min_defeat_search_any_pair(
        g, pattern, opts.max_failures.value_or(g.num_edges())));
  }
  return run_find(g, pattern, opts, all_ordered_pairs(g), nullptr);
}

std::optional<Violation> find_r_tolerance_violation(const Graph& g,
                                                    const ForwardingPattern& pattern,
                                                    VertexId source, VertexId destination, int r,
                                                    const VerifyOptions& opts) {
  // r < 1 would be a vacuous promise, which the search spells differently
  // (its r <= 1 means plain connectivity) — leave that corner to the engine.
  if (use_search(g, opts) && r >= 1) {
    SearchOptions search_opts;
    search_opts.promise_r = r;
    return violation_from(min_defeat_search(g, pattern, source, destination,
                                            opts.max_failures.value_or(g.num_edges()),
                                            search_opts));
  }
  PromiseCheck promise = [r](const Graph& graph, VertexId s, VertexId t, const IdSet& failures) {
    return edge_connectivity(graph, s, t, failures) >= r;
  };
  return run_find(g, pattern, opts, {{source, destination}}, std::move(promise));
}

std::optional<Violation> find_touring_violation(const Graph& g, const ForwardingPattern& pattern,
                                                const VerifyOptions& opts) {
  return run_find(g, pattern, opts, all_touring_starts(g), nullptr);
}

std::optional<Violation> find_distance_promise_violation(const Graph& g,
                                                         const ForwardingPattern& pattern,
                                                         int max_distance,
                                                         const VerifyOptions& opts) {
  // The pair list is source-major under each failure set, so all n-1
  // destinations of a (F, s) run share one BFS: cache the distance vector
  // keyed by (F, s) for the lifetime of this call (thread-safe, bounded).
  struct DistanceCache {
    struct KeyHash {
      size_t operator()(const std::pair<IdSet, VertexId>& key) const {
        return static_cast<size_t>(key.first.hash() * 31u +
                                   static_cast<uint64_t>(static_cast<uint32_t>(key.second)));
      }
    };
    std::mutex mu;
    std::unordered_map<std::pair<IdSet, VertexId>, std::shared_ptr<const std::vector<int>>,
                       KeyHash>
        map;
  };
  auto cache = std::make_shared<DistanceCache>();
  PromiseCheck promise = [max_distance, cache](const Graph& graph, VertexId s, VertexId t,
                                               const IdSet& failures) {
    const auto key = std::make_pair(failures, s);
    std::shared_ptr<const std::vector<int>> dist;
    {
      const std::lock_guard<std::mutex> lock(cache->mu);
      const auto it = cache->map.find(key);
      if (it != cache->map.end()) dist = it->second;
    }
    if (dist == nullptr) {
      dist = std::make_shared<const std::vector<int>>(
          bfs_distances(graph, s, failures));
      const std::lock_guard<std::mutex> lock(cache->mu);
      if (cache->map.size() < kDistanceCacheEntries) cache->map.emplace(key, dist);
    }
    const int d = (*dist)[static_cast<size_t>(t)];
    return d >= 0 && d <= max_distance;
  };
  return run_find(g, pattern, opts, all_ordered_pairs(g), std::move(promise));
}

std::optional<Violation> find_bounded_failure_violation(const Graph& g,
                                                        const ForwardingPattern& pattern,
                                                        int max_failures,
                                                        const VerifyOptions& opts) {
  VerifyOptions bounded = opts;
  bounded.max_failures = max_failures;
  return find_resilience_violation(g, pattern, bounded);
}

}  // namespace pofl
