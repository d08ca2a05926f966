#include "routing/stretch.hpp"

#include <algorithm>

#include "graph/fast_rand.hpp"
#include "routing/simulator.hpp"

namespace pofl {

StretchStats measure_stretch(const Graph& g, const ForwardingPattern& pattern, VertexId s,
                             VertexId t, int num_failures, int trials, uint64_t seed) {
  FastRng rng(seed);
  StretchStats stats;
  double stretch_sum = 0.0;
  long long hops_sum = 0;

  // One context/workspace/mask for all trials: the walk is never inspected
  // here, so every trial rides the outcome-only fast path, and the draws
  // (one Floyd exact-count sample per trial) match
  // RandomFailureSource::exact_count call for call — equal seeds keep the
  // engine and this estimator on identical failure sets.
  const SimContext ctx(g);
  RoutingWorkspace ws;
  IdSet failures;

  for (int trial = 0; trial < trials; ++trial) {
    floyd_sample(rng, g.num_edges(), std::min(num_failures, g.num_edges()), failures);
    const int d = distance_fast(ctx, failures, s, t, ws);
    if (d <= 0) continue;  // promise broken (or s == t)
    const FastRouteResult r = route_packet_fast(ctx, pattern, failures, s, Header{s, t}, ws);
    if (r.outcome != RoutingOutcome::kDelivered) {
      ++stats.failed_deliveries;
      continue;
    }
    ++stats.samples;
    const double stretch = static_cast<double>(r.hops) / d;
    stretch_sum += stretch;
    hops_sum += r.hops;
    stats.max_stretch = std::max(stats.max_stretch, stretch);
  }
  if (stats.samples > 0) {
    stats.mean_stretch = stretch_sum / stats.samples;
    stats.mean_hops = static_cast<double>(hops_sum) / stats.samples;
  }
  return stats;
}

}  // namespace pofl
