#pragma once

// Connectivity primitives: reachability, components, BFS distances, bridges,
// cut vertices, and s-t / global edge connectivity via unit-capacity max-flow
// (Menger's theorem). Everything takes an optional failure set so the routing
// layer can ask about the surviving graph without materializing copies.

#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace pofl {

/// A promise predicate: does the guarantee still hold for (source,
/// destination) under the failure set? Violations only count inside the
/// promise. The paper's default promise is connected(g, source, destination,
/// failures); custom predicates express its other quantifier families
/// (r-tolerance, distance promises). Touring scenarios pass kNoVertex as the
/// destination. Called concurrently by sweep workers, so it must be pure.
using PromiseCheck = std::function<bool(const Graph&, VertexId source, VertexId destination,
                                        const IdSet& failures)>;

/// True iff u and v are connected in g with `failed` links removed.
[[nodiscard]] bool connected(const Graph& g, VertexId u, VertexId v, const IdSet& failed);

/// True iff the whole surviving graph is connected (isolated graphs of one
/// vertex count as connected).
[[nodiscard]] bool connected(const Graph& g, const IdSet& failed);

/// True iff g (no failures) is connected.
[[nodiscard]] bool connected(const Graph& g);

/// Component label per vertex (labels are 0-based, dense) in g minus failed.
[[nodiscard]] std::vector<int> components(const Graph& g, const IdSet& failed);

/// Vertices in the same surviving component as v.
[[nodiscard]] std::vector<VertexId> component_of(const Graph& g, VertexId v, const IdSet& failed);

/// BFS hop distances from src in the surviving graph; -1 if unreachable.
[[nodiscard]] std::vector<int> bfs_distances(const Graph& g, VertexId src, const IdSet& failed);

/// Distance between u and v in the surviving graph, nullopt if disconnected.
[[nodiscard]] std::optional<int> distance(const Graph& g, VertexId u, VertexId v,
                                          const IdSet& failed);

/// All-pairs failure-free hop distances of g: one BFS per vertex, n² int32
/// entries, -1 for unreachable pairs. Immutable once built, so sweep workers
/// share one table read-only. Removing links never shortens a path, so an
/// entry is a lower bound on the distance under any failure set.
class DistanceTable {
 public:
  explicit DistanceTable(const Graph& g);

  /// dist_G(u, v), -1 if u and v are disconnected in g.
  [[nodiscard]] int operator()(VertexId u, VertexId v) const {
    return dist_[static_cast<size_t>(u) * n_ + static_cast<size_t>(v)];
  }

  /// True iff some link {a, b} of `failed` lies on a shortest s-t path of g:
  /// dist(s, a) + 1 + dist(b, t) == dist(s, t), in either orientation. When
  /// it returns false a shortest path of g survives, so dist_{G\F}(s, t) ==
  /// dist_G(s, t). O(|failed|). Precondition: s and t are connected in g.
  [[nodiscard]] bool on_shortest_path(const IdSet& failed, VertexId s, VertexId t) const;

 private:
  size_t n_ = 0;
  std::vector<int32_t> dist_;     // row-major n × n
  std::vector<VertexId> edge_u_;  // per edge id: its endpoints
  std::vector<VertexId> edge_v_;
};

/// A shortest path (list of vertices) from u to v in the surviving graph.
[[nodiscard]] std::optional<std::vector<VertexId>> shortest_path(const Graph& g, VertexId u,
                                                                 VertexId v, const IdSet& failed);

/// Maximum number of pairwise link-disjoint u-v paths in the surviving graph
/// (= s-t edge connectivity by Menger). 0 if disconnected, and by convention
/// a very large value is never needed here since it is bounded by min degree.
[[nodiscard]] int edge_connectivity(const Graph& g, VertexId u, VertexId v, const IdSet& failed);

/// Global edge connectivity of the surviving graph (0 if disconnected or
/// fewer than 2 vertices).
[[nodiscard]] int global_edge_connectivity(const Graph& g, const IdSet& failed);

/// Actual link-disjoint u-v paths realizing edge_connectivity (for tests and
/// for the price-of-locality demonstrations).
[[nodiscard]] std::vector<std::vector<VertexId>> disjoint_paths(const Graph& g, VertexId u,
                                                                VertexId v, const IdSet& failed);

/// Edge ids that are bridges of the surviving graph.
[[nodiscard]] std::vector<EdgeId> bridges(const Graph& g, const IdSet& failed);

/// Vertices that are cut vertices (articulation points) of the surviving graph.
[[nodiscard]] std::vector<VertexId> cut_vertices(const Graph& g, const IdSet& failed);

/// True iff the graph (minus failures) is 2-edge-connected between all pairs.
[[nodiscard]] bool two_edge_connected(const Graph& g, const IdSet& failed);

}  // namespace pofl
