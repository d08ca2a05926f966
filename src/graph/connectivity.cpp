#include "graph/connectivity.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <functional>
#include <limits>

namespace pofl {

namespace {

/// BFS over alive edges, returning the parent edge per vertex (kNoEdge for
/// the root and unreached vertices) — shared engine for several queries.
std::vector<EdgeId> bfs_parents(const Graph& g, VertexId src, const IdSet& failed) {
  std::vector<EdgeId> parent(static_cast<size_t>(g.num_vertices()), kNoEdge);
  std::vector<char> seen(static_cast<size_t>(g.num_vertices()), 0);
  std::deque<VertexId> queue{src};
  seen[static_cast<size_t>(src)] = 1;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (EdgeId e : g.incident_edges(v)) {
      if (failed.contains(e)) continue;
      const VertexId w = g.other_endpoint(e, v);
      if (!seen[static_cast<size_t>(w)]) {
        seen[static_cast<size_t>(w)] = 1;
        parent[static_cast<size_t>(w)] = e;
        queue.push_back(w);
      }
    }
  }
  return parent;
}

}  // namespace

bool connected(const Graph& g, VertexId u, VertexId v, const IdSet& failed) {
  if (u == v) return true;
  const auto parent = bfs_parents(g, u, failed);
  return parent[static_cast<size_t>(v)] != kNoEdge;
}

bool connected(const Graph& g, const IdSet& failed) {
  if (g.num_vertices() <= 1) return true;
  const auto parent = bfs_parents(g, 0, failed);
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (parent[static_cast<size_t>(v)] == kNoEdge) return false;
  }
  return true;
}

bool connected(const Graph& g) { return connected(g, g.empty_edge_set()); }

std::vector<int> components(const Graph& g, const IdSet& failed) {
  std::vector<int> comp(static_cast<size_t>(g.num_vertices()), -1);
  int label = 0;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    if (comp[static_cast<size_t>(start)] != -1) continue;
    std::vector<VertexId> stack{start};
    comp[static_cast<size_t>(start)] = label;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (EdgeId e : g.incident_edges(v)) {
        if (failed.contains(e)) continue;
        const VertexId w = g.other_endpoint(e, v);
        if (comp[static_cast<size_t>(w)] == -1) {
          comp[static_cast<size_t>(w)] = label;
          stack.push_back(w);
        }
      }
    }
    ++label;
  }
  return comp;
}

std::vector<VertexId> component_of(const Graph& g, VertexId v, const IdSet& failed) {
  const auto comp = components(g, failed);
  std::vector<VertexId> out;
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    if (comp[static_cast<size_t>(w)] == comp[static_cast<size_t>(v)]) out.push_back(w);
  }
  return out;
}

std::vector<int> bfs_distances(const Graph& g, VertexId src, const IdSet& failed) {
  std::vector<int> dist(static_cast<size_t>(g.num_vertices()), -1);
  std::deque<VertexId> queue{src};
  dist[static_cast<size_t>(src)] = 0;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (EdgeId e : g.incident_edges(v)) {
      if (failed.contains(e)) continue;
      const VertexId w = g.other_endpoint(e, v);
      if (dist[static_cast<size_t>(w)] == -1) {
        dist[static_cast<size_t>(w)] = dist[static_cast<size_t>(v)] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

std::optional<int> distance(const Graph& g, VertexId u, VertexId v, const IdSet& failed) {
  const int d = bfs_distances(g, u, failed)[static_cast<size_t>(v)];
  if (d < 0) return std::nullopt;
  return d;
}

DistanceTable::DistanceTable(const Graph& g)
    : n_(static_cast<size_t>(g.num_vertices())), dist_(n_ * n_) {
  const IdSet none = g.empty_edge_set();
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto row = bfs_distances(g, s, none);
    std::copy(row.begin(), row.end(), dist_.begin() + static_cast<ptrdiff_t>(n_) * s);
  }
  edge_u_.reserve(static_cast<size_t>(g.num_edges()));
  edge_v_.reserve(static_cast<size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edge_u_.push_back(g.edge(e).u);
    edge_v_.push_back(g.edge(e).v);
  }
}

bool DistanceTable::on_shortest_path(const IdSet& failed, VertexId s, VertexId t) const {
  // Undirected distances are symmetric, so dist(b, t) reads row t: the whole
  // test touches the two rows of s and t only.
  const int32_t* from_s = &dist_[static_cast<size_t>(s) * n_];
  const int32_t* from_t = &dist_[static_cast<size_t>(t) * n_];
  const int32_t d = from_s[t];
  for (uint32_t wi = 0; wi < failed.num_words(); ++wi) {
    for (uint64_t w = failed.word(wi); w != 0; w &= w - 1) {
      const auto e = static_cast<size_t>(wi * 64 + static_cast<uint32_t>(__builtin_ctzll(w)));
      const VertexId a = edge_u_[e];
      const VertexId b = edge_v_[e];
      // An endpoint outside the s-t component reads -1 on both of its sides
      // and makes the sum negative, never d >= 0.
      if (from_s[a] + 1 + from_t[b] == d || from_s[b] + 1 + from_t[a] == d) return true;
    }
  }
  return false;
}

std::optional<std::vector<VertexId>> shortest_path(const Graph& g, VertexId u, VertexId v,
                                                   const IdSet& failed) {
  if (u == v) return std::vector<VertexId>{u};
  const auto parent = bfs_parents(g, u, failed);
  if (parent[static_cast<size_t>(v)] == kNoEdge) return std::nullopt;
  std::vector<VertexId> path{v};
  VertexId cur = v;
  while (cur != u) {
    cur = g.other_endpoint(parent[static_cast<size_t>(cur)], cur);
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

namespace {

/// Unit-capacity max flow between s and t over alive edges. Each undirected
/// edge becomes a pair of arcs with capacity 1 each (an undirected edge can
/// carry one unit in one direction net). Edmonds-Karp; graphs here are small.
class UnitFlow {
 public:
  UnitFlow(const Graph& g, const IdSet& failed) : g_(g) {
    // residual[e][0]: capacity u->v remaining; residual[e][1]: v->u.
    residual_.assign(static_cast<size_t>(g.num_edges()), {1, 1});
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (failed.contains(e)) residual_[static_cast<size_t>(e)] = {0, 0};
    }
  }

  int max_flow(VertexId s, VertexId t, int stop_at = std::numeric_limits<int>::max()) {
    int flow = 0;
    while (flow < stop_at && augment(s, t)) ++flow;
    return flow;
  }

  /// Whether a unit of flow crosses edge e in direction from->to.
  [[nodiscard]] bool carries(EdgeId e, VertexId from) const {
    const Edge& ed = g_.edge(e);
    // Flow u->v consumed residual dir 0.
    if (from == ed.u) return residual_[static_cast<size_t>(e)][0] == 0 &&
                             residual_[static_cast<size_t>(e)][1] == 2;
    return residual_[static_cast<size_t>(e)][1] == 0 && residual_[static_cast<size_t>(e)][0] == 2;
  }

  /// Net flow leaving `from` across e (1, 0, or -1).
  [[nodiscard]] int net_flow(EdgeId e, VertexId from) const {
    const Edge& ed = g_.edge(e);
    const int fwd = 1 - residual_[static_cast<size_t>(e)][0];  // along u->v
    return from == ed.u ? fwd : -fwd;
  }

 private:
  bool augment(VertexId s, VertexId t) {
    std::vector<std::pair<EdgeId, VertexId>> parent(
        static_cast<size_t>(g_.num_vertices()), {kNoEdge, kNoVertex});
    std::vector<char> seen(static_cast<size_t>(g_.num_vertices()), 0);
    std::deque<VertexId> queue{s};
    seen[static_cast<size_t>(s)] = 1;
    while (!queue.empty() && !seen[static_cast<size_t>(t)]) {
      const VertexId v = queue.front();
      queue.pop_front();
      for (EdgeId e : g_.incident_edges(v)) {
        const VertexId w = g_.other_endpoint(e, v);
        if (seen[static_cast<size_t>(w)]) continue;
        const int dir = (g_.edge(e).u == v) ? 0 : 1;
        if (residual_[static_cast<size_t>(e)][static_cast<size_t>(dir)] <= 0) continue;
        seen[static_cast<size_t>(w)] = 1;
        parent[static_cast<size_t>(w)] = {e, v};
        queue.push_back(w);
      }
    }
    if (!seen[static_cast<size_t>(t)]) return false;
    VertexId cur = t;
    while (cur != s) {
      const auto [e, from] = parent[static_cast<size_t>(cur)];
      const int dir = (g_.edge(e).u == from) ? 0 : 1;
      residual_[static_cast<size_t>(e)][static_cast<size_t>(dir)] -= 1;
      residual_[static_cast<size_t>(e)][static_cast<size_t>(1 - dir)] += 1;
      cur = from;
    }
    return true;
  }

  const Graph& g_;
  std::vector<std::array<int, 2>> residual_;
};

}  // namespace

int edge_connectivity(const Graph& g, VertexId u, VertexId v, const IdSet& failed) {
  if (u == v) return std::numeric_limits<int>::max() / 2;
  UnitFlow flow(g, failed);
  return flow.max_flow(u, v);
}

int global_edge_connectivity(const Graph& g, const IdSet& failed) {
  if (g.num_vertices() < 2) return 0;
  if (!connected(g, failed)) return 0;
  // Global edge connectivity = min over v != 0 of lambda(0, v).
  int best = std::numeric_limits<int>::max();
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    best = std::min(best, edge_connectivity(g, 0, v, failed));
    if (best == 0) break;
  }
  return best;
}

std::vector<std::vector<VertexId>> disjoint_paths(const Graph& g, VertexId u, VertexId v,
                                                  const IdSet& failed) {
  std::vector<std::vector<VertexId>> paths;
  if (u == v) return paths;
  UnitFlow flow(g, failed);
  const int k = flow.max_flow(u, v);
  // Decompose the flow into paths by repeatedly walking net-flow-out arcs.
  std::vector<char> used(static_cast<size_t>(g.num_edges()), 0);
  for (int i = 0; i < k; ++i) {
    std::vector<VertexId> path{u};
    VertexId cur = u;
    while (cur != v) {
      bool advanced = false;
      for (EdgeId e : g.incident_edges(cur)) {
        if (used[static_cast<size_t>(e)]) continue;
        if (flow.net_flow(e, cur) == 1) {
          used[static_cast<size_t>(e)] = 1;
          cur = g.other_endpoint(e, cur);
          path.push_back(cur);
          advanced = true;
          break;
        }
      }
      assert(advanced && "flow decomposition got stuck");
      if (!advanced) break;
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

namespace {

struct BridgeState {
  const Graph& g;
  const IdSet& failed;
  std::vector<int> tin, low;
  std::vector<EdgeId> found_bridges;
  std::vector<VertexId> found_cuts;
  int timer = 0;

  // Iterative Tarjan lowlink over alive edges, computing both bridges and
  // articulation points in one pass.
  void run() {
    const int n = g.num_vertices();
    tin.assign(static_cast<size_t>(n), -1);
    low.assign(static_cast<size_t>(n), -1);
    std::vector<char> is_cut(static_cast<size_t>(n), 0);

    struct Frame {
      VertexId v;
      EdgeId parent_edge;
      size_t next_index;
      int root_children;
    };

    for (VertexId root = 0; root < n; ++root) {
      if (tin[static_cast<size_t>(root)] != -1) continue;
      std::vector<Frame> stack;
      stack.push_back({root, kNoEdge, 0, 0});
      tin[static_cast<size_t>(root)] = low[static_cast<size_t>(root)] = timer++;
      int root_children = 0;
      while (!stack.empty()) {
        Frame& f = stack.back();
        const auto inc = g.incident_edges(f.v);
        if (f.next_index < inc.size()) {
          const EdgeId e = inc[f.next_index++];
          if (failed.contains(e) || e == f.parent_edge) continue;
          const VertexId w = g.other_endpoint(e, f.v);
          if (tin[static_cast<size_t>(w)] == -1) {
            tin[static_cast<size_t>(w)] = low[static_cast<size_t>(w)] = timer++;
            if (f.v == root) ++root_children;
            stack.push_back({w, e, 0, 0});
          } else {
            low[static_cast<size_t>(f.v)] =
                std::min(low[static_cast<size_t>(f.v)], tin[static_cast<size_t>(w)]);
          }
        } else {
          const Frame done = f;
          stack.pop_back();
          if (!stack.empty()) {
            Frame& p = stack.back();
            low[static_cast<size_t>(p.v)] =
                std::min(low[static_cast<size_t>(p.v)], low[static_cast<size_t>(done.v)]);
            if (low[static_cast<size_t>(done.v)] > tin[static_cast<size_t>(p.v)]) {
              found_bridges.push_back(done.parent_edge);
            }
            if (p.v != root && low[static_cast<size_t>(done.v)] >= tin[static_cast<size_t>(p.v)]) {
              is_cut[static_cast<size_t>(p.v)] = 1;
            }
          }
        }
      }
      if (root_children >= 2) is_cut[static_cast<size_t>(root)] = 1;
    }
    for (VertexId v = 0; v < n; ++v) {
      if (is_cut[static_cast<size_t>(v)]) found_cuts.push_back(v);
    }
  }
};

}  // namespace

std::vector<EdgeId> bridges(const Graph& g, const IdSet& failed) {
  BridgeState state{g, failed, {}, {}, {}, {}, 0};
  state.run();
  std::sort(state.found_bridges.begin(), state.found_bridges.end());
  return state.found_bridges;
}

std::vector<VertexId> cut_vertices(const Graph& g, const IdSet& failed) {
  BridgeState state{g, failed, {}, {}, {}, {}, 0};
  state.run();
  return state.found_cuts;
}

bool two_edge_connected(const Graph& g, const IdSet& failed) {
  return g.num_vertices() >= 2 && connected(g, failed) && bridges(g, failed).empty();
}

}  // namespace pofl
