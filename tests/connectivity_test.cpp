#include "graph/connectivity.hpp"

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "graph/builders.hpp"
#include "synth/fat_tree.hpp"

namespace pofl {
namespace {

TEST(Connectivity, ConnectedBasics) {
  const Graph g = make_path(4);
  EXPECT_TRUE(connected(g));
  IdSet cut = g.empty_edge_set();
  cut.insert(1);  // middle edge
  EXPECT_FALSE(connected(g, cut));
  EXPECT_TRUE(connected(g, 0, 1, cut));
  EXPECT_FALSE(connected(g, 0, 3, cut));
}

TEST(Connectivity, Components) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const auto comp = components(g, g.empty_edge_set());
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[2]);
  EXPECT_EQ(component_of(g, 3, g.empty_edge_set()), (std::vector<VertexId>{2, 3, 4}));
}

TEST(Connectivity, Distances) {
  const Graph g = make_cycle(6);
  const auto dist = bfs_distances(g, 0, g.empty_edge_set());
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[5], 1);
  EXPECT_EQ(distance(g, 0, 3, g.empty_edge_set()), std::optional<int>(3));
  IdSet f = g.empty_edge_set();
  f.insert(*g.edge_between(0, 5));
  EXPECT_EQ(distance(g, 0, 5, f), std::optional<int>(5));
}

TEST(Connectivity, ShortestPathEndpoints) {
  const Graph g = make_grid(4, 4);
  const auto path = shortest_path(g, 0, 15, g.empty_edge_set());
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), 0);
  EXPECT_EQ(path->back(), 15);
  EXPECT_EQ(static_cast<int>(path->size()), 7);  // 6 hops
  for (size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(g.has_edge((*path)[i], (*path)[i + 1]));
  }
}

TEST(Connectivity, EdgeConnectivityComplete) {
  const Graph k5 = make_complete(5);
  EXPECT_EQ(edge_connectivity(k5, 0, 4, k5.empty_edge_set()), 4);
  EXPECT_EQ(global_edge_connectivity(k5, k5.empty_edge_set()), 4);
}

TEST(Connectivity, EdgeConnectivityAfterFailures) {
  const Graph k5 = make_complete(5);
  const IdSet f = failures_between(k5, {{0, 4}, {0, 3}});
  EXPECT_EQ(edge_connectivity(k5, 0, 4, f), 2);
}

TEST(Connectivity, DisjointPathsAreDisjointAndValid) {
  const Graph k6 = make_complete(6);
  const auto paths = disjoint_paths(k6, 0, 5, k6.empty_edge_set());
  EXPECT_EQ(paths.size(), 5u);
  IdSet used = k6.empty_edge_set();
  for (const auto& p : paths) {
    EXPECT_EQ(p.front(), 0);
    EXPECT_EQ(p.back(), 5);
    for (size_t i = 0; i + 1 < p.size(); ++i) {
      const auto e = k6.edge_between(p[i], p[i + 1]);
      ASSERT_TRUE(e.has_value());
      EXPECT_FALSE(used.contains(*e)) << "edge reused across paths";
      used.insert(*e);
    }
  }
}

TEST(Connectivity, MengerAgreementRandomGraphs) {
  // Property: max-flow value equals the number of extracted disjoint paths.
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 6 + static_cast<int>(rng() % 8);
    const int extra = static_cast<int>(rng() % 12);
    const Graph g = make_random_connected(n, std::min(n - 1 + extra, n * (n - 1) / 2), rng());
    const VertexId s = 0;
    const VertexId t = n - 1;
    const int k = edge_connectivity(g, s, t, g.empty_edge_set());
    const auto paths = disjoint_paths(g, s, t, g.empty_edge_set());
    EXPECT_EQ(static_cast<int>(paths.size()), k);
  }
}

TEST(Connectivity, BridgesOnPathAndCycle) {
  const Graph p = make_path(5);
  EXPECT_EQ(bridges(p, p.empty_edge_set()).size(), 4u);
  const Graph c = make_cycle(5);
  EXPECT_TRUE(bridges(c, c.empty_edge_set()).empty());
  // Cycle with one failure: every surviving edge is a bridge.
  IdSet f = c.empty_edge_set();
  f.insert(0);
  EXPECT_EQ(bridges(c, f).size(), 4u);
}

TEST(Connectivity, CutVertices) {
  // Two triangles sharing vertex 2.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(2, 4);
  EXPECT_EQ(cut_vertices(g, g.empty_edge_set()), std::vector<VertexId>{2});
  const Graph k4 = make_complete(4);
  EXPECT_TRUE(cut_vertices(k4, k4.empty_edge_set()).empty());
}

TEST(Connectivity, TwoEdgeConnected) {
  EXPECT_TRUE(two_edge_connected(make_cycle(4), make_cycle(4).empty_edge_set()));
  EXPECT_FALSE(two_edge_connected(make_path(4), make_path(4).empty_edge_set()));
}

TEST(Connectivity, GlobalEdgeConnectivityBipartite) {
  const Graph k34 = make_complete_bipartite(3, 4);
  EXPECT_EQ(global_edge_connectivity(k34, k34.empty_edge_set()), 3);
}

/// Every failure set of at most two links, on graphs small enough to walk.
std::vector<IdSet> failure_sets_up_to_two(const Graph& g) {
  std::vector<IdSet> sets{g.empty_edge_set()};
  for (EdgeId a = 0; a < g.num_edges(); ++a) {
    IdSet one = g.empty_edge_set();
    one.insert(a);
    sets.push_back(one);
    for (EdgeId b = a + 1; b < g.num_edges(); ++b) {
      IdSet two = one;
      two.insert(b);
      sets.push_back(std::move(two));
    }
  }
  return sets;
}

TEST(DistanceTable, EntriesAreFailureFreeDistances) {
  const Graph g = make_fat_tree(4);
  const DistanceTable table(g);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto row = bfs_distances(g, s, g.empty_edge_set());
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      ASSERT_EQ(table(s, t), row[static_cast<size_t>(t)]) << s << "," << t;
    }
  }
}

TEST(DistanceTable, OffShortestPathFailuresKeepTheDistance) {
  // The stretch tier-2 contract, exhaustively over |F| <= 2 and every pair:
  // whenever no failed link lies on a shortest s-t path of G, the surviving
  // distance is the failure-free one. And the test is not vacuous: both
  // answers occur, and a failure set that lengthens the distance always
  // reports a link on a shortest path.
  for (const Graph& g : {make_fat_tree(4), make_complete_bipartite(3, 3)}) {
    const DistanceTable table(g);
    int off = 0;
    int on = 0;
    for (const IdSet& failures : failure_sets_up_to_two(g)) {
      for (VertexId s = 0; s < g.num_vertices(); ++s) {
        for (VertexId t = 0; t < g.num_vertices(); ++t) {
          const auto d = distance(g, s, t, failures);
          if (table.on_shortest_path(failures, s, t)) {
            ++on;
            continue;
          }
          ++off;
          ASSERT_TRUE(d.has_value()) << s << "," << t;
          ASSERT_EQ(*d, table(s, t)) << s << "," << t;
        }
      }
    }
    EXPECT_GT(off, 0);
    EXPECT_GT(on, 0);
  }
}

TEST(DistanceTable, DisconnectedPairsReadMinusOneAndNeverMatch) {
  // Two components: a 5-cycle on 0..4 and a 4-cycle on 5..8. Cross pairs
  // read -1, and failures in the other component never count as lying on a
  // shortest path (their -1 entries cannot sum to a real distance).
  Graph g(9);
  for (VertexId v = 0; v < 5; ++v) (void)g.add_edge(v, (v + 1) % 5);
  for (VertexId v = 5; v < 9; ++v) (void)g.add_edge(v, v == 8 ? 5 : v + 1);
  const DistanceTable table(g);
  EXPECT_EQ(table(0, 6), -1);
  EXPECT_EQ(table(7, 2), -1);
  EXPECT_EQ(table(0, 2), 2);
  EXPECT_EQ(table(5, 7), 2);
  IdSet far = g.empty_edge_set();
  for (EdgeId e = 5; e < g.num_edges(); ++e) far.insert(e);
  EXPECT_FALSE(table.on_shortest_path(far, 0, 2));
  IdSet near = g.empty_edge_set();
  near.insert(*g.edge_between(0, 1));
  EXPECT_TRUE(table.on_shortest_path(near, 0, 2));
}

}  // namespace
}  // namespace pofl
