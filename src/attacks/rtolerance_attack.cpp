#include "attacks/rtolerance_attack.hpp"

#include <algorithm>
#include <random>

#include "graph/connectivity.hpp"
#include "routing/simulator.hpp"

namespace pofl {

namespace {

enum class GadgetType { kPathRefused, kLoseOrbit, kTrap, kLoseCycle, kPurePath };

struct GadgetPlan {
  GadgetType type;
  std::vector<std::pair<VertexId, VertexId>> alive;  // links kept inside/around the gadget
  VertexId entry;                                    // the node s keeps a link to
};

/// Local view where every incident link of `at` is failed except those to
/// `alive_neighbors`.
IdSet local_view(const Graph& g, VertexId at, const std::vector<VertexId>& alive_neighbors) {
  IdSet f = g.incident_edge_set(at);
  for (VertexId w : alive_neighbors) {
    const auto e = g.edge_between(at, w);
    if (e.has_value()) f.erase(*e);
  }
  return f;
}

/// What the pattern outputs at `at` (arriving from `from`) under the given
/// view; kNoVertex if it drops or bounces anywhere other than a neighbor.
/// The pattern sees the header the simulated walk shows it, so the plan and
/// the walk that verifies it agree.
VertexId probe(const Graph& g, const ForwardingPattern& pattern, VertexId at, VertexId from,
               const std::vector<VertexId>& alive_neighbors, const Header& header) {
  const IdSet view = local_view(g, at, alive_neighbors);
  const auto inport = from == kNoVertex ? kNoEdge : *g.edge_between(from, at);
  const auto out = pattern.forward(g, at, inport, view, visible_header(pattern, header));
  if (!out.has_value()) return kNoVertex;
  return g.other_endpoint(*out, at);
}

/// Classifies one 5-node gadget following the Theorem 1 case analysis.
GadgetPlan plan_gadget(const Graph& g, const ForwardingPattern& pattern, VertexId s, VertexId t,
                       const std::vector<VertexId>& nodes, const Header& header) {
  // Case A: a degree-2 middle node refuses to relay.
  for (VertexId a : nodes) {
    for (VertexId b : nodes) {
      for (VertexId c : nodes) {
        if (a == b || b == c || a == c) continue;
        if (probe(g, pattern, b, a, {a, c}, header) != c) {
          return GadgetPlan{GadgetType::kPathRefused,
                            {{s, a}, {a, b}, {b, c}, {c, t}},
                            a};
        }
      }
    }
  }
  // All degree-2 relays conform. Probe the hub v2's orbit from v1.
  const VertexId v1 = nodes[0], v2 = nodes[1];
  const std::vector<VertexId> spokes{nodes[2], nodes[3], nodes[4]};
  const std::vector<VertexId> hub_alive{v1, nodes[2], nodes[3], nodes[4]};
  std::vector<VertexId> orbit;
  VertexId cur = v1;
  for (int step = 0; step < 8; ++step) {
    const VertexId nxt = probe(g, pattern, v2, cur, hub_alive, header);
    if (nxt == kNoVertex) break;  // drop: the orbit dead-ends
    if (std::find(orbit.begin(), orbit.end(), nxt) != orbit.end()) break;
    if (nxt == v1 && static_cast<int>(orbit.size()) == 3) break;  // full cycle closes
    orbit.push_back(nxt);
    cur = nxt;
  }
  const auto reached = [&](VertexId y) {
    return std::find(orbit.begin(), orbit.end(), y) != orbit.end();
  };
  for (VertexId y : spokes) {
    if (!reached(y)) {
      return GadgetPlan{GadgetType::kLoseOrbit,
                        {{s, v1}, {v1, v2}, {v2, spokes[0]}, {v2, spokes[1]}, {v2, spokes[2]},
                         {y, t}},
                        v1};
    }
  }
  if (!reached(v1) && probe(g, pattern, v2, orbit.back(), hub_alive, header) != v1) {
    // The orbit covers the spokes but never hands the packet back to v1.
    return GadgetPlan{GadgetType::kTrap,
                      {{s, v1}, {v1, v2}, {v2, spokes[0]}, {v2, spokes[1]}, {v2, spokes[2]}},
                      v1};
  }
  // Full cycle v1 -> x -> y -> z -> v1.
  const VertexId x = orbit[0], y = orbit[1], z = orbit[2];
  return GadgetPlan{GadgetType::kLoseCycle,
                    {{s, v1}, {v1, v2}, {v2, x}, {v2, y}, {v2, z}, {x, z}, {y, t}},
                    v1};
}

GadgetPlan pure_path_plan(VertexId s, VertexId t, const std::vector<VertexId>& nodes) {
  return GadgetPlan{GadgetType::kPurePath,
                    {{s, nodes[0]}, {nodes[0], nodes[1]}, {nodes[1], nodes[2]}, {nodes[2], t}},
                    nodes[0]};
}

}  // namespace

std::optional<RToleranceAttackResult> attack_r_tolerance(const Graph& g,
                                                         const ForwardingPattern& pattern,
                                                         VertexId s, VertexId t, int r,
                                                         uint64_t seed, int max_restarts) {
  std::vector<VertexId> others;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != s && v != t) others.push_back(v);
  }
  if (static_cast<int>(others.size()) < 5 * r + 1) return std::nullopt;

  const Header header{s, t};
  std::mt19937_64 rng(seed);
  for (int restart = 0; restart < max_restarts; ++restart) {
    std::shuffle(others.begin(), others.end(), rng);
    const VertexId spare = others[static_cast<size_t>(5 * r)];

    std::vector<std::vector<VertexId>> gadget_nodes;
    for (int k = 0; k < r; ++k) {
      gadget_nodes.emplace_back(others.begin() + 5 * k, others.begin() + 5 * (k + 1));
    }
    std::vector<GadgetPlan> plans;
    int traps = 0;
    for (const auto& nodes : gadget_nodes) {
      plans.push_back(plan_gadget(g, pattern, s, t, nodes, header));
      if (plans.back().type == GadgetType::kTrap) ++traps;
    }
    // A static failure set can host at most one effective trap: demote all
    // but the first to pure paths (the packet never reaches them, but their
    // path must survive to honor the connectivity promise). If the demotion
    // picks the wrong "first", verification fails and we re-shuffle.
    if (traps > 1) {
      bool kept = false;
      for (size_t k = 0; k < plans.size(); ++k) {
        if (plans[k].type != GadgetType::kTrap) continue;
        if (!kept) {
          kept = true;
          continue;
        }
        plans[k] = pure_path_plan(s, t, gadget_nodes[k]);
      }
      traps = 1;
    }

    // Assemble the failure set: everything failed except the gadget alive
    // sets, (s, spare), and — when a trap needs backing — (spare, t).
    IdSet failures = g.empty_edge_set();
    for (EdgeId e = 0; e < g.num_edges(); ++e) failures.insert(e);
    const auto keep = [&](VertexId u, VertexId v) {
      if (const auto e = g.edge_between(u, v)) failures.erase(*e);
    };
    for (const auto& plan : plans) {
      for (const auto& [u, v] : plan.alive) keep(u, v);
    }
    keep(s, spare);
    if (traps > 0) keep(spare, t);

    // End-to-end verification: the promise must hold and the packet must
    // not arrive.
    if (edge_connectivity(g, s, t, failures) < r) continue;
    const RoutingResult result = route_packet(g, pattern, failures, s, header);
    if (result.outcome == RoutingOutcome::kDelivered) continue;
    return RToleranceAttackResult{Defeat{failures, s, t, result}, restart + 1, traps};
  }
  return std::nullopt;
}

}  // namespace pofl
