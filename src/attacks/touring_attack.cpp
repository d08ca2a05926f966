#include "attacks/touring_attack.hpp"

#include <algorithm>
#include <cassert>

#include "routing/simulator.hpp"

namespace pofl {

MinDefeatResult attack_touring(const Graph& g, const ForwardingPattern& pattern) {
  // The Lemma 3/4 constructions defeat conforming patterns with <= 2 link
  // failures (Fig. 12: two, Fig. 13: one); non-conforming patterns fall to
  // the Lemma 1 sets, all of which the full-budget search covers.
  MinDefeatResult defeat = min_touring_defeat_search(g, pattern, /*max_budget=*/2);
  // The bounded search can already prove perfect resilience (every budget
  // prune tracked): no need to rerun at full budget then.
  if (defeat.defeated() || defeat.status == MinDefeatStatus::kPerfectlyResilient) return defeat;
  return min_touring_defeat_search(g, pattern, g.num_edges());
}

namespace {

/// One (node, local-view) decision: the alive ports arranged in a cycle plus
/// the origin port.
struct ViewChoice {
  std::vector<EdgeId> cycle;  // alive incident edges in cyclic order
  EdgeId start = kNoEdge;     // out-port for the origin (bottom) in-port
};

/// All Lemma-1-conforming choices for one (node, failure-mask) state.
std::vector<ViewChoice> choices_for_view(const Graph& g, VertexId v, uint32_t failed_mask) {
  const auto inc = g.incident_edges(v);
  std::vector<EdgeId> alive;
  for (size_t i = 0; i < inc.size(); ++i) {
    if (!(failed_mask >> i & 1u)) alive.push_back(inc[i]);
  }
  std::vector<ViewChoice> out;
  if (alive.empty()) {
    out.push_back(ViewChoice{});
    return out;
  }
  // Cyclic orders: fix alive[0] first, permute the rest.
  std::vector<EdgeId> rest(alive.begin() + 1, alive.end());
  std::sort(rest.begin(), rest.end());
  do {
    std::vector<EdgeId> cycle{alive[0]};
    cycle.insert(cycle.end(), rest.begin(), rest.end());
    for (EdgeId start : alive) {
      out.push_back(ViewChoice{cycle, start});
    }
  } while (std::next_permutation(rest.begin(), rest.end()));
  return out;
}

/// Touring pattern defined by one ViewChoice per (node, view).
class EnumeratedTouringPattern final : public ForwardingPattern {
 public:
  EnumeratedTouringPattern(const Graph& g,
                           const std::vector<std::vector<std::vector<ViewChoice>>>* options,
                           const std::vector<std::vector<size_t>>* selection)
      : options_(options), selection_(selection) {
    (void)g;
  }

  [[nodiscard]] RoutingModel model() const override { return RoutingModel::kTouring; }
  [[nodiscard]] std::string name() const override { return "enumerated-cyclic"; }

  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                              const IdSet& local_failures,
                                              const Header& /*header*/) const override {
    const auto inc = g.incident_edges(at);
    uint32_t mask = 0;
    for (size_t i = 0; i < inc.size(); ++i) {
      if (local_failures.contains(inc[i])) mask |= (uint32_t{1} << i);
    }
    const auto& choice =
        (*options_)[static_cast<size_t>(at)][mask][(*selection_)[static_cast<size_t>(at)][mask]];
    if (choice.cycle.empty()) return std::nullopt;
    if (inport == kNoEdge) return choice.start;
    for (size_t i = 0; i < choice.cycle.size(); ++i) {
      if (choice.cycle[i] == inport) return choice.cycle[(i + 1) % choice.cycle.size()];
    }
    return std::nullopt;  // in-port failed in this view: unreachable state
  }

 private:
  const std::vector<std::vector<std::vector<ViewChoice>>>* options_;
  const std::vector<std::vector<size_t>>* selection_;
};

}  // namespace

TouringProverResult prove_touring_impossible(const Graph& g) {
  const int n = g.num_vertices();
  // options[v][mask] = conforming choices for that local view.
  std::vector<std::vector<std::vector<ViewChoice>>> options(static_cast<size_t>(n));
  std::vector<std::vector<size_t>> selection(static_cast<size_t>(n));
  std::vector<std::pair<VertexId, uint32_t>> slots;  // odometer digit order
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t views = uint32_t{1} << g.degree(v);
    options[static_cast<size_t>(v)].resize(views);
    selection[static_cast<size_t>(v)].assign(views, 0);
    for (uint32_t mask = 0; mask < views; ++mask) {
      options[static_cast<size_t>(v)][mask] = choices_for_view(g, v, mask);
      if (options[static_cast<size_t>(v)][mask].size() > 1) slots.emplace_back(v, mask);
    }
  }
  // Symmetry reduction: pin vertex 0's all-alive view to its first choice
  // (vertex relabeling maps any surviving pattern onto a pinned one).
  std::erase_if(slots, [](const auto& s) { return s.first == 0 && s.second == 0; });

  EnumeratedTouringPattern pattern(g, &options, &selection);

  // Failure sets ordered by size: small sets defeat most patterns instantly.
  std::vector<IdSet> failure_sets;
  {
    std::vector<uint64_t> masks;
    for (uint64_t m = 0; m < (uint64_t{1} << g.num_edges()); ++m) masks.push_back(m);
    std::sort(masks.begin(), masks.end(), [](uint64_t a, uint64_t b) {
      const int pa = __builtin_popcountll(a), pb = __builtin_popcountll(b);
      if (pa != pb) return pa < pb;
      return a < b;
    });
    for (uint64_t m : masks) {
      IdSet f = g.empty_edge_set();
      for (int b = 0; b < g.num_edges(); ++b) {
        if (m >> b & 1) f.insert(b);
      }
      failure_sets.push_back(std::move(f));
    }
  }

  TouringProverResult result;
  bool survivor = false;
  const SimContext ctx(g);
  RoutingWorkspace ws;
  while (true) {
    ++result.patterns_enumerated;
    bool defeated = false;
    for (const IdSet& f : failure_sets) {
      for (VertexId v = 0; v < n && !defeated; ++v) {
        if (!tour_packet_fast(ctx, pattern, f, v, ws).success) defeated = true;
      }
      if (defeated) break;
    }
    if (defeated) {
      ++result.patterns_defeated;
    } else {
      survivor = true;
      break;
    }
    // Odometer increment.
    size_t d = 0;
    for (; d < slots.size(); ++d) {
      auto& sel = selection[static_cast<size_t>(slots[d].first)][slots[d].second];
      if (++sel < options[static_cast<size_t>(slots[d].first)][slots[d].second].size()) break;
      sel = 0;
    }
    if (d == slots.size()) break;  // odometer wrapped: enumeration complete
  }
  result.impossibility_established = !survivor;
  return result;
}

}  // namespace pofl
