// The routing-decision cache keys a transition by the header fields the
// pattern reads. These tests pin both sides of that contract:
//
//   * a pattern whose reads_source() is false forwards alike for every
//     source (and for none), checked exhaustively on small graphs;
//   * patterns that do read the source say so;
//   * a pattern that claims false but reads the source anyway cannot tell
//     the scalar and group cores apart, because both hide the source;
//   * on the fat-tree |F| <= 1 stream, the source-destination shortest-path
//     pattern fills exactly as many cache entries as its destination-only
//     twin, with no insert refused at the capacity cap — and so do their
//     minor-adapted forms, which pass on the inner pattern's reads_source().

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "graph/builders.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "resilience/k33_source.hpp"
#include "routing/minor_adapt.hpp"
#include "routing/simulator.hpp"
#include "sim/scenario.hpp"
#include "synth/fat_tree.hpp"

namespace pofl {
namespace {

/// Every local failure set of at most two of `at`'s incident links.
std::vector<IdSet> small_local_masks(const Graph& g, VertexId at) {
  const auto inc = g.incident_edges(at);
  std::vector<IdSet> masks;
  masks.push_back(g.empty_edge_set());
  for (size_t i = 0; i < inc.size(); ++i) {
    IdSet one = g.empty_edge_set();
    one.insert(inc[i]);
    masks.push_back(one);
    for (size_t j = i + 1; j < inc.size(); ++j) {
      IdSet two = one;
      two.insert(inc[j]);
      masks.push_back(std::move(two));
    }
  }
  return masks;
}

/// Fails the test at the first (at, inport, local mask, destination) where
/// forward() answers differently for some source than for no source.
void expect_source_blind(const Graph& g, const ForwardingPattern& pattern) {
  for (VertexId at = 0; at < g.num_vertices(); ++at) {
    std::vector<EdgeId> inports{kNoEdge};
    for (EdgeId e : g.incident_edges(at)) inports.push_back(e);
    for (const IdSet& local : small_local_masks(g, at)) {
      for (const EdgeId inport : inports) {
        for (VertexId t = 0; t < g.num_vertices(); ++t) {
          const std::optional<EdgeId> blind =
              pattern.forward(g, at, inport, local, Header{kNoVertex, t});
          for (VertexId s = 0; s < g.num_vertices(); ++s) {
            ASSERT_EQ(pattern.forward(g, at, inport, local, Header{s, t}), blind)
                << pattern.name() << " (" << to_string(pattern.model()) << ") at=" << at
                << " inport=" << inport << " t=" << t << " s=" << s;
          }
        }
      }
    }
  }
}

TEST(PatternReadsSource, SourceBlindPatternsForwardAlikeForEverySource) {
  const Graph graphs[] = {make_complete(5), make_fat_tree(4),
                          make_outerplanar_plus_hubs(12, 1, /*seed=*/3)};
  for (const Graph& g : graphs) {
    std::vector<std::unique_ptr<ForwardingPattern>> patterns =
        make_pattern_corpus(RoutingModel::kSourceDestination, g, /*random_variants=*/2);
    // The source-blind families claim false in every model, not just by
    // the destination-only and touring models' default.
    for (const RoutingModel model : {RoutingModel::kDestinationOnly, RoutingModel::kTouring}) {
      patterns.push_back(make_id_cyclic_pattern(model));
      patterns.push_back(make_random_cyclic_pattern(model, g, /*seed=*/11));
      patterns.push_back(make_shortest_path_pattern(model, g));
      patterns.push_back(make_bounce_shy_pattern(model, g));
    }
    int checked = 0;
    for (const auto& pattern : patterns) {
      if (pattern->reads_source()) continue;
      expect_source_blind(g, *pattern);
      if (HasFatalFailure()) return;
      ++checked;
    }
    // id-cyclic, shortest-path, bounce-shy and two random-cyclic variants
    // in the source-destination corpus, plus 4 per extra model.
    EXPECT_EQ(checked, 5 + 8);
  }
}

TEST(PatternReadsSource, SourceReadingPatternsSayTheyDo) {
  const Graph k5 = make_complete(5);
  EXPECT_TRUE(make_random_stateless_pattern(RoutingModel::kSourceDestination, 1)->reads_source());
  EXPECT_TRUE(make_algorithm1_k5()->reads_source());
  EXPECT_TRUE(make_k33_source_pattern()->reads_source());
  // A destination-only pattern never sees the source, whatever it hashes.
  EXPECT_FALSE(make_random_stateless_pattern(RoutingModel::kDestinationOnly, 1)->reads_source());
  EXPECT_FALSE(make_shortest_path_pattern(RoutingModel::kSourceDestination, k5)->reads_source());
}

/// Claims not to read the source but steers by it: with the source visible
/// it leaves through its (source mod alive-degree)-th alive port, without
/// it through the first. Records whether forward() ever saw a source.
class SourceLiar final : public ForwardingPattern {
 public:
  mutable bool saw_source = false;
  [[nodiscard]] RoutingModel model() const override { return RoutingModel::kSourceDestination; }
  [[nodiscard]] std::string name() const override { return "source-liar"; }
  [[nodiscard]] bool reads_source() const override { return false; }
  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId,
                                              const IdSet& local_failures,
                                              const Header& h) const override {
    if (h.source != kNoVertex) saw_source = true;
    if (const auto direct = g.edge_between(at, h.destination)) {
      if (!local_failures.contains(*direct)) return direct;
    }
    const std::vector<EdgeId> alive = g.alive_incident_edges(at, local_failures);
    if (alive.empty()) return std::nullopt;
    const size_t pick = h.source == kNoVertex ? 0 : static_cast<size_t>(h.source);
    return alive[pick % alive.size()];
  }
};

TEST(PatternReadsSource, ScalarAndGroupCoresBothHideAnUnreadSource) {
  const Graph g = make_fat_tree(4);
  const SourceLiar liar;
  const SimContext ctx(g);
  RoutingWorkspace group_ws;
  RoutingWorkspace scalar_ws;
  const auto pairs = all_ordered_pairs(g);
  std::vector<VertexId> src, dst;
  for (const auto& [s, t] : pairs) {
    src.push_back(s);
    dst.push_back(t);
  }
  std::vector<FastRouteResult> results(pairs.size());
  std::vector<IdSet> sets{g.empty_edge_set()};
  for (EdgeId e = 0; e < g.num_edges(); e += 3) {
    IdSet f = g.empty_edge_set();
    f.insert(e);
    f.insert((e + 7) % g.num_edges());
    sets.push_back(std::move(f));
  }
  for (const IdSet& failures : sets) {
    const IdSet* fsets[1] = {&failures};
    (void)route_groups_fast(ctx, liar, fsets, nullptr, src.data(), dst.data(),
                            static_cast<int>(src.size()), group_ws, results.data());
    for (size_t i = 0; i < src.size(); ++i) {
      const RoutingResult scalar = route_packet(ctx, liar, failures, src[i],
                                                Header{src[i], dst[i]}, scalar_ws);
      ASSERT_EQ(results[i].outcome, scalar.outcome) << "s=" << src[i] << " t=" << dst[i];
      ASSERT_EQ(results[i].hops, scalar.hops) << "s=" << src[i] << " t=" << dst[i];
    }
  }
  EXPECT_FALSE(liar.saw_source);
}

/// Routes every scenario of the |F| <= 1 stream of `ft` (a fat tree) over
/// all ordered pairs through `ws`, one route_groups_fast call per batch.
void route_fat_tree_stream(const Graph& ft, const ForwardingPattern& pattern,
                           RoutingWorkspace& ws) {
  const SimContext ctx(ft);
  ExhaustiveFailureSource source(ft, 1, all_ordered_pairs(ft));
  ScenarioBatch batch;
  std::vector<const IdSet*> fsets;
  std::vector<int32_t> ord;
  std::vector<VertexId> src, dst;
  while (const int n = source.next_batch(4096, batch)) {
    fsets.clear();
    for (int grp = 0; grp < batch.num_groups(); ++grp) {
      fsets.push_back(&batch.group_failures(grp));
    }
    ord.resize(static_cast<size_t>(n));
    src.resize(static_cast<size_t>(n));
    dst.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      ord[static_cast<size_t>(i)] = batch.group_of(i);
      src[static_cast<size_t>(i)] = batch.source(i);
      dst[static_cast<size_t>(i)] = batch.destination(i);
    }
    (void)route_groups_fast(ctx, pattern, fsets.data(), ord.data(), src.data(), dst.data(), n,
                            ws);
  }
}

TEST(DecisionCache, SourceBlindPatternHoldsOneEntryPerDestination) {
  const Graph ft = make_fat_tree(6);
  const auto sd = make_shortest_path_pattern(RoutingModel::kSourceDestination, ft);
  const auto dest_only = make_shortest_path_pattern(RoutingModel::kDestinationOnly, ft);
  RoutingWorkspace sd_ws;
  RoutingWorkspace dest_only_ws;
  route_fat_tree_stream(ft, *sd, sd_ws);
  route_fat_tree_stream(ft, *dest_only, dest_only_ws);
  EXPECT_GT(dest_only_ws.decision_cache_entries(), 0u);
  EXPECT_EQ(sd_ws.decision_cache_entries(), dest_only_ws.decision_cache_entries());
  EXPECT_EQ(sd_ws.decision_cache_dropped(), 0);
  EXPECT_EQ(dest_only_ws.decision_cache_dropped(), 0);

  // A pattern that reads the source keys by (source, destination): the same
  // stream fills more entries, and a new pattern identity flushes the
  // counters.
  const auto stateless = make_random_stateless_pattern(RoutingModel::kSourceDestination, 5);
  route_fat_tree_stream(ft, *stateless, sd_ws);
  EXPECT_GT(sd_ws.decision_cache_entries(), dest_only_ws.decision_cache_entries());
  EXPECT_EQ(sd_ws.decision_cache_dropped(), 0);
}

TEST(DecisionCache, MinorAdaptedPatternKeepsItsInnerSourceBlindness) {
  // Deleting one link and contracting another keeps the shortest-path
  // pattern source-blind: the adapted source-destination pattern fills as
  // many entries as its adapted destination-only twin.
  const Graph ft = make_fat_tree(4);
  std::shared_ptr<const ForwardingPattern> sd =
      make_shortest_path_pattern(RoutingModel::kSourceDestination, ft);
  std::shared_ptr<const ForwardingPattern> dest_only =
      make_shortest_path_pattern(RoutingModel::kDestinationOnly, ft);
  IdSet deleted = ft.empty_edge_set();
  deleted.insert(0);
  const Graph reduced = ft.without_edges(deleted);
  for (const bool contract : {false, true}) {
    const auto adapt = [&](std::shared_ptr<const ForwardingPattern> inner) {
      return contract ? adapt_to_contraction(std::move(inner), ft, 0)
                      : adapt_to_edge_deletion(std::move(inner), ft, deleted);
    };
    const Graph minor = contract ? ft.contracted(0) : reduced;
    const auto sd_minor = adapt(sd);
    const auto dest_only_minor = adapt(dest_only);
    EXPECT_FALSE(sd_minor->reads_source());
    RoutingWorkspace sd_ws;
    RoutingWorkspace dest_only_ws;
    route_fat_tree_stream(minor, *sd_minor, sd_ws);
    route_fat_tree_stream(minor, *dest_only_minor, dest_only_ws);
    EXPECT_GT(dest_only_ws.decision_cache_entries(), 0u) << "contract " << contract;
    EXPECT_EQ(sd_ws.decision_cache_entries(), dest_only_ws.decision_cache_entries())
        << "contract " << contract;
  }
}

}  // namespace
}  // namespace pofl
