#include "search/min_defeat.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "attacks/pattern_corpus.hpp"
#include "graph/bitmask.hpp"
#include "graph/connectivity.hpp"
#include "graph/incremental_connectivity.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"

namespace pofl {

const char* to_string(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::kAuto:
      return "auto";
    case SearchStrategy::kEnumerate:
      return "enumerate";
  }
  return "?";
}

const char* to_string(MinDefeatStatus s) {
  switch (s) {
    case MinDefeatStatus::kDefeated:
      return "defeated";
    case MinDefeatStatus::kNoDefeatWithinBudget:
      return "no-defeat-within-budget";
    case MinDefeatStatus::kPerfectlyResilient:
      return "perfectly-resilient";
  }
  return "?";
}

namespace {

constexpr int kInfinity = std::numeric_limits<int>::max();

/// Lowest id in the set, -1 when empty (word-level ctz scan).
int lowest_id(const IdSet& s) {
  for (uint32_t w = 0; w < s.num_words(); ++w) {
    if (s.word(w) != 0) return static_cast<int>(w) * 64 + __builtin_ctzll(s.word(w));
  }
  return -1;
}

/// Mutable state shared by one search call: simulation context/workspace,
/// the promise evaluator (custom predicate > r-tolerance min-cut > rollback
/// union-find, mirroring the sweep engine's checks) and the telemetry counters.
struct SearchCtx {
  const Graph& g;
  const ForwardingPattern& pattern;
  const SearchOptions& opts;
  int budget;
  SimContext sim;
  RoutingWorkspace ws;
  std::optional<IncrementalConnectivity> inc;
  SearchTelemetry tel;
  /// Set when a bound prune discarded sets above the budget while no
  /// incumbent existed: "no defeat within budget" then cannot be upgraded
  /// to a perfect-resilience proof.
  bool budget_limited = false;

  SearchCtx(const Graph& graph, const ForwardingPattern& p, const SearchOptions& o, int b)
      : g(graph), pattern(p), opts(o), budget(b), sim(graph) {
    if (!opts.promise && opts.promise_r <= 1) inc.emplace(graph);
  }

  bool promise_holds(VertexId s, VertexId t, const IdSet& f) {
    if (opts.promise) return opts.promise(g, s, t, f);
    if (opts.promise_r > 1) return edge_connectivity(g, s, t, f) >= opts.promise_r;
    inc->move_to(f);
    return inc->connected(s, t);
  }

  /// The exact leaf predicate of enumeration: promise intact, delivery
  /// broken.
  bool defeats(VertexId s, VertexId t, const IdSet& f) {
    ++tel.leaves_verified;
    if (!promise_holds(s, t, f)) return false;
    return route_packet_fast(sim, pattern, f, s, Header{s, t}, ws).outcome !=
           RoutingOutcome::kDelivered;
  }
};

struct Incumbent {
  int size = kInfinity;
  IdSet failures;
};

/// Adopts `f` (already verified to defeat) when it beats the incumbent.
void adopt_incumbent(SearchCtx& c, Incumbent& best, const IdSet& f) {
  const int k = f.count();
  if (k > c.budget || k >= best.size) return;
  best.size = k;
  best.failures = f;
  c.tel.incumbent_trajectory.push_back(k);
}

// ---- incumbent seeding (upper bounds) --------------------------------------

/// Greedy upper-bound probe: repeatedly fail one edge of the current
/// delivered walk — keeping the promise alive — until routing breaks or the
/// budget runs out. `from_back` cuts the walk edge nearest the destination
/// first; the two directions reach different local minima.
void greedy_walk_cut(SearchCtx& c, VertexId s, VertexId t, bool from_back, Incumbent& best) {
  IdSet f = c.g.empty_edge_set();
  for (;;) {
    if (!c.promise_holds(s, t, f)) return;
    const RoutingResult r = route_packet(c.sim, c.pattern, f, s, Header{s, t}, c.ws);
    if (r.outcome != RoutingOutcome::kDelivered) {
      adopt_incumbent(c, best, f);
      return;
    }
    if (f.count() >= c.budget) return;
    const int hops = static_cast<int>(r.walk.size()) - 1;
    bool cut = false;
    for (int i = 0; i < hops && !cut; ++i) {
      const int wi = from_back ? hops - 1 - i : i;
      const std::optional<EdgeId> e = c.g.edge_between(r.walk[wi], r.walk[wi + 1]);
      if (!e.has_value() || f.contains(*e)) continue;
      f.insert(*e);
      if (c.promise_holds(s, t, f)) {
        cut = true;
      } else {
        f.erase(*e);
      }
    }
    if (!cut) return;
  }
}

void seed_pair_incumbents(SearchCtx& c, VertexId s, VertexId t, Incumbent& best) {
  if (c.opts.upper_bound_candidates != nullptr) {
    for (const IdSet& f : *c.opts.upper_bound_candidates) {
      if (f.universe_size() != c.g.num_edges()) continue;
      if (f.count() > c.budget || f.count() >= best.size) continue;
      if (c.defeats(s, t, f)) adopt_incumbent(c, best, f);
    }
  }
  if (!c.opts.seed_incumbents) return;
  greedy_walk_cut(c, s, t, false, best);
  greedy_walk_cut(c, s, t, true, best);
  // Corpus-mined incumbents pay off where enumeration is binomial in m; on
  // small graphs the search closes faster than the corpus warms up.
  if (c.g.num_edges() > 24 && !c.opts.promise) {
    for (const IdSet& f : corpus_upper_bound_candidates(c.g, c.pattern.model(), s, t, c.budget)) {
      if (f.count() >= best.size) continue;
      if (c.defeats(s, t, f)) adopt_incumbent(c, best, f);
    }
  }
}

// ---- branch and bound (phase A: prove the optimum cardinality) -------------

/// One open node: every failure set of its subtree contains all of
/// `include` and none of `exclude`.
struct BnbNode {
  IdSet include;
  IdSet exclude;
  int lb = 0;      // proven lower bound on any defeating set in the subtree
  int64_t seq = 0; // insertion order: deterministic FIFO tie-break
};

struct NodeWorse {
  bool operator()(const BnbNode& a, const BnbNode& b) const {
    if (a.lb != b.lb) return a.lb > b.lb;
    return a.seq > b.seq;
  }
};

using OpenQueue = std::priority_queue<BnbNode, std::vector<BnbNode>, NodeWorse>;

/// The pair question: a defeat keeps the promise and breaks delivery. A
/// delivered packet's cover is every edge incident to its walk — routing is
/// local, so a failure set agreeing with F on those edges routes identically.
struct PairQuestion {
  VertexId s;
  VertexId t;

  bool promise_holds(SearchCtx& c, const IdSet& f) const { return c.promise_holds(s, t, f); }
  bool survives(SearchCtx& c, const IdSet& f) const {
    return route_packet_fast(c.sim, c.pattern, f, s, Header{s, t}, c.ws).outcome ==
           RoutingOutcome::kDelivered;
  }
  /// survives(), recording the walk: on delivery `cover` holds every edge
  /// incident to it.
  bool survives(SearchCtx& c, const IdSet& f, IdSet& cover) const {
    const RoutingResult walk = route_packet(c.sim, c.pattern, f, s, Header{s, t}, c.ws);
    if (walk.outcome != RoutingOutcome::kDelivered) return false;
    cover.clear();
    for (const VertexId v : walk.walk) cover |= c.sim.incident_mask(v);
    return true;
  }
};

/// The touring question for one start: no promise term; a defeat leaves the
/// start's surviving component untoured. The cover is every edge incident to
/// the tour or to the vertices it missed (component and tour are invariant
/// under failure sets that agree on all edges the component can see).
struct TourQuestion {
  VertexId start;

  static bool promise_holds(SearchCtx& /*c*/, const IdSet& /*f*/) { return true; }
  bool survives(SearchCtx& c, const IdSet& f) const {
    return tour_packet_fast(c.sim, c.pattern, f, start, c.ws).success;
  }
  bool survives(SearchCtx& c, const IdSet& f, IdSet& cover) const {
    const TourResult tour = tour_packet(c.sim, c.pattern, f, start, c.ws);
    if (!tour.success) return false;
    cover.clear();
    for (const VertexId v : tour.walk) cover |= c.sim.incident_mask(v);
    for (const VertexId v : tour.missed) cover |= c.sim.incident_mask(v);
    return true;
  }
};

/// Best-first branch and bound for one question (a PairQuestion or a
/// TourQuestion; a template, so the pair hot loop pays no indirection). On
/// return (true), `best` holds the minimum defeating cardinality within
/// budget (or stays at infinity when none exists — with c.budget_limited
/// telling whether that proves perfect resilience). Returns false when the
/// expansion cap was hit; the caller falls back to enumeration.
template <class Question>
bool bnb_bound(SearchCtx& c, const Question& q, Incumbent& best) {
  OpenQueue open;
  int64_t seq = 0;
  open.push(BnbNode{c.g.empty_edge_set(), c.g.empty_edge_set(), 0, seq++});
  IdSet cover = c.g.empty_edge_set();
  IdSet probe = c.g.empty_edge_set();
  IdSet kept = c.g.empty_edge_set();
  while (!open.empty()) {
    const BnbNode node = open.top();
    open.pop();
    const int limit = std::min(best.size, c.budget + 1);
    if (node.lb >= limit) {
      // Best-first order: every other open node is at least as deep — the
      // optimality (or emptiness) proof is complete. Bounds above m prove
      // the subtree empty, so only bounds within the edge universe make the
      // no-defeat verdict budget-limited.
      if (best.size == kInfinity && node.lb > c.budget && node.lb <= c.g.num_edges()) {
        c.budget_limited = true;
      }
      ++c.tel.pruned_bound;
      break;
    }
    if (!q.promise_holds(c, node.include)) {
      // Promises are anti-monotone in F: every superset is also broken.
      ++c.tel.pruned_promise;
      continue;
    }
    if (!q.survives(c, node.include, cover)) {
      // The include set itself defeats; every other set in the subtree is a
      // strict superset, so this is the subtree's minimum.
      adopt_incumbent(c, best, node.include);
      continue;
    }
    // Survived: any defeating superset must hit the free part of the cover.
    cover -= node.include;
    cover -= node.exclude;
    if (cover.empty()) {
      ++c.tel.pruned_cover;
      continue;
    }
    ++c.tel.nodes_expanded;
    if (c.opts.node_cap > 0 && c.tel.nodes_expanded > c.opts.node_cap) return false;
    const int depth = node.include.count();
    const std::vector<int> cover_ids = cover.to_vector();
    // One-step lookahead over the cover: include + {e} either breaks the
    // promise (e joins no defeating superset — anti-monotonicity — so its
    // child dies), defeats outright (incumbent at depth + 1, child closed),
    // or still survives — then the child must hit a cover of its own, a
    // packing-style lower bound of depth + 2.
    kept.clear();
    for (const int e : cover_ids) {
      probe = node.include;
      probe.insert(e);
      if (!q.promise_holds(c, probe)) {
        ++c.tel.lookahead_excluded;
        continue;
      }
      if (!q.survives(c, probe)) {
        adopt_incumbent(c, best, probe);
        continue;
      }
      kept.insert(e);
    }
    // Covering branching: child i includes cover edge e_i and excludes all
    // earlier cover edges — a partition of the subtree's remaining sets.
    IdSet child_exclude = node.exclude;
    for (const int e : cover_ids) {
      if (kept.contains(e)) {
        const int child_lb = depth + 2;
        if (child_lb >= std::min(best.size, c.budget + 1)) {
          if (best.size == kInfinity && child_lb > c.budget && child_lb <= c.g.num_edges()) {
            c.budget_limited = true;
          }
          ++c.tel.pruned_bound;
        } else {
          BnbNode child;
          child.include = node.include;
          child.include.insert(e);
          child.exclude = child_exclude;
          child.lb = child_lb;
          child.seq = seq++;
          open.push(std::move(child));
        }
      }
      child_exclude.insert(e);
    }
  }
  return true;
}

// ---- canonical reconstruction (phase B) ------------------------------------

/// Reconstructs the numerically smallest defeating mask of exactly
/// `remaining` + |include| edges — the witness the increasing-|F| Gosper
/// walk reports first. Positions of the next (highest) failed edge are
/// tried in ascending order, recursing below: that is exactly ascending
/// numeric order over fixed-popcount masks. Prunes only ever discard
/// non-defeating completions, so the first accepted leaf is canonical.
bool canonical_pair_dfs(SearchCtx& c, const PairQuestion& q, int remaining, int max_bit,
                        IdSet& include) {
  ++c.tel.canonical_nodes;
  if (remaining == 0) return c.defeats(q.s, q.t, include);
  if (!q.promise_holds(c, include)) {
    ++c.tel.pruned_promise;
    return false;
  }
  int cover_min = -1;
  IdSet cover = c.g.empty_edge_set();
  if (q.survives(c, include, cover)) {
    // A defeating completion must fail a free walk-visible edge, and all of
    // its new edges lie at or below the next chosen position p — so p must
    // reach at least the lowest cover id.
    cover -= include;
    cover_min = lowest_id(cover);
    if (cover_min < 0) {
      ++c.tel.pruned_cover;
      return false;
    }
  }
  const int start = std::max(remaining - 1, cover_min);
  for (int p = start; p <= max_bit; ++p) {
    include.insert(p);
    if (canonical_pair_dfs(c, q, remaining - 1, p - 1, include)) return true;
    include.erase(p);
  }
  return false;
}

// ---- enumeration ------------------------------------------------------------

using PairList = std::vector<std::pair<VertexId, VertexId>>;

/// The first defeat in increasing-|F| Gosper order over |F| in [lo, hi],
/// pairs innermost, under the search's promise: SweepEngine's early-exit
/// sweep over the exhaustive stream, on one thread. Counts one verified
/// leaf per mask the sweep reached. Fills `out` and returns true on a
/// defeat.
bool enumerate_first_defeat(SearchCtx& c, int lo, int hi, PairList pairs, MinDefeatResult& out) {
  SweepOptions sweep;
  sweep.num_threads = 1;
  if (c.opts.promise || c.opts.promise_r > 1) {
    // The engine's default check is the plain connectivity promise; any
    // other runs through the search's own evaluator.
    sweep.promise = [&c](const Graph& /*g*/, VertexId s, VertexId t, const IdSet& f) {
      return c.promise_holds(s, t, f);
    };
  }
  const auto width = static_cast<int64_t>(pairs.size());
  ExhaustiveFailureSource source(c.g, lo, hi, std::move(pairs));
  const int64_t total = source.total_scenarios();
  std::optional<SweepFinding> finding =
      SweepEngine(sweep).find_first_violation(c.g, c.pattern, source);
  if (!finding.has_value()) {
    if (width > 0) c.tel.leaves_verified += total / width;
    return false;
  }
  c.tel.leaves_verified += finding->index / width + 1;
  out.status = MinDefeatStatus::kDefeated;
  out.failures = std::move(finding->scenario.failures);
  out.source = finding->scenario.source;
  out.destination = finding->scenario.destination;
  out.routing = std::move(finding->routing);
  return true;
}

// ---- drivers ---------------------------------------------------------------

void finish_no_defeat(SearchCtx& c, MinDefeatResult& out, bool proven_resilient) {
  out.status = proven_resilient ? MinDefeatStatus::kPerfectlyResilient
                                : MinDefeatStatus::kNoDefeatWithinBudget;
  c.tel.proved_bound = proven_resilient ? c.g.num_edges() + 1 : c.budget + 1;
}

MinDefeatResult take_result(SearchCtx& c, MinDefeatResult&& out) {
  if (out.defeated()) c.tel.proved_bound = out.failures.count();
  out.telemetry = std::move(c.tel);
  return std::move(out);
}

/// The driver the three searches share. `bound(best)` runs phase A and
/// returns false at the node cap; `canonical(k*, out)` reconstructs the
/// witness once phase A proved the optimum. Enumeration over `pairs` answers
/// when branch and bound does not apply (kEnumerate, or a custom promise,
/// which need not be anti-monotone) or gave up at the node cap. It needs no
/// cap from an incumbent: a verified defeat of size k stops it at |F| <= k.
template <class Bound, class Canonical>
MinDefeatResult drive(SearchCtx& c, MinDefeatResult out, PairList pairs, Bound&& bound,
                      Canonical&& canonical) {
  Incumbent best;
  if (c.opts.strategy == SearchStrategy::kEnumerate) {
    c.tel.strategy = "enumerate";
  } else if (c.opts.promise || !bound(best)) {
    c.tel.strategy = "enumerate-fallback";
  } else {
    c.tel.strategy = "branch-and-bound";
    if (best.size == kInfinity) {
      finish_no_defeat(c, out, !c.budget_limited);
    } else {
      canonical(best.size, out);
    }
    return take_result(c, std::move(out));
  }
  if (!enumerate_first_defeat(c, 0, c.budget, std::move(pairs), out)) {
    finish_no_defeat(c, out, c.budget >= c.g.num_edges());
  }
  return take_result(c, std::move(out));
}

/// Canonical witness of the all-pairs and touring searches: the enumeration
/// restricted to the proven optimum stratum — canonical by construction.
void canonical_by_stratum(SearchCtx& c, const PairList& pairs, int kstar, MinDefeatResult& out) {
  if (!enumerate_first_defeat(c, kstar, kstar, pairs, out)) {
    // Phase A proved a defeat of size kstar exists; not finding one here
    // would mean an unsound prune.
    throw std::logic_error("min_defeat: canonical reconstruction failed");
  }
}

MinDefeatResult run_pair(SearchCtx& c, MinDefeatResult out) {
  const PairQuestion q{out.source, out.destination};
  c.tel.root_min_cut = edge_connectivity(c.g, q.s, q.t, c.g.empty_edge_set());
  return drive(
      c, std::move(out), {{q.s, q.t}},
      [&](Incumbent& best) {
        seed_pair_incumbents(c, q.s, q.t, best);
        return bnb_bound(c, q, best);
      },
      [&](int kstar, MinDefeatResult& result) {
        IdSet include = c.g.empty_edge_set();
        if (!canonical_pair_dfs(c, q, kstar, c.g.num_edges() - 1, include)) {
          throw std::logic_error("min_defeat: canonical reconstruction failed");
        }
        result.status = MinDefeatStatus::kDefeated;
        result.failures = std::move(include);
        result.routing = route_packet(c.sim, c.pattern, result.failures, q.s, Header{q.s, q.t},
                                      c.ws);
      });
}

MinDefeatResult run_any_pair(SearchCtx& c, MinDefeatResult out) {
  const PairList pairs = all_ordered_pairs(c.g);
  return drive(
      c, std::move(out), pairs,
      [&](Incumbent& best) {
        if (c.opts.upper_bound_candidates != nullptr) {
          for (const IdSet& f : *c.opts.upper_bound_candidates) {
            if (f.universe_size() != c.g.num_edges()) continue;
            if (f.count() > c.budget || f.count() >= best.size) continue;
            for (const auto& [s, t] : pairs) {
              if (c.defeats(s, t, f)) {
                adopt_incumbent(c, best, f);
                break;
              }
            }
          }
        }
        for (const auto& [s, t] : pairs) {
          if (c.opts.seed_incumbents) {
            greedy_walk_cut(c, s, t, false, best);
            greedy_walk_cut(c, s, t, true, best);
          }
          if (!bnb_bound(c, PairQuestion{s, t}, best)) return false;
        }
        return true;
      },
      [&](int kstar, MinDefeatResult& result) { canonical_by_stratum(c, pairs, kstar, result); });
}

MinDefeatResult run_touring(SearchCtx& c, MinDefeatResult out) {
  const PairList starts = all_touring_starts(c.g);
  return drive(
      c, std::move(out), starts,
      [&](Incumbent& best) {
        for (const auto& start : starts) {
          if (!bnb_bound(c, TourQuestion{start.first}, best)) return false;
        }
        return true;
      },
      [&](int kstar, MinDefeatResult& result) { canonical_by_stratum(c, starts, kstar, result); });
}

/// The entry the three public searches share: checks the edge capacity,
/// answers a negative budget without searching, else runs `run` on a fresh
/// context with the budget clamped to the edge count.
template <class Run>
MinDefeatResult enter(const char* who, const Graph& g, const ForwardingPattern& pattern,
                      int max_budget, const SearchOptions& options, MinDefeatResult out,
                      Run&& run) {
  EdgeMask::check_capacity(g.num_edges(), who);
  const int budget = std::min(max_budget, g.num_edges());
  if (budget < 0) {
    out.budget = max_budget;
    out.telemetry.strategy = "none";
    return out;
  }
  out.budget = budget;
  SearchCtx c(g, pattern, options, budget);
  return run(c, std::move(out));
}

/// The any-pair and touring searches keep their own defeat notions (same
/// surviving component / no promise at all): custom promises and
/// r-tolerance apply to the pair search only.
SearchOptions without_promise(const SearchOptions& options) {
  SearchOptions normalized = options;
  normalized.promise = nullptr;
  normalized.promise_r = 1;
  return normalized;
}

}  // namespace

MinDefeatResult min_defeat_search(const Graph& g, const ForwardingPattern& pattern,
                                  VertexId source, VertexId destination, int max_budget,
                                  const SearchOptions& options) {
  MinDefeatResult out;
  out.source = source;
  out.destination = destination;
  return enter("min_defeat_search", g, pattern, max_budget, options, std::move(out), run_pair);
}

MinDefeatResult min_defeat_search_any_pair(const Graph& g, const ForwardingPattern& pattern,
                                           int max_budget, const SearchOptions& options) {
  return enter("min_defeat_search_any_pair", g, pattern, max_budget, without_promise(options),
               MinDefeatResult{}, run_any_pair);
}

MinDefeatResult min_touring_defeat_search(const Graph& g, const ForwardingPattern& pattern,
                                          int max_budget, const SearchOptions& options) {
  return enter("min_touring_defeat_search", g, pattern, max_budget, without_promise(options),
               MinDefeatResult{}, run_touring);
}

std::vector<IdSet> corpus_upper_bound_candidates(const Graph& g, RoutingModel model,
                                                 VertexId source, VertexId destination,
                                                 int max_budget) {
  std::vector<IdSet> out;
  const int budget = std::min(max_budget, g.num_edges());
  if (budget < 0 || source == destination) return out;
  const SearchOptions probe_options;
  const std::vector<std::unique_ptr<ForwardingPattern>> corpus = make_pattern_corpus(model, g);
  for (const std::unique_ptr<ForwardingPattern>& p : corpus) {
    SearchCtx c(g, *p, probe_options, budget);
    Incumbent best;
    greedy_walk_cut(c, source, destination, false, best);
    greedy_walk_cut(c, source, destination, true, best);
    if (best.size == kInfinity) continue;
    bool duplicate = false;
    for (const IdSet& f : out) duplicate = duplicate || f == best.failures;
    if (!duplicate) out.push_back(best.failures);
  }
  return out;
}

void append_json(JsonWriter& w, const MinDefeatResult& r, const Graph& g) {
  w.begin_object();
  w.key("status").value(to_string(r.status));
  w.key("budget").value(r.budget);
  w.key("cardinality").value(r.defeated() ? r.failures.count() : -1);
  w.key("source").value(r.source);
  w.key("destination").value(r.destination);
  w.key("failures").begin_array();
  if (r.defeated()) {
    for (const int e : r.failures.to_vector()) w.value(e);
  }
  w.end_array();
  w.key("failed_links").begin_array();
  if (r.defeated()) {
    for (const int e : r.failures.to_vector()) {
      const Edge& edge = g.edge(e);
      w.begin_array().value(edge.u).value(edge.v).end_array();
    }
  }
  w.end_array();
  if (r.defeated() && r.destination != kNoVertex) {
    w.key("outcome").value(to_string(r.routing.outcome));
    w.key("hops").value(r.routing.hops);
  } else {
    w.key("outcome").null();
    w.key("hops").null();
  }
  const SearchTelemetry& t = r.telemetry;
  w.key("telemetry").begin_object();
  w.key("strategy").value(t.strategy);
  w.key("nodes_expanded").value(t.nodes_expanded);
  w.key("leaves_verified").value(t.leaves_verified);
  w.key("pruned_bound").value(t.pruned_bound);
  w.key("pruned_promise").value(t.pruned_promise);
  w.key("pruned_cover").value(t.pruned_cover);
  w.key("lookahead_excluded").value(t.lookahead_excluded);
  w.key("canonical_nodes").value(t.canonical_nodes);
  w.key("incumbent_trajectory").begin_array();
  for (const int k : t.incumbent_trajectory) w.value(k);
  w.end_array();
  w.key("proved_bound").value(t.proved_bound);
  w.key("root_min_cut").value(t.root_min_cut);
  w.end_object();
  w.end_object();
}

}  // namespace pofl
