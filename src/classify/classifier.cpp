#include "classify/classifier.hpp"

#include "graph/builders.hpp"
#include "graph/connectivity.hpp"
#include "graph/minors.hpp"
#include "graph/planarity.hpp"
#include "resilience/dest_via_touring.hpp"

namespace pofl {

namespace {

bool has_forbidden_minor(const Graph& g, const Graph& pattern, const ClassifyOptions& opts) {
  return has_minor(g, pattern, opts.seed, opts.minor_restarts);
}

}  // namespace

Classification classify_topology(const Graph& g, const ClassifyOptions& opts) {
  Classification out;
  out.connected = connected(g);
  out.planar = is_planar(g);
  out.outerplanar = is_outerplanar(g);
  out.cor5_destinations = static_cast<int>(corollary5_destinations(g).size());

  // Touring: exact characterization (Corollary 6).
  out.touring = out.outerplanar ? Verdict::kPossible : Verdict::kImpossible;

  if (out.outerplanar) {
    // Outerplanar graphs are perfectly resilient in every model.
    out.destination = Verdict::kPossible;
    out.source_destination = Verdict::kPossible;
    return out;
  }

  const bool sometimes = out.cor5_destinations > 0;
  // All four forbidden minors contain K4; K4-minor-freeness (exact, poly
  // time via series-parallel reduction) short-circuits the searches.
  const bool k4_free = !has_k4_minor(g);

  // ---- Destination-based -------------------------------------------------
  bool dest_impossible = !out.planar;  // non-planar => K5/K3,3 minor => -1 variants
  if (!dest_impossible && !k4_free) {
    dest_impossible = has_forbidden_minor(g, make_complete_minus(5, 1), opts) ||
                      has_forbidden_minor(g, make_complete_bipartite_minus(3, 3, 1), opts);
  }
  // Positive beyond outerplanarity: minors of the paper's base graphs
  // (Theorems 12/13). Only tiny graphs qualify; exact search.
  bool dest_possible = false;
  if (!dest_impossible && g.num_vertices() <= 6) {
    dest_possible = find_minor_exact(make_complete_minus(5, 2), g).has_value() ||
                    find_minor_exact(make_complete_bipartite_minus(3, 3, 2), g).has_value();
  }
  // Every destination covered by Corollary 5 is also a "possible" case.
  if (out.cor5_destinations == g.num_vertices()) dest_possible = true;
  if (dest_impossible) {
    out.destination = Verdict::kImpossible;
  } else if (dest_possible) {
    out.destination = Verdict::kPossible;
  } else if (sometimes) {
    out.destination = Verdict::kSometimes;
  } else {
    out.destination = Verdict::kUnknown;
  }

  // ---- Source-destination -------------------------------------------------
  // K7^-1 contains K5 and K4,4^-1 contains K3,3, so a planar host (no K5 or
  // K3,3 minor, by Kuratowski-Wagner) has neither: skip both searches.
  bool sd_impossible =
      !k4_free && !out.planar &&
      (has_forbidden_minor(g, make_complete_minus(7, 1), opts) ||
       has_forbidden_minor(g, make_complete_bipartite_minus(4, 4, 1), opts));
  bool sd_possible = out.destination == Verdict::kPossible;
  if (!sd_impossible && !sd_possible) {
    // Theorems 8/9: minors of K5 and K3,3 are source-destination routable.
    if (g.num_vertices() <= 5) {
      sd_possible = true;  // every graph on <= 5 nodes is a K5 minor
    } else if (g.num_vertices() <= 6) {
      sd_possible = find_minor_exact(make_complete_bipartite(3, 3), g).has_value();
    }
  }
  if (sd_impossible) {
    out.source_destination = Verdict::kImpossible;
  } else if (sd_possible) {
    out.source_destination = Verdict::kPossible;
  } else if (sometimes) {
    out.source_destination = Verdict::kSometimes;
  } else {
    out.source_destination = Verdict::kUnknown;
  }
  return out;
}

}  // namespace pofl
