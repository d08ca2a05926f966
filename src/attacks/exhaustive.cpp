#include "attacks/exhaustive.hpp"

namespace pofl {

MinDefeatResult find_minimum_defeat(const Graph& g, const ForwardingPattern& pattern,
                                    VertexId source, VertexId destination, int max_budget,
                                    const SearchOptions& options) {
  return min_defeat_search(g, pattern, source, destination, max_budget, options);
}

MinDefeatResult find_minimum_defeat_any_pair(const Graph& g, const ForwardingPattern& pattern,
                                             int max_budget, const SearchOptions& options) {
  return min_defeat_search_any_pair(g, pattern, max_budget, options);
}

MinDefeatResult find_minimum_touring_defeat(const Graph& g, const ForwardingPattern& pattern,
                                            int max_budget, const SearchOptions& options) {
  return min_touring_defeat_search(g, pattern, max_budget, options);
}

}  // namespace pofl
