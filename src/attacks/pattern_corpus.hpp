#pragma once

// Candidate forwarding patterns for the impossibility experiments.
//
// The paper's negative results quantify over *all* static patterns; a
// computational reproduction demonstrates them by defeating every member of
// a diverse corpus of candidate patterns — the natural designs an operator
// might deploy. Families:
//
//   * id-cyclic        — classic "next alive port in id order" failover;
//   * random-cyclic    — a fixed random rotation per node (seeded);
//   * shortest-path    — BFS next-hop toward t, falling back to rotation;
//   * random-stateless — a deterministic pseudo-random (hash-based) total
//                        function of the local state: an arbitrary point of
//                        the pattern space;
//   * bounce-shy       — shortest-path preference that avoids the in-port
//                        unless forced.
//
// All families respect the model: they read only the local failure set, the
// in-port and the header fields their RoutingModel exposes. Only
// random-stateless reads the source; the other families report
// reads_source() false, so the simulator hides it from them in every model.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "routing/forwarding.hpp"

namespace pofl {

[[nodiscard]] std::unique_ptr<ForwardingPattern> make_id_cyclic_pattern(RoutingModel model);

[[nodiscard]] std::unique_ptr<ForwardingPattern> make_random_cyclic_pattern(RoutingModel model,
                                                                            const Graph& g,
                                                                            uint64_t seed);

/// Needs the graph at configuration time (BFS next hops toward every t).
[[nodiscard]] std::unique_ptr<ForwardingPattern> make_shortest_path_pattern(RoutingModel model,
                                                                            const Graph& g);

[[nodiscard]] std::unique_ptr<ForwardingPattern> make_random_stateless_pattern(RoutingModel model,
                                                                               uint64_t seed);

[[nodiscard]] std::unique_ptr<ForwardingPattern> make_bounce_shy_pattern(RoutingModel model,
                                                                         const Graph& g);

/// The full corpus for a graph: one of each family (several seeds for the
/// randomized ones).
[[nodiscard]] std::vector<std::unique_ptr<ForwardingPattern>> make_pattern_corpus(
    RoutingModel model, const Graph& g, int random_variants = 3, uint64_t seed = 1);

/// The names make_named_pattern accepts, for error and usage text.
inline constexpr char kPatternNames[] =
    "shortest-path, id-cyclic, bounce-shy, random-cyclic:<seed> or random-stateless:<seed>";

/// One source-destination pattern by name (a seed is a non-negative
/// integer), or nullptr for a name not in kPatternNames. `canonical`, when
/// given, receives the name with the seed in plain decimal:
/// "random-cyclic:+05" -> "random-cyclic:5".
[[nodiscard]] std::unique_ptr<ForwardingPattern> make_named_pattern(
    const std::string& name, const Graph& g, std::string* canonical = nullptr);

}  // namespace pofl
