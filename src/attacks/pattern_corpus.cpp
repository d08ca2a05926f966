#include "attacks/pattern_corpus.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <random>

#include "graph/connectivity.hpp"

namespace pofl {

namespace {

/// Deliver-first helper shared by all families.
std::optional<EdgeId> try_deliver(const Graph& g, VertexId at, const IdSet& local_failures,
                                  const Header& header) {
  if (header.destination == kNoVertex) return std::nullopt;
  if (const auto direct = g.edge_between(at, header.destination)) {
    if (!local_failures.contains(*direct)) return direct;
  }
  return std::nullopt;
}

class IdCyclicPattern final : public ForwardingPattern {
 public:
  explicit IdCyclicPattern(RoutingModel model) : model_(model) {}
  [[nodiscard]] RoutingModel model() const override { return model_; }
  [[nodiscard]] std::string name() const override { return "id-cyclic"; }
  [[nodiscard]] bool reads_source() const override { return false; }

  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                              const IdSet& local_failures,
                                              const Header& header) const override {
    if (auto d = try_deliver(g, at, local_failures, header)) return d;
    // Next alive neighbor in cyclic id order after the in-port neighbor.
    const VertexId from = inport == kNoEdge ? kNoVertex : g.other_endpoint(inport, at);
    std::optional<EdgeId> first, after;
    VertexId first_id = kNoVertex, after_id = kNoVertex;
    for (EdgeId e : g.incident_edges(at)) {
      if (local_failures.contains(e)) continue;
      const VertexId w = g.other_endpoint(e, at);
      if (first_id == kNoVertex || w < first_id) {
        first_id = w;
        first = e;
      }
      if (from != kNoVertex && w > from && (after_id == kNoVertex || w < after_id)) {
        after_id = w;
        after = e;
      }
    }
    return after.has_value() ? after : first;
  }

 private:
  RoutingModel model_;
};

class RandomCyclicPattern final : public ForwardingPattern {
 public:
  RandomCyclicPattern(RoutingModel model, const Graph& g, uint64_t seed) : model_(model) {
    std::mt19937_64 rng(seed);
    rotation_.resize(static_cast<size_t>(g.num_vertices()));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      auto& rot = rotation_[static_cast<size_t>(v)];
      for (EdgeId e : g.incident_edges(v)) rot.push_back(e);
      std::shuffle(rot.begin(), rot.end(), rng);
    }
  }

  [[nodiscard]] RoutingModel model() const override { return model_; }
  [[nodiscard]] std::string name() const override { return "random-cyclic"; }
  [[nodiscard]] bool reads_source() const override { return false; }

  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                              const IdSet& local_failures,
                                              const Header& header) const override {
    if (auto d = try_deliver(g, at, local_failures, header)) return d;
    const auto& rot = rotation_[static_cast<size_t>(at)];
    if (rot.empty()) return std::nullopt;
    size_t start = 0;
    if (inport != kNoEdge) {
      for (size_t i = 0; i < rot.size(); ++i) {
        if (rot[i] == inport) {
          start = i + 1;
          break;
        }
      }
    }
    for (size_t k = 0; k < rot.size(); ++k) {
      const EdgeId e = rot[(start + k) % rot.size()];
      if (!local_failures.contains(e)) return e;
    }
    return std::nullopt;
  }

 private:
  RoutingModel model_;
  std::vector<std::vector<EdgeId>> rotation_;
};

class ShortestPathPattern final : public ForwardingPattern {
 public:
  ShortestPathPattern(RoutingModel model, const Graph& g, bool bounce_shy)
      : model_(model), bounce_shy_(bounce_shy) {
    // The port order at v toward t — (distance of far end to t, id) — is a
    // pure function of the failure-free graph, so it is precomputed here
    // once instead of sorted on every forwarding call (forward() sits in
    // the innermost loop of the sweeps). Storage is flat: one 2m-entry
    // array per destination, segmented by the shared per-vertex offsets —
    // not n^2 little vectors, which would thrash the allocator on the
    // larger zoo graphs.
    offset_.resize(static_cast<size_t>(g.num_vertices()) + 1);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      offset_[static_cast<size_t>(v) + 1] = offset_[static_cast<size_t>(v)] + g.degree(v);
    }
    order_.resize(static_cast<size_t>(g.num_vertices()));
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      const std::vector<int> rank = bfs_distances(g, t, g.empty_edge_set());
      auto& flat = order_[static_cast<size_t>(t)];
      flat.resize(static_cast<size_t>(offset_.back()));
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto inc = g.incident_edges(v);
        const auto begin = flat.begin() + offset_[static_cast<size_t>(v)];
        std::copy(inc.begin(), inc.end(), begin);
        std::sort(begin, begin + g.degree(v), [&](EdgeId a, EdgeId b) {
          const int ra = rank[static_cast<size_t>(g.other_endpoint(a, v))];
          const int rb = rank[static_cast<size_t>(g.other_endpoint(b, v))];
          if (ra != rb) return ra < rb;
          return a < b;
        });
      }
    }
  }

  [[nodiscard]] RoutingModel model() const override { return model_; }
  [[nodiscard]] std::string name() const override {
    return bounce_shy_ ? "bounce-shy-shortest-path" : "shortest-path-rotor";
  }
  [[nodiscard]] bool reads_source() const override { return false; }

  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                              const IdSet& local_failures,
                                              const Header& header) const override {
    if (auto d = try_deliver(g, at, local_failures, header)) return d;
    const VertexId t = header.destination;
    // Ports sorted by (distance of far end to t, id) — precomputed; with no
    // destination the insertion (port) order stands. On failure rotate to
    // the next port after the in-port in this order.
    const std::span<const EdgeId> order =
        t != kNoVertex
            ? std::span<const EdgeId>(order_[static_cast<size_t>(t)])
                  .subspan(static_cast<size_t>(offset_[static_cast<size_t>(at)]),
                           static_cast<size_t>(g.degree(at)))
            : g.incident_edges(at);
    size_t start = 0;
    if (inport != kNoEdge) {
      for (size_t i = 0; i < order.size(); ++i) {
        if (order[i] == inport) {
          start = i + 1;
          break;
        }
      }
    }
    std::optional<EdgeId> fallback;
    for (size_t k = 0; k < order.size(); ++k) {
      const EdgeId e = order[(start + k) % order.size()];
      if (local_failures.contains(e)) continue;
      if (bounce_shy_ && e == inport) {
        fallback = e;  // only bounce when no alternative exists
        continue;
      }
      return e;
    }
    return fallback;
  }

 private:
  RoutingModel model_;
  bool bounce_shy_;
  /// order_[t] is one flat array of every vertex's incident edges sorted
  /// toward t; offset_[v] is where v's segment (of length degree(v)) starts.
  std::vector<int> offset_;
  std::vector<std::vector<EdgeId>> order_;
};

class RandomStatelessPattern final : public ForwardingPattern {
 public:
  RandomStatelessPattern(RoutingModel model, uint64_t seed) : model_(model), seed_(seed) {}

  [[nodiscard]] RoutingModel model() const override { return model_; }
  [[nodiscard]] std::string name() const override { return "random-stateless"; }

  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                              const IdSet& local_failures,
                                              const Header& header) const override {
    if (auto d = try_deliver(g, at, local_failures, header)) return d;
    std::vector<EdgeId> alive = g.alive_incident_edges(at, local_failures);
    if (alive.empty()) return std::nullopt;
    // Deterministic hash of the full local state: an arbitrary but fixed
    // point of the pattern space.
    uint64_t h = seed_ ^ 0x9e3779b97f4a7c15ull;
    const auto mix = [&h](uint64_t x) {
      h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
    };
    mix(static_cast<uint64_t>(at) + 1);
    mix(static_cast<uint64_t>(inport) + 2);
    mix(static_cast<uint64_t>(header.source) + 3);
    mix(static_cast<uint64_t>(header.destination) + 5);
    for (EdgeId e : g.incident_edges(at)) mix(local_failures.contains(e) ? 17 : 19);
    return alive[h % alive.size()];
  }

 private:
  RoutingModel model_;
  uint64_t seed_;
};

}  // namespace

std::unique_ptr<ForwardingPattern> make_id_cyclic_pattern(RoutingModel model) {
  return std::make_unique<IdCyclicPattern>(model);
}

std::unique_ptr<ForwardingPattern> make_random_cyclic_pattern(RoutingModel model, const Graph& g,
                                                              uint64_t seed) {
  return std::make_unique<RandomCyclicPattern>(model, g, seed);
}

std::unique_ptr<ForwardingPattern> make_shortest_path_pattern(RoutingModel model,
                                                              const Graph& g) {
  return std::make_unique<ShortestPathPattern>(model, g, /*bounce_shy=*/false);
}

std::unique_ptr<ForwardingPattern> make_bounce_shy_pattern(RoutingModel model, const Graph& g) {
  return std::make_unique<ShortestPathPattern>(model, g, /*bounce_shy=*/true);
}

std::unique_ptr<ForwardingPattern> make_random_stateless_pattern(RoutingModel model,
                                                                 uint64_t seed) {
  return std::make_unique<RandomStatelessPattern>(model, seed);
}

std::vector<std::unique_ptr<ForwardingPattern>> make_pattern_corpus(RoutingModel model,
                                                                    const Graph& g,
                                                                    int random_variants,
                                                                    uint64_t seed) {
  std::vector<std::unique_ptr<ForwardingPattern>> corpus;
  corpus.push_back(make_id_cyclic_pattern(model));
  corpus.push_back(make_shortest_path_pattern(model, g));
  corpus.push_back(make_bounce_shy_pattern(model, g));
  std::mt19937_64 rng(seed);
  for (int i = 0; i < random_variants; ++i) {
    corpus.push_back(make_random_cyclic_pattern(model, g, rng()));
    corpus.push_back(make_random_stateless_pattern(model, rng()));
  }
  return corpus;
}

std::unique_ptr<ForwardingPattern> make_named_pattern(const std::string& name, const Graph& g,
                                                      std::string* canonical) {
  constexpr RoutingModel model = RoutingModel::kSourceDestination;
  if (canonical != nullptr) *canonical = name;
  if (name == "shortest-path") return make_shortest_path_pattern(model, g);
  if (name == "id-cyclic") return make_id_cyclic_pattern(model);
  if (name == "bounce-shy") return make_bounce_shy_pattern(model, g);
  const auto colon = name.find(':');
  const std::string family = name.substr(0, colon);
  if (colon == std::string::npos || (family != "random-cyclic" && family != "random-stateless")) {
    return nullptr;
  }
  const char* seed_text = name.c_str() + colon + 1;
  char* end = nullptr;
  errno = 0;
  const long seed = std::strtol(seed_text, &end, 10);
  if (end == seed_text || *end != '\0' || errno == ERANGE || seed < 0) return nullptr;
  if (canonical != nullptr) *canonical = family + ":" + std::to_string(seed);
  return family == "random-cyclic" ? make_random_cyclic_pattern(model, g, seed)
                                   : make_random_stateless_pattern(model, seed);
}

}  // namespace pofl
