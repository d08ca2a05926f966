#pragma once

// The paper's routing model (§II). Every node v carries a static forwarding
// function
//
//   pi_v : (incident failed links, in-port, header) -> out-port
//
// configured ahead of time with full knowledge of the graph but none of the
// failures. Headers are immutable; what they expose distinguishes the three
// models: source-destination pi^{s,t}, destination-only pi^{t}, and touring
// pi^{forall} (no header at all).
//
// Locality is enforced by the simulator: a pattern is only ever shown the
// failures incident to the current node (F cap E(v)).

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "graph/graph.hpp"

namespace pofl {

enum class RoutingModel {
  kSourceDestination,  // rules may match source and destination
  kDestinationOnly,    // rules may match the destination only
  kTouring,            // rules see no header at all
};

[[nodiscard]] constexpr const char* to_string(RoutingModel m) {
  switch (m) {
    case RoutingModel::kSourceDestination:
      return "source-destination";
    case RoutingModel::kDestinationOnly:
      return "destination-only";
    case RoutingModel::kTouring:
      return "touring";
  }
  return "?";
}

/// Immutable packet header. Fields a model must not depend on, and the
/// source for a pattern whose reads_source() is false, are set to kNoVertex
/// by visible_header() before forward() sees them, so a pattern cannot cheat.
struct Header {
  VertexId source = kNoVertex;
  VertexId destination = kNoVertex;
};

/// Static per-node forwarding function. Implementations must be
/// deterministic and memoryless: the same (at, inport, local_failures,
/// header) must always produce the same out-port.
class ForwardingPattern {
 public:
  ForwardingPattern() = default;
  // Copies keep their own fresh uid: distinct instances of the same type can
  // forward differently (their tables may derive from different graphs), so
  // identity never transfers.
  ForwardingPattern(const ForwardingPattern&) {}
  ForwardingPattern& operator=(const ForwardingPattern&) { return *this; }
  virtual ~ForwardingPattern() = default;

  /// Instance identity token: process-wide unique, never reused, stable for
  /// the object's lifetime. Lets decision caches that outlive a routing call
  /// (e.g. a persistent RoutingWorkspace) detect pattern changes without the
  /// address-reuse hazard of comparing pointers.
  [[nodiscard]] uint64_t uid() const { return uid_; }

  [[nodiscard]] virtual RoutingModel model() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Whether forward() reads header.source. The simulator shows the source
  /// only to a pattern that both may read it (source-destination model) and
  /// says it does, so the routing-decision cache keys a transition by the
  /// header fields forward() actually sees: a source-destination pattern
  /// that ignores the source shares one entry per destination across all
  /// sources instead of one per (source, destination) pair. Defaults to
  /// what the model allows; override with false only where forward() never
  /// reads the source.
  [[nodiscard]] virtual bool reads_source() const {
    return model() == RoutingModel::kSourceDestination;
  }

  /// The out-port for a packet arriving at `at` via `inport` (kNoEdge means
  /// the packet originates here), given the locally visible failures.
  /// nullopt drops the packet (always a resilience violation for a connected
  /// destination). The chosen edge must be incident to `at` and alive.
  [[nodiscard]] virtual std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                                      const IdSet& local_failures,
                                                      const Header& header) const = 0;

 private:
  [[nodiscard]] static uint64_t next_uid() {
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;  // uids start at 1
  }

  uint64_t uid_ = next_uid();
};

/// The header `pattern` may see: the source hidden unless the model allows
/// it and reads_source() says forward() reads it, the destination hidden in
/// the touring model. Every caller hands forward() only this header, so a
/// pattern cannot read a field its model forbids, and the decision cache,
/// keyed by it, is exact by construction.
[[nodiscard]] inline Header visible_header(const ForwardingPattern& pattern,
                                           const Header& header) {
  const RoutingModel model = pattern.model();
  Header h = header;
  if (model != RoutingModel::kSourceDestination || !pattern.reads_source()) h.source = kNoVertex;
  if (model == RoutingModel::kTouring) h.destination = kNoVertex;
  return h;
}

}  // namespace pofl
