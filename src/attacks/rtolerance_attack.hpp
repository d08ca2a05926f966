#pragma once

// Theorem 1: the complete graph on 3+5r nodes admits no r-tolerant
// source-destination pattern. The adversary partitions the non-{s,t} nodes
// into r five-node gadgets plus one spare node and *probes* the pattern's
// forwarding function (the adversary knows the static tables — that is the
// model) to classify each gadget:
//
//   PATH_REFUSED — some degree-2 node b refuses to relay a -> c: keep the
//                  path s-a-b-c-t intact; it counts toward connectivity but
//                  is never used;
//   LOSE_ORBIT   — the hub v2's orbit from v1 misses a neighbor y: keep
//                  (y,t); the packet circles the hub, the path via y is lost;
//   TRAP         — the orbit never returns to v1: the packet is stuck inside
//                  the gadget forever;
//   LOSE_CYCLE   — the orbit is a full cycle v1,x,y,z: keep (x,z) and (y,t);
//                  conforming relays loop s-v1-v2-x-z-v2-v1-... and the path
//                  via y is lost.
//
// Each gadget burns one disjoint path or traps the packet; the spare node
// restores the connectivity promise when a trap occurred. The assembled
// failure set is verified end-to-end (r-edge-connectivity of s,t plus
// non-delivery); randomized restarts re-shuffle the partition when
// verification fails (e.g. the spare was visited before the trap).

#include <cstdint>
#include <optional>

#include "attacks/k7_attack.hpp"
#include "graph/graph.hpp"
#include "routing/forwarding.hpp"

namespace pofl {

struct RToleranceAttackResult {
  Defeat defeat;
  int restarts_used = 0;
  int traps = 0;  // gadgets that trapped the packet
};

/// Attack on the complete graph with n = 3 + 5r nodes (or a supergraph
/// restriction thereof). Returns a failure set under which s and t remain
/// r-edge-connected yet the packet never arrives.
[[nodiscard]] std::optional<RToleranceAttackResult> attack_r_tolerance(
    const Graph& g, const ForwardingPattern& pattern, VertexId s, VertexId t, int r,
    uint64_t seed = 1, int max_restarts = 64);

}  // namespace pofl
