#pragma once

// Deterministic packet-walk simulation. Forwarding is static and memoryless,
// so the packet's trajectory is fully determined by (node, in-port) given a
// fixed failure set: revisiting a state means the packet loops forever.
//
// Two tiers of API:
//
//   * The classic entry points route_packet / tour_packet take just a Graph
//     and return full results including the recorded walk. Convenient, but
//     each call builds its per-graph tables and scratch buffers from scratch.
//   * The fast path splits that cost out: a SimContext holds the per-graph
//     immutable tables (built once per graph), a RoutingWorkspace holds the
//     reusable scratch buffers (reset in O(1) via epoch stamps), and
//     route_packet_fast / tour_packet_fast return outcome-only results
//     without recording the walk. In steady state — one context per graph,
//     one workspace per thread — a simulated packet performs zero heap
//     allocations. Both tiers run the identical core, so outcomes, hop
//     counts and walks are bit-identical between them.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"

namespace pofl {

enum class RoutingOutcome {
  kDelivered,       // reached the destination
  kLooped,          // (node, in-port) state repeated without delivery
  kDropped,         // pattern returned no out-port
  kInvalidForward,  // pattern chose a failed or non-incident edge (a bug)
};

[[nodiscard]] constexpr const char* to_string(RoutingOutcome o) {
  switch (o) {
    case RoutingOutcome::kDelivered:
      return "delivered";
    case RoutingOutcome::kLooped:
      return "looped";
    case RoutingOutcome::kDropped:
      return "dropped";
    case RoutingOutcome::kInvalidForward:
      return "invalid-forward";
  }
  return "?";
}

/// Immutable per-graph simulation tables: the dense (node, in-port) state
/// indexing (in-ports are the node's incident edges plus the virtual start
/// port) and the per-vertex incident-edge masks used to compute the locally
/// visible failure set with word operations. Built once per graph, shared
/// freely across threads — construction is the only mutation.
class SimContext {
 public:
  explicit SimContext(const Graph& g);

  [[nodiscard]] const Graph& graph() const { return *g_; }

  /// Total number of distinct (node, in-port) states.
  [[nodiscard]] int num_states() const { return total_states_; }

  /// Dense id of the (v, inport) state, O(1) via the graph's port table.
  [[nodiscard]] int state_id(VertexId v, EdgeId inport) const {
    const int base = state_offset_[static_cast<size_t>(v)];
    return inport == kNoEdge ? base : base + 1 + g_->port_of(inport, v);
  }

  /// Inverse of state_id: the node / in-port a dense state id decodes to
  /// (state_inport is kNoEdge for the virtual start port). The group-parallel
  /// core keeps only state ids per packet and decodes on demand.
  [[nodiscard]] VertexId state_node(int sid) const { return state_node_[static_cast<size_t>(sid)]; }
  [[nodiscard]] EdgeId state_inport(int sid) const {
    return state_inport_[static_cast<size_t>(sid)];
  }

  /// Edge set of all edges incident to v (same bits as
  /// g.incident_edge_set(v), precomputed).
  [[nodiscard]] const IdSet& incident_mask(VertexId v) const {
    return incident_masks_[static_cast<size_t>(v)];
  }

 private:
  const Graph* g_;
  std::vector<int> state_offset_;
  std::vector<VertexId> state_node_;   // dense state id -> node
  std::vector<EdgeId> state_inport_;   // dense state id -> in-port edge
  std::vector<IdSet> incident_masks_;
  int total_states_ = 0;
};

/// Reusable scratch state for the simulator core. All buffers reset in O(1)
/// by bumping an epoch stamp instead of reallocating or zero-filling, and
/// grow monotonically, so one workspace serves packets on graphs of any
/// (and varying) size. Not thread-safe: use one workspace per thread.
///
/// The accessors below are the contract between the workspace and the
/// simulator core (and its tests); callers of the routing API never need
/// them — they just construct a workspace and pass it around.
class RoutingWorkspace {
 public:
  RoutingWorkspace() = default;
  RoutingWorkspace(const RoutingWorkspace&) = delete;
  RoutingWorkspace& operator=(const RoutingWorkspace&) = delete;

  /// Starts a new packet on ctx's graph: O(1) apart from one-time buffer
  /// growth (and an O(buffers) stamp wipe every 2^32 packets).
  void begin_packet(const SimContext& ctx);

  /// Marks the state seen; returns true iff it was already seen this packet.
  [[nodiscard]] bool mark_seen(int sid) {
    if (seen_[static_cast<size_t>(sid)] == epoch_) return true;
    seen_[static_cast<size_t>(sid)] = epoch_;
    return false;
  }

  /// Walk index at which sid was first entered this packet, -1 if never.
  [[nodiscard]] int first_step(int sid) const {
    return seen_[static_cast<size_t>(sid)] == epoch_ ? first_step_[static_cast<size_t>(sid)] : -1;
  }
  void set_first_step(int sid, int step) {
    seen_[static_cast<size_t>(sid)] = epoch_;
    first_step_[static_cast<size_t>(sid)] = step;
  }

  /// Marks v as a member of the surviving component / as covered by the
  /// walk; returns true iff it was already marked this packet.
  [[nodiscard]] bool mark_component(VertexId v) {
    if (comp_stamp_[static_cast<size_t>(v)] == epoch_) return true;
    comp_stamp_[static_cast<size_t>(v)] = epoch_;
    return false;
  }
  [[nodiscard]] bool in_component(VertexId v) const {
    return comp_stamp_[static_cast<size_t>(v)] == epoch_;
  }
  [[nodiscard]] bool mark_covered(VertexId v) {
    if (cov_stamp_[static_cast<size_t>(v)] == epoch_) return true;
    cov_stamp_[static_cast<size_t>(v)] = epoch_;
    return false;
  }
  [[nodiscard]] bool is_covered(VertexId v) const {
    return cov_stamp_[static_cast<size_t>(v)] == epoch_;
  }

  /// Scratch for the locally visible failure set (failures & incident mask).
  [[nodiscard]] IdSet& local_failures() { return local_; }
  /// Scratch walk buffer (touring records its walk here when the caller does
  /// not want one back).
  [[nodiscard]] std::vector<VertexId>& walk_scratch() { return walk_; }
  /// Scratch BFS queue for the component sweep of tour evaluation.
  [[nodiscard]] std::vector<VertexId>& queue_scratch() { return queue_; }

  // -- group-parallel routing (route_groups_fast's side of the contract) ----
  //
  // The group core keeps two memo layers here. Per *chunk*: lazily computed
  // per-(node, group-slot) port masks of the locally failed edges, epoch-
  // stamped so begin_chunk resets them in O(1). Per *workspace lifetime*: a
  // flat open-addressing cache of forwarding transitions keyed by
  // (header class, state id, local port mask) — the pattern's determinism
  // contract makes the next state a pure function of that key, and local
  // masks repeat massively across the failure sets of an exhaustive stream,
  // so after warmup almost every hop is one hash probe instead of a
  // pattern.forward() call. The cache is tied to one (graph, pattern)
  // identity via Graph::uid / ForwardingPattern::uid — never-reused tokens,
  // so a workspace persisted across calls (and across SweepEngine runs)
  // keeps its warm cache without address-aliasing hazards, and flushes
  // exactly when the graph or pattern actually changes.

  /// Decision-cache sentinel values (< 0 so they never collide with states).
  static constexpr int64_t kDecisionMiss = -1;
  static constexpr int64_t kDecisionDrop = -2;
  static constexpr int64_t kDecisionInvalid = -3;
  /// Port-mask flag: the node's degree exceeds 63 ports, so its local
  /// failure set does not fit the mask word and its decisions bypass the
  /// cache (real masks only ever use bits 0..62).
  static constexpr uint64_t kWidePortMask = uint64_t{1} << 63;

  /// Binds the workspace to (ctx, pattern) for one route_groups_fast call:
  /// sizes the group buffers and flushes the decision cache iff the
  /// (graph uid, pattern uid) identity changed since the previous call.
  void begin_session(const SimContext& ctx, const ForwardingPattern& pattern);

  /// Starts a new <= 64-packet lockstep chunk (resets the per-state seen
  /// rows and the per-(node, slot) port masks in O(1)).
  void begin_chunk();

  /// Whether the bound graph's whole edge set fits one 64-bit word (1 <= m
  /// <= 64). The locally visible failure set at v is then just
  /// failures.word(0) & incident_words()[v] — a single AND, with no port
  /// projection and no per-chunk memo — and that word doubles as the
  /// decision-cache mask key: per vertex, the port projection is a bijection
  /// on subsets of the incident word, so the key is exactly as
  /// discriminating as the port mask it replaces.
  [[nodiscard]] bool edge_word_mode() const { return edge_word_mode_; }
  /// Per-vertex incident-edge words (valid in edge_word_mode only).
  [[nodiscard]] const uint64_t* incident_words() const { return iw_.data(); }

  /// Port mask of `failures`' edges incident to v (bit p = port p failed),
  /// or kWidePortMask when v's degree exceeds the mask width. Memoized per
  /// (node, group slot) under the chunk epoch; slots are the low 6 bits of
  /// the dense group ordinal, collision-free within a chunk because a chunk
  /// spans at most 64 consecutive ordinals. Graphs too large for the dense
  /// slot table skip the memo and recompute (still exact).
  [[nodiscard]] uint64_t port_mask(const SimContext& ctx, VertexId v, int slot,
                                   const IdSet& failures) {
    if (!pmask_dense_) return compute_port_mask(ctx, v, failures);
    const size_t idx = (static_cast<size_t>(v) << 6) | static_cast<size_t>(slot);
    if (pmask_stamp_[idx] == chunk_epoch_) return pmask_[idx];
    const uint64_t mask = compute_port_mask(ctx, v, failures);
    pmask_[idx] = mask;
    pmask_stamp_[idx] = chunk_epoch_;
    return mask;
  }

  /// The chunk's seen row for a state: bit p set iff packet p of the current
  /// chunk already visited the state.
  [[nodiscard]] uint64_t seen_row(int sid) const {
    const SeenRow& r = gseen_[static_cast<size_t>(sid)];
    return r.stamp == chunk_epoch_ ? r.row : 0;
  }
  void store_seen_row(int sid, uint64_t row) {
    SeenRow& r = gseen_[static_cast<size_t>(sid)];
    r.row = row;
    r.stamp = chunk_epoch_;
  }

  /// Cached transition for (class/state key, port mask): the next state id,
  /// kDecisionDrop, kDecisionInvalid — or kDecisionMiss when absent.
  [[nodiscard]] int64_t lookup_decision(uint64_t key_cs, uint64_t key_mask) const {
    if (dc_.empty()) return kDecisionMiss;
    const size_t cap_mask = dc_.size() - 1;
    size_t i = static_cast<size_t>(decision_hash(key_cs, key_mask)) & cap_mask;
    for (;; i = (i + 1) & cap_mask) {
      const DecisionSlot& slot = dc_[i];
      if (slot.cs == key_cs && slot.mask == key_mask) return slot.next;
      if (slot.cs == kEmptySlot) return kDecisionMiss;
    }
  }
  /// Inserts a computed transition (no-op once the cache is at capacity).
  void insert_decision(uint64_t key_cs, uint64_t key_mask, int64_t next);

 private:
  /// One decision-cache entry, padded to 32 bytes so a probe touches one
  /// cache line (the 3-parallel-array layout it replaces touched three).
  struct alignas(32) DecisionSlot {
    uint64_t cs = ~uint64_t{0};  // kEmptySlot marks a free slot
    uint64_t mask = 0;
    int64_t next = 0;
  };

  /// One state's chunk seen row with its validity stamp on the same cache
  /// line (a split row/stamp array pair would touch two lines per probe).
  struct SeenRow {
    uint64_t row = 0;
    uint32_t stamp = 0;
  };

  /// Mixes the 128-bit decision key down to a table index seed.
  [[nodiscard]] static uint64_t decision_hash(uint64_t key_cs, uint64_t key_mask) {
    uint64_t h = key_mask * 0x9e3779b97f4a7c15ull;
    h ^= key_cs + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    return h ^ (h >> 27);
  }

  [[nodiscard]] uint64_t compute_port_mask(const SimContext& ctx, VertexId v,
                                           const IdSet& failures);
  void grow_decision_cache();

  uint32_t epoch_ = 0;
  std::vector<uint32_t> seen_;        // per state: seen iff stamp == epoch_
  std::vector<int> first_step_;       // valid iff seen_[sid] == epoch_
  std::vector<uint32_t> comp_stamp_;  // per vertex: in surviving component
  std::vector<uint32_t> cov_stamp_;   // per vertex: visited by the walk
  IdSet local_;
  std::vector<VertexId> walk_;
  std::vector<VertexId> queue_;

  // Group-parallel buffers (see the contract block above).
  uint32_t chunk_epoch_ = 0;
  bool edge_word_mode_ = false;        // whole edge set fits one word
  bool pmask_dense_ = true;            // dense (node, slot) memo table in use
  std::vector<uint64_t> iw_;           // per vertex: incident-edge word
  std::vector<uint64_t> pmask_;        // (v << 6 | slot): local failure ports
  std::vector<uint32_t> pmask_stamp_;
  std::vector<SeenRow> gseen_;         // per state: chunk seen row + stamp
  // Decision cache: flat open addressing over DecisionSlots, capacity a
  // power of two. cs == kEmptySlot marks a free slot (never a real key: the
  // class id fits 31 bits for any graph the cache admits).
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
  std::vector<DecisionSlot> dc_;
  size_t dc_size_ = 0;
  uint64_t dc_graph_uid_ = 0;    // cache identity: graph ... (0 = unbound)
  uint64_t dc_pattern_uid_ = 0;  // ... and pattern uids
};

struct RoutingResult {
  RoutingOutcome outcome = RoutingOutcome::kLooped;
  int hops = 0;
  /// The node sequence walked, starting at the source. Bounded by the number
  /// of distinct (node, in-port) states plus one.
  std::vector<VertexId> walk;
};

/// Outcome-only routing result: what the sweep tallies need, nothing that
/// would force the core to record the walk.
struct FastRouteResult {
  RoutingOutcome outcome = RoutingOutcome::kLooped;
  int hops = 0;
};

/// Routes one packet from `source` toward `header.destination` under the
/// (global) failure set; the pattern only ever sees failures incident to the
/// current node. The header is masked according to the pattern's model
/// before every forwarding call.
[[nodiscard]] RoutingResult route_packet(const Graph& g, const ForwardingPattern& pattern,
                                         const IdSet& failures, VertexId source, Header header);

/// Same walk-recording simulation with caller-provided context/workspace
/// (one allocation for the returned walk, nothing else).
[[nodiscard]] RoutingResult route_packet(const SimContext& ctx, const ForwardingPattern& pattern,
                                         const IdSet& failures, VertexId source, Header header,
                                         RoutingWorkspace& ws);

/// Zero-allocation outcome-only variant: bit-identical outcome and hop count
/// to route_packet, no walk recorded.
[[nodiscard]] FastRouteResult route_packet_fast(const SimContext& ctx,
                                                const ForwardingPattern& pattern,
                                                const IdSet& failures, VertexId source,
                                                Header header, RoutingWorkspace& ws);

/// Vectorized outcome tallies of route_groups_fast: each counter is
/// accumulated one popcount per lockstep round, not one increment per packet.
struct GroupRouteTally {
  int64_t delivered = 0;
  int64_t looped = 0;
  int64_t dropped = 0;
  int64_t invalid = 0;
  int64_t hops_delivered = 0;  // sum hops over delivered packets
};

/// Routes all `count` packets (sources[i] -> destinations[i]) in lockstep,
/// in chunks of up to 64 packets — packets of *different failure-set groups
/// share a chunk*, so small groups (a 4-pair exhaustive stream, Monte Carlo
/// singletons) still fill the 64-wide machinery. group_of[i] names packet
/// i's group as a dense ordinal into `failure_sets` (non-decreasing, and
/// stepping by exactly 1 whenever it changes — that density bounds a chunk
/// to 64 consecutive ordinals, which the per-(node, slot) port-mask memo
/// relies on); nullptr means a single shared group 0.
///
/// One 64-bit word per (state, chunk) carries the packets' seen bits,
/// termination is tracked in per-outcome words, and the tallies accumulate
/// via popcount per round. Forwarding transitions are memoized in the
/// workspace keyed by (header class, state id, local failure port mask) —
/// sound because the pattern contract makes them a pure function of that
/// key — so repeated states inside a chunk and across groups, calls and
/// engine runs skip pattern.forward entirely.
///
/// Per packet, the outcome and hop count are bit-identical to
/// route_packet_fast with the same arguments (destinations[i] must not be
/// kNoVertex). When `results` is non-null it receives all `count` per-packet
/// results; pass nullptr when only the tallies are needed.
GroupRouteTally route_groups_fast(const SimContext& ctx, const ForwardingPattern& pattern,
                                  const IdSet* const* failure_sets, const int32_t* group_of,
                                  const VertexId* sources, const VertexId* destinations,
                                  int count, RoutingWorkspace& ws,
                                  FastRouteResult* results = nullptr);

struct TourResult {
  /// True iff some prefix of the walk returns to the start after having
  /// visited every node of the start's surviving component (paper §VII:
  /// "routes the packet from v to all nodes in its component and back").
  bool success = false;
  bool dropped = false;
  int steps_walked = 0;
  std::vector<VertexId> walk;
  std::vector<VertexId> missed;  // component nodes never visited
};

/// Outcome-only tour result (see TourResult for the semantics).
struct FastTourResult {
  bool success = false;
  bool dropped = false;
  int steps_walked = 0;
};

/// Simulates the touring pattern from `start` until the walk provably cycles
/// (state repetition), then evaluates tour success.
[[nodiscard]] TourResult tour_packet(const Graph& g, const ForwardingPattern& pattern,
                                     const IdSet& failures, VertexId start);

/// Walk-recording tour with caller-provided context/workspace.
[[nodiscard]] TourResult tour_packet(const SimContext& ctx, const ForwardingPattern& pattern,
                                     const IdSet& failures, VertexId start, RoutingWorkspace& ws);

/// Zero-allocation outcome-only variant: bit-identical success/dropped/steps
/// to tour_packet, no walk or missed list returned.
[[nodiscard]] FastTourResult tour_packet_fast(const SimContext& ctx,
                                              const ForwardingPattern& pattern,
                                              const IdSet& failures, VertexId start,
                                              RoutingWorkspace& ws);

/// Allocation-free equivalent of distance(g, u, v, failures), -1 when u and
/// v are disconnected: a level-synchronous BFS over the surviving graph on
/// the workspace's epoch-stamped buffers, with early exit on reaching v.
/// The sweep engine's stretch step falls back to it when the failure-free
/// bounds do not settle a delivery's distance.
[[nodiscard]] int distance_fast(const SimContext& ctx, const IdSet& failures, VertexId u,
                                VertexId v, RoutingWorkspace& ws);

/// Allocation-free equivalent of connected(g, u, v, failures), i.e.
/// distance_fast(...) >= 0; the sweep engine's default promise check for
/// singleton failure-set groups.
[[nodiscard]] bool connected_fast(const SimContext& ctx, const IdSet& failures, VertexId u,
                                  VertexId v, RoutingWorkspace& ws);

}  // namespace pofl
