#pragma once

// Scenario streams for the sweep engine.
//
// A scenario is one routing question — "from `source` toward `destination`
// under failure set F" — and a ScenarioSource is a deterministic, resettable
// stream of them. Producers are pulled in batches under the engine's lock, so
// a source may keep simple sequential state (Gosper masks, a PRNG) and still
// yield the same scenario sequence regardless of how many workers consume it.
//
// Streaming is zero-copy: sources fill a reusable ScenarioBatch in place — a
// structure-of-arrays of (failure-set group, source, destination, replay tag)
// columns — and the engine reads straight out of it. Scenarios that share a
// failure set share one IdSet in the batch instead of each carrying a copy,
// and consecutive entries are grouped by failure set, so failure-set-major
// streams stay failure-set-major all the way into the workers' group promise
// check and router. The batch is the only way to read a stream;
// ScenarioBatch::scenario(i) materializes a standalone copy where one is
// needed (witnesses, tests).
//
// Four families cover the experiments in the paper and its §IX outlook:
//
//   * ExhaustiveFailureSource — every failure set with |F| <= k, crossed with
//     a pair list (the machine-checked positive theorems);
//   * RandomFailureSource     — Monte Carlo draws, either i.i.d. per-link
//     probability p (the §IX random-failure regime) or uniform exactly-k
//     sets (the stretch experiments), both on the graph/fast_rand draw
//     (xoshiro256** state, Floyd's algorithm for exact-count sampling, no
//     per-draw heap);
//   * SampledFailureSource    — the sampled verifier's refutation
//     distribution (uniform size, edges drawn with replacement);
//   * FixedScenarioSource     — a caller-provided list, e.g. a library of
//     mined defeats to replay against other patterns.

#include <cassert>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "graph/bitmask.hpp"
#include "graph/fast_rand.hpp"
#include "graph/graph.hpp"

namespace pofl {

/// One routing question. destination == kNoVertex marks a touring scenario
/// (tour_packet from `source` instead of route_packet).
struct Scenario {
  IdSet failures;
  VertexId source = kNoVertex;
  VertexId destination = kNoVertex;
};

/// Reusable structure-of-arrays scenario storage. Sources refill it in place
/// (clear() keeps every buffer, including the group IdSets' heap blocks, so
/// steady-state production allocates nothing); consumers index columns
/// directly and borrow failure sets by reference instead of copying them.
///
/// Scenarios are partitioned into consecutive *groups* that share one
/// failure set: group_of() is non-decreasing over the batch and every group
/// is non-empty. The per-scenario `tag` is an opaque replay marker chosen by
/// the source (Gosper mask, draw ordinal, list position, ...) — it never
/// affects simulation, but pins streams in the replay/determinism tests.
class ScenarioBatch {
 public:
  [[nodiscard]] int size() const { return static_cast<int>(src_.size()); }
  [[nodiscard]] bool empty() const { return src_.empty(); }
  [[nodiscard]] int num_groups() const { return num_groups_; }

  /// Drops all scenarios and groups but keeps every buffer's capacity.
  void clear() {
    src_.clear();
    dst_.clear();
    tag_.clear();
    group_.clear();
    num_groups_ = 0;
  }

  // -- producer side ---------------------------------------------------------

  /// Opens a new failure-set group and returns its IdSet to fill in place.
  /// The returned set holds stale contents from a previous refill; the
  /// caller must overwrite it (reset_universe(), assignment, ...).
  IdSet& start_group() {
    if (static_cast<size_t>(num_groups_) == group_failures_.size()) {
      group_failures_.emplace_back();
    }
    return group_failures_[static_cast<size_t>(num_groups_++)];
  }

  /// Opens a new group holding a copy of `failures` (the copy reuses the
  /// slot's existing storage).
  void start_group(const IdSet& failures) { start_group() = failures; }

  /// Appends one scenario to the currently open group.
  void push(VertexId source, VertexId destination, uint64_t tag = 0) {
    assert(num_groups_ > 0);
    group_.push_back(num_groups_ - 1);
    src_.push_back(source);
    dst_.push_back(destination);
    tag_.push_back(tag);
  }

  // -- consumer side ---------------------------------------------------------

  [[nodiscard]] const IdSet& group_failures(int group) const {
    return group_failures_[static_cast<size_t>(group)];
  }
  [[nodiscard]] int group_of(int i) const { return group_[static_cast<size_t>(i)]; }
  [[nodiscard]] const IdSet& failures(int i) const { return group_failures(group_of(i)); }
  [[nodiscard]] VertexId source(int i) const { return src_[static_cast<size_t>(i)]; }
  [[nodiscard]] VertexId destination(int i) const { return dst_[static_cast<size_t>(i)]; }
  [[nodiscard]] uint64_t tag(int i) const { return tag_[static_cast<size_t>(i)]; }

  /// Materializes scenario i as a standalone Scenario (copies the failure
  /// set) — the witness path, not the hot one.
  [[nodiscard]] Scenario scenario(int i) const {
    return Scenario{failures(i), source(i), destination(i)};
  }

 private:
  std::vector<IdSet> group_failures_;  // slots outlive clear(); active prefix = num_groups_
  int num_groups_ = 0;
  std::vector<int32_t> group_;  // per-scenario group index, non-decreasing
  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  std::vector<uint64_t> tag_;
};

/// Deterministic stream of scenarios. next_batch is always called serially
/// (the engine holds a producer lock), so implementations need no internal
/// synchronization; they must yield the same sequence after each reset().
///
/// Sharding: shard(i, n) restricts the stream to the i-th of n deterministic
/// shards. The shards partition the canonical (unsharded) stream — every
/// scenario appears in exactly one shard, in canonical order within it — so
/// n processes can each sweep one shard and merge the SweepReports into the
/// bit-identical unsharded result. The partition is group-granular (whole
/// failure-set groups go to one shard: Gosper masks for the exhaustive
/// stream, samples for the legacy sampled stream, group runs for
/// fixed lists) except for the Monte Carlo stream, which leapfrogs draw
/// ordinals over skipped xoshiro substates so the union of all shards' draws
/// reproduces the unsharded draw sequence exactly. Implementations must
/// honor shard_index()/shard_count() in next_batch/reset and override
/// global_index(); every in-tree source does.
class ScenarioSource {
 public:
  virtual ~ScenarioSource() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Restricts the stream to shard `index` of `count` and rewinds it
  /// (implies reset(); shard(0, 1) restores the full stream). Throws
  /// std::invalid_argument unless 0 <= index < count.
  void shard(int index, int count);
  [[nodiscard]] int shard_index() const { return shard_index_; }
  [[nodiscard]] int shard_count() const { return shard_count_; }
  [[nodiscard]] bool sharded() const { return shard_count_ > 1; }

  /// Canonical (unsharded) stream position of the `local`-th scenario this
  /// stream yields under its current shard configuration. The identity map
  /// when unsharded. This is what lets a shard-local SweepFinding index be
  /// compared across shards: the canonical-order minimum witness is the
  /// finding whose global index is smallest.
  [[nodiscard]] virtual int64_t global_index(int64_t local) const { return local; }

  /// Clears `out` and refills it in place with up to max_batch scenarios;
  /// returns how many were produced, 0 meaning the stream is exhausted.
  virtual int next_batch(int max_batch, ScenarioBatch& out) = 0;

  /// Rewinds the stream to the beginning (same sequence again).
  virtual void reset() = 0;

  /// Scenarios a full stream yields, or -1 when unknown. A sizing hint only
  /// — the engine uses it to avoid spawning more workers than there are
  /// batches; it never affects results.
  [[nodiscard]] virtual int64_t total_hint() const { return -1; }

 private:
  int shard_index_ = 0;
  int shard_count_ = 1;
};

/// All ordered (s, t) pairs with s != t — the default pair universe.
[[nodiscard]] std::vector<std::pair<VertexId, VertexId>> all_ordered_pairs(const Graph& g);

/// Every vertex as a touring start: pairs of (v, kNoVertex), which the
/// sources cross with failure sets into touring scenarios.
[[nodiscard]] std::vector<std::pair<VertexId, VertexId>> all_touring_starts(const Graph& g);

/// Every failure set with |F| in [min_failures, max_failures], enumerated in
/// increasing cardinality (Gosper's hack over multi-word EdgeMasks), crossed
/// with the given (source, destination) pairs. Requires m <=
/// EdgeMask::kMaxBits edges (checked, throws). A nonzero min_failures
/// selects a stratum window, so incremental budget probes can sweep each
/// cardinality exactly once. Batch groups are per mask, decoded once into
/// the batch, shared by every pair. The replay tag is the mask itself when
/// it fits 64 bits (bit-compatible with the historical uint64 stream) and
/// the canonical Gosper ordinal on wider graphs — both stable across batch
/// sizes, resets and shard configurations.
class ExhaustiveFailureSource final : public ScenarioSource {
 public:
  ExhaustiveFailureSource(const Graph& g, int max_failures,
                          std::vector<std::pair<VertexId, VertexId>> pairs);
  ExhaustiveFailureSource(const Graph& g, int min_failures, int max_failures,
                          std::vector<std::pair<VertexId, VertexId>> pairs);

  [[nodiscard]] std::string name() const override;
  int next_batch(int max_batch, ScenarioBatch& out) override;
  void reset() override;
  [[nodiscard]] int64_t total_hint() const override { return total_scenarios(); }
  /// Sharding is mask-granular: shard i owns the masks with Gosper ordinal
  /// congruent to i mod n, each still crossed with the full pair list.
  [[nodiscard]] int64_t global_index(int64_t local) const override;

  /// Number of scenarios this stream yields (pairs x failure sets; the
  /// current shard's share when sharded).
  [[nodiscard]] int64_t total_scenarios() const;

 private:
  bool advance_mask();
  void advance_to_owned_mask();

  const Graph* g_;
  int min_failures_;
  int max_failures_;
  std::vector<std::pair<VertexId, VertexId>> pairs_;
  int size_ = 0;
  EdgeMask mask_;
  int64_t mask_ordinal_ = 0;  // canonical Gosper ordinal of mask_
  size_t pair_index_ = 0;
  bool exhausted_ = false;
};

/// Monte Carlo failure draws crossed with a pair list. Two modes:
/// iid(p) draws every link independently with probability p;
/// exact_count(k) draws a uniform failure set of exactly k links.
/// Draws ride graph/fast_rand (xoshiro256** per-source state, integer coin,
/// Floyd's exact-count sampling) straight into the batch's group IdSets —
/// no per-draw heap, and sequences that are identical across platforms for
/// a fixed seed. Each draw is its own batch group (replay tag: the draw
/// ordinal).
class RandomFailureSource final : public ScenarioSource {
 public:
  [[nodiscard]] static RandomFailureSource iid(const Graph& g, double p, int trials_per_pair,
                                               uint64_t seed,
                                               std::vector<std::pair<VertexId, VertexId>> pairs);
  [[nodiscard]] static RandomFailureSource exact_count(
      const Graph& g, int num_failures, int trials_per_pair, uint64_t seed,
      std::vector<std::pair<VertexId, VertexId>> pairs);

  [[nodiscard]] std::string name() const override;
  int next_batch(int max_batch, ScenarioBatch& out) override;
  void reset() override;
  [[nodiscard]] int64_t total_hint() const override;
  /// Sharding leapfrogs the draw ordinals: shard i owns draws i, i+n, ...
  /// and advances its xoshiro state over the skipped draws (iid_skip /
  /// floyd_skip consume the generator exactly like the draws they skip), so
  /// the union of all shards' failure sets is the unsharded draw sequence,
  /// draw for draw.
  [[nodiscard]] int64_t global_index(int64_t local) const override;

 private:
  RandomFailureSource(const Graph& g, bool exact, double p, int num_failures,
                      int trials_per_pair, uint64_t seed,
                      std::vector<std::pair<VertexId, VertexId>> pairs);

  void draw_into(IdSet& out);
  void skip_draw();
  [[nodiscard]] int64_t total_draws() const {
    return trials_per_pair_ > 0
               ? static_cast<int64_t>(trials_per_pair_) * static_cast<int64_t>(pairs_.size())
               : 0;
  }

  const Graph* g_;
  bool exact_;
  double p_;
  uint64_t coin_threshold_;
  int num_failures_;
  int trials_per_pair_;
  uint64_t seed_;
  std::vector<std::pair<VertexId, VertexId>> pairs_;
  FastRng rng_;
  int64_t rng_ordinal_ = 0;  // draws consumed from the generator so far
  int64_t ordinal_ = 0;      // next draw ordinal this shard owns
};

/// The refutation distribution of the sampled verifier: `samples` failure
/// sets, each of uniform size in [0, max_failures] with edges drawn with
/// replacement, crossed with the pair list failure-set-major (every pair sees
/// draw i before draw i+1 is made). Matches the legacy verifier's RNG
/// sequence exactly for a given seed, so sampled refutations stay
/// reproducible across the engine migration. Batch groups are per sample
/// (replay tag: the sample index).
class SampledFailureSource final : public ScenarioSource {
 public:
  SampledFailureSource(const Graph& g, int max_failures, int samples, uint64_t seed,
                       std::vector<std::pair<VertexId, VertexId>> pairs);

  [[nodiscard]] std::string name() const override;
  int next_batch(int max_batch, ScenarioBatch& out) override;
  void reset() override;
  [[nodiscard]] int64_t total_hint() const override;
  /// Sharding is sample-granular: shard i owns samples i, i+n, ..., and
  /// replays (then discards) the other shards' draws so the legacy mt19937
  /// sequence stays aligned with the unsharded stream.
  [[nodiscard]] int64_t global_index(int64_t local) const override;

 private:
  void draw_current();
  void advance_to_owned_sample();

  const Graph* g_;
  int max_failures_;
  int samples_;
  uint64_t seed_;
  std::vector<std::pair<VertexId, VertexId>> pairs_;
  std::mt19937_64 rng_;
  IdSet current_;
  int sample_index_ = 0;
  size_t pair_index_ = 0;
};

/// A fixed, caller-provided scenario list (tests, replaying stored defeats).
/// Consecutive scenarios sharing a failure set share a batch group (replay
/// tag: the list position).
class FixedScenarioSource final : public ScenarioSource {
 public:
  explicit FixedScenarioSource(std::vector<Scenario> scenarios, std::string name = "fixed");

  [[nodiscard]] std::string name() const override { return name_; }
  int next_batch(int max_batch, ScenarioBatch& out) override;
  void reset() override;
  [[nodiscard]] int64_t total_hint() const override;
  /// Sharding is group-granular over the runs of consecutive equal failure
  /// sets in the list.
  [[nodiscard]] int64_t global_index(int64_t local) const override;

 private:
  [[nodiscard]] size_t num_groups() const;

  std::vector<Scenario> scenarios_;
  std::string name_;
  std::vector<size_t> group_starts_;  // group run offsets + total sentinel
  size_t group_ = 0;                  // current group ordinal (canonical)
  size_t offset_ = 0;                 // position inside the current group
};

}  // namespace pofl
