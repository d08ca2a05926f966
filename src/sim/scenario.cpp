#include "sim/scenario.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/bitmask.hpp"

namespace pofl {

void ScenarioSource::shard(int index, int count) {
  if (count < 1 || index < 0 || index >= count) {
    throw std::invalid_argument("ScenarioSource::shard: need 0 <= index < count, got " +
                                std::to_string(index) + "/" + std::to_string(count));
  }
  shard_index_ = index;
  shard_count_ = count;
  reset();
}

std::vector<std::pair<VertexId, VertexId>> all_ordered_pairs(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(static_cast<size_t>(g.num_vertices()) * (g.num_vertices() - 1));
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  return pairs;
}

std::vector<std::pair<VertexId, VertexId>> all_touring_starts(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> starts;
  starts.reserve(static_cast<size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) starts.emplace_back(v, kNoVertex);
  return starts;
}

ExhaustiveFailureSource::ExhaustiveFailureSource(const Graph& g, int max_failures,
                                                 std::vector<std::pair<VertexId, VertexId>> pairs)
    : ExhaustiveFailureSource(g, 0, max_failures, std::move(pairs)) {}

ExhaustiveFailureSource::ExhaustiveFailureSource(const Graph& g, int min_failures,
                                                 int max_failures,
                                                 std::vector<std::pair<VertexId, VertexId>> pairs)
    : g_(&g),
      min_failures_(std::max(0, min_failures)),
      max_failures_(std::min(max_failures, g.num_edges())),
      pairs_(std::move(pairs)) {
  // Always-on (NDEBUG included): an oversize graph must fail loudly here,
  // not silently corrupt the enumeration downstream.
  EdgeMask::check_capacity(g.num_edges(), "ExhaustiveFailureSource");
  reset();
}

std::string ExhaustiveFailureSource::name() const {
  if (min_failures_ > 0) {
    return "exhaustive[" + std::to_string(min_failures_) + ".." +
           std::to_string(max_failures_) + "]";
  }
  return "exhaustive<=" + std::to_string(max_failures_);
}

void ExhaustiveFailureSource::reset() {
  size_ = min_failures_;
  pair_index_ = 0;
  mask_ordinal_ = 0;
  exhausted_ = pairs_.empty() || max_failures_ < min_failures_;
  mask_ = EdgeMask(g_->num_edges());
  // Only seed when the stratum is live: max_failures_ <= num_edges bounds
  // size_, so the first size-k mask always fits the universe. (The old
  // uint64 form shifted `1 << size_` here — undefined at exactly 64 edges;
  // EdgeMask's word-wise fill has no such cliff.)
  if (!exhausted_ && size_ > 0) mask_.assign_first_k(size_);
  advance_to_owned_mask();
}

bool ExhaustiveFailureSource::advance_mask() {
  ++mask_ordinal_;
  if (size_ > 0) {
    mask_.next_same_popcount();
    // Exhaustion check with an explicit bound instead of `mask < 1 << m`:
    // the Gosper carry past the top in-universe mask lands at bit >= m.
    if (!mask_.any_at_or_above(g_->num_edges())) return true;
  }
  ++size_;
  if (size_ > max_failures_) return false;
  mask_.assign_first_k(size_);  // size_ <= max_failures_ <= num_edges
  return true;
}

/// Skips masks until mask_ordinal_ lands on a Gosper ordinal this shard
/// owns. Gosper advancement is O(1) per mask, so the leapfrog costs
/// O(shard_count) bit tricks per emitted group.
void ExhaustiveFailureSource::advance_to_owned_mask() {
  while (!exhausted_ && mask_ordinal_ % shard_count() != shard_index()) {
    if (!advance_mask()) exhausted_ = true;
  }
}

int ExhaustiveFailureSource::next_batch(int max_batch, ScenarioBatch& out) {
  out.clear();
  int appended = 0;
  while (appended < max_batch && !exhausted_) {
    // One group per mask, decoded straight into the batch; a batch boundary
    // in the middle of a pair block re-opens the group for the same mask.
    if (appended == 0 || pair_index_ == 0) {
      edge_mask_write(*g_, mask_, out.start_group());
    }
    // Replay tag: the raw mask while it fits 64 bits (bit-identical to the
    // historical uint64 stream, which the golden baselines and tag-pinning
    // tests rely on), the canonical Gosper ordinal beyond that.
    const uint64_t tag = g_->num_edges() <= 64 ? mask_.low64()
                                               : static_cast<uint64_t>(mask_ordinal_);
    out.push(pairs_[pair_index_].first, pairs_[pair_index_].second, tag);
    ++appended;
    if (++pair_index_ == pairs_.size()) {
      pair_index_ = 0;
      if (!advance_mask()) exhausted_ = true;
      advance_to_owned_mask();
    }
  }
  return appended;
}

int64_t ExhaustiveFailureSource::total_scenarios() const {
  // Saturating: wide universes overflow even __int128 through the middle of
  // Pascal's row, so each C(m, k) is computed by the exact prefix-product
  // formula (every partial product is the integer C(m-k+i, i)) and clamped
  // at int64 max; sums and products saturate with it.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int m = g_->num_edges();
  const auto binom_clamped = [m](int k) -> __int128 {
    k = std::min(k, m - k);
    if (k < 0) return 0;
    unsigned __int128 r = 1;
    for (int i = 1; i <= k; ++i) {
      r = r * static_cast<unsigned>(m - k + i) / static_cast<unsigned>(i);
      if (r > static_cast<unsigned __int128>(kMax)) return kMax;
    }
    return static_cast<__int128>(r);
  };
  __int128 sets = 0;
  for (int k = min_failures_; k <= max_failures_; ++k) {
    sets += binom_clamped(k);
    if (sets > kMax) {
      sets = kMax;
      break;
    }
  }
  // This shard owns the masks with ordinal congruent to shard_index().
  const __int128 owned =
      sets > shard_index() ? (sets - shard_index() + shard_count() - 1) / shard_count() : 0;
  const __int128 total = owned * static_cast<__int128>(pairs_.size());
  return total > kMax ? kMax : static_cast<int64_t>(total);
}

int64_t ExhaustiveFailureSource::global_index(int64_t local) const {
  const auto pairs = static_cast<int64_t>(pairs_.size());
  if (pairs == 0) return -1;
  const int64_t ordinal = shard_index() + (local / pairs) * shard_count();
  return ordinal * pairs + local % pairs;
}

RandomFailureSource RandomFailureSource::iid(const Graph& g, double p, int trials_per_pair,
                                             uint64_t seed,
                                             std::vector<std::pair<VertexId, VertexId>> pairs) {
  return RandomFailureSource(g, /*exact=*/false, p, 0, trials_per_pair, seed, std::move(pairs));
}

RandomFailureSource RandomFailureSource::exact_count(
    const Graph& g, int num_failures, int trials_per_pair, uint64_t seed,
    std::vector<std::pair<VertexId, VertexId>> pairs) {
  return RandomFailureSource(g, /*exact=*/true, 0.0, num_failures, trials_per_pair, seed,
                             std::move(pairs));
}

RandomFailureSource::RandomFailureSource(const Graph& g, bool exact, double p, int num_failures,
                                         int trials_per_pair, uint64_t seed,
                                         std::vector<std::pair<VertexId, VertexId>> pairs)
    : g_(&g),
      exact_(exact),
      p_(p),
      coin_threshold_(coin_threshold(p)),
      num_failures_(num_failures),
      trials_per_pair_(trials_per_pair),
      seed_(seed),
      pairs_(std::move(pairs)),
      rng_(seed) {
  reset();
}

std::string RandomFailureSource::name() const {
  return exact_ ? "random|F|=" + std::to_string(num_failures_)
                : "random p=" + std::to_string(p_);
}

void RandomFailureSource::reset() {
  rng_ = FastRng(seed_);
  rng_ordinal_ = 0;
  ordinal_ = shard_index();
}

void RandomFailureSource::draw_into(IdSet& out) {
  if (exact_) {
    floyd_sample(rng_, g_->num_edges(), std::min(num_failures_, g_->num_edges()), out);
  } else {
    iid_sample(rng_, g_->num_edges(), coin_threshold_, out);
  }
}

/// Consumes one draw's worth of generator state without materializing the
/// failure set — how a shard leapfrogs the draws other shards own.
void RandomFailureSource::skip_draw() {
  if (exact_) {
    floyd_skip(rng_, g_->num_edges(), std::min(num_failures_, g_->num_edges()));
  } else {
    iid_skip(rng_, g_->num_edges());
  }
}

int RandomFailureSource::next_batch(int max_batch, ScenarioBatch& out) {
  out.clear();
  const int64_t total = total_draws();
  int appended = 0;
  while (appended < max_batch && ordinal_ < total) {
    // Leapfrog to this shard's next draw: the generator must consume every
    // skipped ordinal's draws so draw `ordinal_` sees the exact state the
    // unsharded stream would give it.
    while (rng_ordinal_ < ordinal_) {
      skip_draw();
      ++rng_ordinal_;
    }
    // Every draw is fresh, so every scenario is its own group; the tag is
    // the canonical draw ordinal (stable across batch sizes, resets and
    // shard configurations).
    draw_into(out.start_group());
    ++rng_ordinal_;
    const auto pair = static_cast<size_t>(ordinal_ / trials_per_pair_);
    out.push(pairs_[pair].first, pairs_[pair].second, static_cast<uint64_t>(ordinal_));
    ++appended;
    ordinal_ += shard_count();
  }
  return appended;
}

int64_t RandomFailureSource::total_hint() const {
  const int64_t total = total_draws();
  return total > shard_index() ? (total - shard_index() + shard_count() - 1) / shard_count()
                               : 0;
}

int64_t RandomFailureSource::global_index(int64_t local) const {
  return shard_index() + local * shard_count();
}

SampledFailureSource::SampledFailureSource(const Graph& g, int max_failures, int samples,
                                           uint64_t seed,
                                           std::vector<std::pair<VertexId, VertexId>> pairs)
    : g_(&g),
      max_failures_(std::min(std::max(0, max_failures), g.num_edges())),
      samples_(samples),
      seed_(seed),
      pairs_(std::move(pairs)),
      rng_(seed),
      current_(g.empty_edge_set()) {
  reset();
}

std::string SampledFailureSource::name() const {
  return "sampled<=" + std::to_string(max_failures_) + " x" + std::to_string(samples_);
}

void SampledFailureSource::draw_current() {
  // Legacy draw: uniform size k in [0, cap], then k edge ids with
  // replacement — same RNG call sequence as the pre-engine verifier.
  // An edgeless graph caps k at 0; the edge distribution, whose range would
  // be empty there, is only built when k > 0 (constructing it draws nothing).
  std::uniform_int_distribution<int> size_dist(0, max_failures_);
  current_.reset_universe(g_->num_edges());
  const int k = size_dist(rng_);
  if (k == 0) return;
  std::uniform_int_distribution<int> edge_dist(0, g_->num_edges() - 1);
  for (int j = 0; j < k; ++j) current_.insert(edge_dist(rng_));
}

void SampledFailureSource::reset() {
  rng_.seed(seed_);
  sample_index_ = 0;
  pair_index_ = 0;
  if (samples_ > 0 && !pairs_.empty()) {
    draw_current();
    advance_to_owned_sample();
  }
}

/// Skips to this shard's next sample. The legacy mt19937 draw consumes a
/// data-dependent number of words, so skipped samples are drawn (into
/// current_) and discarded — cheap next to simulating them, and the only
/// way to keep the historical refuter sequence bit-aligned.
void SampledFailureSource::advance_to_owned_sample() {
  while (sample_index_ < samples_ && sample_index_ % shard_count() != shard_index()) {
    if (++sample_index_ < samples_) draw_current();
  }
}

int SampledFailureSource::next_batch(int max_batch, ScenarioBatch& out) {
  out.clear();
  int appended = 0;
  while (appended < max_batch && sample_index_ < samples_ && !pairs_.empty()) {
    // One group per sample; a batch boundary inside a pair block re-opens
    // the group with the current draw.
    if (appended == 0 || pair_index_ == 0) out.start_group(current_);
    out.push(pairs_[pair_index_].first, pairs_[pair_index_].second,
             static_cast<uint64_t>(sample_index_));
    ++appended;
    if (++pair_index_ == pairs_.size()) {
      pair_index_ = 0;
      if (++sample_index_ < samples_) draw_current();
      advance_to_owned_sample();
    }
  }
  return appended;
}

int64_t SampledFailureSource::total_hint() const {
  if (samples_ <= 0 || pairs_.empty()) return 0;
  const int64_t owned =
      samples_ > shard_index() ? (samples_ - shard_index() + shard_count() - 1) / shard_count()
                               : 0;
  return owned * static_cast<int64_t>(pairs_.size());
}

int64_t SampledFailureSource::global_index(int64_t local) const {
  const auto pairs = static_cast<int64_t>(pairs_.size());
  if (pairs == 0) return -1;
  const int64_t sample = shard_index() + (local / pairs) * shard_count();
  return sample * pairs + local % pairs;
}

FixedScenarioSource::FixedScenarioSource(std::vector<Scenario> scenarios, std::string name)
    : scenarios_(std::move(scenarios)), name_(std::move(name)) {
  // Group runs: offsets of consecutive scenarios with equal failure sets,
  // plus the list size as a sentinel — the unit of the shard partition.
  for (size_t i = 0; i < scenarios_.size(); ++i) {
    if (i == 0 || !(scenarios_[i].failures == scenarios_[i - 1].failures)) {
      group_starts_.push_back(i);
    }
  }
  group_starts_.push_back(scenarios_.size());
}

size_t FixedScenarioSource::num_groups() const { return group_starts_.size() - 1; }

int FixedScenarioSource::next_batch(int max_batch, ScenarioBatch& out) {
  // Walks this shard's groups (every shard_count()-th run) from the
  // (group_, offset_) cursor. Tags stay the canonical list position,
  // sharded or not.
  out.clear();
  int appended = 0;
  while (appended < max_batch && group_ < num_groups()) {
    const size_t i = group_starts_[group_] + offset_;
    // A batch boundary in the middle of a run re-opens the group.
    if (appended == 0 || offset_ == 0) out.start_group(scenarios_[i].failures);
    out.push(scenarios_[i].source, scenarios_[i].destination, i);
    ++appended;
    if (++offset_ == group_starts_[group_ + 1] - group_starts_[group_]) {
      offset_ = 0;
      group_ += static_cast<size_t>(shard_count());
    }
  }
  return appended;
}

void FixedScenarioSource::reset() {
  group_ = static_cast<size_t>(shard_index());
  offset_ = 0;
}

int64_t FixedScenarioSource::total_hint() const {
  int64_t total = 0;
  for (size_t g = static_cast<size_t>(shard_index()); g < num_groups();
       g += static_cast<size_t>(shard_count())) {
    total += static_cast<int64_t>(group_starts_[g + 1] - group_starts_[g]);
  }
  return total;
}

int64_t FixedScenarioSource::global_index(int64_t local) const {
  for (size_t g = static_cast<size_t>(shard_index()); g < num_groups();
       g += static_cast<size_t>(shard_count())) {
    const auto len = static_cast<int64_t>(group_starts_[g + 1] - group_starts_[g]);
    if (local < len) return static_cast<int64_t>(group_starts_[g]) + local;
    local -= len;
  }
  return -1;  // local is past the end of this shard's stream
}

}  // namespace pofl
