#pragma once

// Which sweep is this? The one answer `pofl_cli sweep` and the daemon share:
// a failure model (i.i.d. draws or every |F| <= k), a routing model, the
// pairs, stretch on or off, and the shard a run covers. key(), next to the
// graph's content hash, is what the daemon's result cache and the CLI's
// checkpoint.meta guard record: "same key" means "same report bytes". Grammar:
//   model=(sd|dest)|pattern=shortest-path|
//   (exhaustive|k=<k> | iid|p=<%.17g>|trials=<n>|seed=<s>)|
//   pairs=(all | s,t;s,t;...)|stretch=(0|1)[|shard=i/N]
// scenario_key() is the prefix up to and including the pairs part.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"

namespace pofl {

/// A spec's scenario stream over one graph.
struct SweepSource {
  std::unique_ptr<ScenarioSource> source;  // restricted to the spec's shard
  int64_t full_total = 0;                  // scenarios in the unsharded stream
  size_t pair_count = 0;                   // (s, t) pairs the stream crosses
};

struct SweepSpec {
  bool exhaustive = false;  // every |F| <= k; otherwise i.i.d. draws
  double p = 0.0;           // iid: per-link failure probability
  int64_t trials = 0;       // iid: draws per pair
  int64_t seed = 1;         // iid
  int64_t k = 0;            // exhaustive: largest failure set
  RoutingModel model = RoutingModel::kSourceDestination;
  std::vector<std::pair<VertexId, VertexId>> pairs;  // empty = all ordered pairs
  bool stretch = true;
  int shard_index = 0;
  int shard_count = 1;
  bool shard_set = false;  // an explicit i/N (even 0/1): the report carries provenance

  /// True when the spec is in range for `g`; otherwise false with `error`
  /// naming the offending field (a bad pair by its index).
  [[nodiscard]] bool validate(const Graph& g, std::string& error) const;

  [[nodiscard]] std::string scenario_key() const;
  [[nodiscard]] std::string key() const;

  /// The scenario stream of a validated spec over `g`.
  [[nodiscard]] SweepSource make_source(const Graph& g) const;

  /// The report as this run records it: with shard provenance when
  /// shard_set, plain otherwise.
  [[nodiscard]] std::string serialize(const SweepReport& report) const;
};

/// Decodes and validates the spec of a daemon `sweep` (or, with `witness`,
/// `witness`) request against `g`; serve/server.hpp lists the keys each
/// takes, and any other key, or one given twice, is an error.
[[nodiscard]] bool decode_sweep_spec(const JsonValue& req, const Graph& g, bool witness,
                                     SweepSpec& spec, std::string& error);

}  // namespace pofl
