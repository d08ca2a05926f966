#pragma once

// Machine-readable sweep results. A tiny dependency-free JSON writer plus
// serializers for SweepStats / SweepReport, and the matching parser so
// reports round-trip: shard workers write their partial SweepReport as
// JSON, a merge step parses the files back, folds them with
// SweepReport::merge, and re-serializes bit-identically to the unsharded
// sweep.
//
// JSON shape (stable; documented in the README):
//   SweepStats  -> {"total":..,"promise_broken":..,...,"delivery_rate":..}
//   SweepReport -> {"totals":{...},"per_pair":[{"source":..,
//                   "destination":..|null,"stats":{...}},...]}
//   shard report -> {"shard":{"index":i,"count":n},"totals":...} — the
//                   optional leading "shard" key marks a partial report.
// Touring rows serialize their kNoVertex destination as null. The parser
// accepts only the writer's keys in the writer's order, reads only the
// exact fields (integer counters, the max_stretch double) and recomputes
// every derived rate, so parse -> serialize reproduces the input byte for
// byte.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sweep.hpp"

namespace pofl {

/// Shared command-line convention for the bench drivers:
/// `<bench> [positional...] [--json <path>] [--threads <n>] [--shard i/N]`.
/// One parser instead of seven hand-rolled copies, with one behavior: a
/// flag without its value (or an unknown --flag, or a non-numeric thread
/// count, or a malformed shard spec) is an error (reported on stderr by the
/// caller), never a positional. Drivers without any threaded sweep reject
/// `--threads` via `threads_set` so the flag never silently does nothing;
/// `--shard i/N` restricts a driver to the i-th of N deterministic slices
/// of its work (scenario shards or work-item ordinals) for multi-host runs.
struct BenchArgs {
  std::string json_path;                 // empty when --json absent
  int num_threads = 0;                   // --threads; 0 = engine default
  bool threads_set = false;              // --threads appeared on the command line
  int shard_index = 0;                   // --shard i/N; (0, 1) = everything
  int shard_count = 1;
  bool shard_set = false;                // --shard appeared on the command line
  int procs = 0;                         // --procs; 0 = not requested
  bool procs_set = false;                // --procs appeared on the command line
  std::vector<std::string> positional;   // everything that is not a flag
  bool error = false;                    // missing flag value or unknown --flag

  /// Whether this invocation owns work item `ordinal` under the shard spec
  /// — how drivers whose work is a list of items (networks, cells, rows)
  /// rather than a scenario stream slice themselves.
  [[nodiscard]] bool owns(int64_t ordinal) const {
    return shard_count <= 1 || ordinal % shard_count == shard_index;
  }
};
[[nodiscard]] BenchArgs parse_bench_args(int argc, char** argv);

/// Parses a `i/N` shard spec (as in `--shard 2/8`) into (index, count);
/// false on anything but 0 <= i < N with N >= 1.
[[nodiscard]] bool parse_shard_spec(const char* spec, int& index, int& count);

/// Append-style compact JSON writer. Keys and values are emitted in call
/// order, straight into one buffer; commas and nesting are handled by the
/// writer. No pretty-printing — consumers are scripts, not eyes.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Key for the next value inside an object, written at once.
  JsonWriter& key(std::string_view k);
  JsonWriter& value(int64_t v);
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  /// The spelling of printf's "%.12g", written by std::to_chars.
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  /// A literal is a string: without this overload it would take the
  /// pointer-to-bool conversion over string_view.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& null();
  /// Emits a number by its raw spelling, verbatim. How append_json(JsonValue)
  /// round-trips numbers byte-exactly; the caller vouches the text is a
  /// valid JSON number (the parser only produces such spellings).
  JsonWriter& raw_number(std::string_view spelling);

  void reserve(size_t bytes) { out_.reserve(bytes); }
  [[nodiscard]] const std::string& str() const { return out_; }
  /// Moves the document out, leaving the writer empty.
  [[nodiscard]] std::string take() {
    first_ = true;
    return std::exchange(out_, {});
  }

 private:
  /// The comma before an element, unless it opens its container or is the
  /// value of a key.
  void separate() {
    if (!first_) out_ += ',';
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
};

[[nodiscard]] std::string json_escape(std::string_view s);

/// A parsed JSON value: the tree the recursive-descent reader produces.
/// Numbers keep their raw spelling (`text`), so integers survive exactly and
/// re-serializing a tree via append_json reproduces the input bytes — the
/// property the shard/merge round-trip and the serve protocol's report
/// extraction both lean on. Object field order is preserved for the same
/// reason.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // raw number spelling, or decoded string
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Deepest container nesting parse_json accepts. The deepest document the
/// project writes (a daemon envelope around a per-pair report) is 5 levels.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one complete JSON document (no trailing bytes allowed). On
/// failure returns false and sets *stop_offset (when non-null) to the first
/// byte the parser could not make sense of — a truncated input stops at its
/// end, and nesting deeper than kMaxJsonDepth stops at the opening bracket
/// of level kMaxJsonDepth + 1. The same reader behind report_from_json,
/// exposed for the serve protocol's request/response parsing.
[[nodiscard]] bool parse_json(const std::string& text, JsonValue& out,
                              size_t* stop_offset = nullptr);

/// Re-serializes a parsed tree verbatim: raw number spellings, preserved
/// field order. parse_json followed by append_json reproduces the input
/// byte for byte (modulo insignificant whitespace, which the house writer
/// never emits) — how `pofl_cli submit` lifts the exact report bytes out of
/// a response envelope without re-deriving them.
void append_json(JsonWriter& w, const JsonValue& value);

/// Reads an integer field, rejecting non-numbers, trailing garbage and
/// ERANGE clamping (a counter that overflows int64 cannot round-trip).
[[nodiscard]] bool json_read_int(const JsonValue& obj, const std::string& key, int64_t& out);
[[nodiscard]] bool json_read_int(const JsonValue& value, int64_t& out);

/// Reads a double field with the same errno/ERANGE discipline: 1e999 clamps
/// to HUGE_VAL with only errno to show for it, and a value that cannot
/// round-trip must reject the document instead of corrupting a merge.
[[nodiscard]] bool json_read_double(const JsonValue& obj, const std::string& key, double& out);
[[nodiscard]] bool json_read_double(const JsonValue& value, double& out);

/// Serializes the stats as one JSON object (counters plus derived rates).
void append_json(JsonWriter& w, const SweepStats& stats);

/// Serializes totals + per-pair rows.
void append_json(JsonWriter& w, const SweepReport& report);

[[nodiscard]] std::string to_json(const SweepStats& stats);
[[nodiscard]] std::string to_json(const SweepReport& report);

/// Serializes a partial (shard) report: the report object with a leading
/// "shard":{"index":..,"count":..} key so a merge step can check the shards
/// form a disjoint cover.
[[nodiscard]] std::string to_json_shard(const SweepReport& report, int shard_index,
                                        int shard_count);

/// Serializes a degraded partial merge: the report object with a leading
/// "incomplete":{"shard_count":n,"missing_shards":[..],"attempts":[..]}
/// provenance block naming exactly which shards never completed (and after
/// how many supervisor attempts, aligned with missing_shards). Written by
/// `sweep --procs --allow-partial` when retries are exhausted; `merge`
/// refuses to --check a result that still carries it.
struct IncompleteInfo {
  bool present = false;
  int shard_count = 0;
  std::vector<int> missing_shards;  // ascending, non-empty when present
  std::vector<int> attempts;        // attempts[i] made on missing_shards[i]
};
[[nodiscard]] std::string to_json_partial(const SweepReport& report,
                                          const IncompleteInfo& incomplete);

/// Shard provenance read back from a report file; (0, 1) with present ==
/// false for a plain (unsharded or already-merged) report.
struct ShardInfo {
  int index = 0;
  int count = 1;
  bool present = false;
};

/// Parses a SweepReport previously written by to_json / to_json_shard /
/// to_json_partial. Every object must carry exactly the writer's keys in
/// the writer's order (an unknown, misspelled, repeated or missing key is
/// an error naming the key and its block). Reads the exact fields only
/// (integer counters, max_stretch), then re-encodes the result with the
/// writer its provenance names and accepts only if that reproduces the
/// input byte for byte (trailing whitespace aside): a derived rate that
/// does not follow from its counters, or a number spelled other than the
/// writer spells it, is rejected with the byte offset, the enclosing key
/// and both spellings. Returns nullopt on malformed input; fills *shard /
/// *incomplete when the report carries that provenance.
/// On failure, *error (when non-null) gets a diagnosis worth relaying to
/// the operator — "empty file (0 bytes)", "JSON syntax error at byte
/// offset N", or the missing/invalid field — instead of a generic parse
/// error: a truncated shard file must name where it broke.
[[nodiscard]] std::optional<SweepReport> report_from_json(const std::string& text,
                                                          ShardInfo* shard = nullptr,
                                                          std::string* error = nullptr,
                                                          IncompleteInfo* incomplete = nullptr);

/// Writes `body` and a newline to `path`, then flushes and closes it.
/// Returns false, printing "error: cannot write <path>: <reason>" to
/// stderr, if any step fails, the close included.
bool write_json_file(const std::string& path, const std::string& body);

}  // namespace pofl
