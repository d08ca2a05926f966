#include "sim/sweep_json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

namespace pofl {

namespace {

/// strtol with the overflow check the bare call silently skips: ERANGE
/// clamps to LONG_MIN/LONG_MAX without any error indication, so
/// `--procs 99999999999999999999` used to sail through parsing and only
/// fail (or worse, truncate) downstream. Rejects unless the whole token is
/// a long that survived un-clamped.
bool checked_strtol(const char* s, char** end, long& out) {
  errno = 0;
  out = std::strtol(s, end, 10);
  return *end != s && errno != ERANGE;
}

}  // namespace

bool parse_shard_spec(const char* spec, int& index, int& count) {
  char* end = nullptr;
  long i = 0;
  long n = 0;
  if (!checked_strtol(spec, &end, i) || *end != '/') return false;
  const char* count_str = end + 1;
  if (!checked_strtol(count_str, &end, n) || *end != '\0') return false;
  if (n < 1 || i < 0 || i >= n || n > 1'000'000) return false;
  index = static_cast<int>(i);
  count = static_cast<int>(n);
  return true;
}

BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        args.error = true;
        return args;
      }
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      if (i + 1 >= argc || !parse_shard_spec(argv[++i], args.shard_index, args.shard_count)) {
        args.error = true;
        return args;
      }
      args.shard_set = true;
    } else if (std::strcmp(argv[i], "--procs") == 0) {
      if (i + 1 >= argc) {
        args.error = true;
        return args;
      }
      // Range-check the long before the int cast: 2^32+1 used to truncate
      // to a silently wrong small --procs value.
      char* end = nullptr;
      long procs = 0;
      args.procs_set = true;
      if (!checked_strtol(argv[++i], &end, procs) || *end != '\0' || procs < 1 ||
          procs > 1024) {
        args.error = true;
        return args;
      }
      args.procs = static_cast<int>(procs);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        args.error = true;
        return args;
      }
      char* end = nullptr;
      long threads = 0;
      args.threads_set = true;
      if (!checked_strtol(argv[++i], &end, threads) || *end != '\0' || threads < 0 ||
          threads > 1'000'000) {
        args.error = true;
        return args;
      }
      args.num_threads = static_cast<int>(threads);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // Unknown flags (misspellings, --json=path) must fail loudly, not
      // silently become positionals.
      args.error = true;
      return args;
    } else {
      args.positional.emplace_back(argv[i]);
    }
  }
  return args;
}

void JsonWriter::comma() {
  if (!needs_comma_.empty() && needs_comma_.back()) out_ += ',';
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  if (has_pending_key_) {
    out_ += '"';
    out_ += json_escape(pending_key_);
    out_ += "\":";
    has_pending_key_ = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  pending_key_ = k;
  has_pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw_number(const std::string& spelling) {
  comma();
  out_ += spelling;
  return *this;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_json(JsonWriter& w, const SweepStats& stats) {
  w.begin_object();
  w.key("total").value(stats.total);
  w.key("promise_broken").value(stats.promise_broken);
  w.key("promise_held").value(stats.promise_held());
  w.key("delivered").value(stats.delivered);
  w.key("looped").value(stats.looped);
  w.key("dropped").value(stats.dropped);
  w.key("invalid").value(stats.invalid);
  w.key("failures_seen").value(stats.failures_seen);
  w.key("hops_delivered").value(stats.hops_delivered);
  w.key("stretch_samples").value(stats.stretch_samples);
  w.key("stretch_sum_q32").value(stats.stretch_sum_q32);
  w.key("stretch_sum").value(stats.stretch_sum());
  w.key("max_stretch").value(stats.max_stretch);
  w.key("delivery_rate").value(stats.delivery_rate());
  w.key("loop_rate").value(stats.loop_rate());
  w.key("drop_rate").value(stats.drop_rate());
  w.key("invalid_rate").value(stats.invalid_rate());
  w.key("mean_failures").value(stats.mean_failures());
  w.key("mean_hops").value(stats.mean_hops());
  w.key("mean_stretch").value(stats.mean_stretch());
  w.end_object();
}

void append_json(JsonWriter& w, const SweepReport& report) {
  w.begin_object();
  w.key("totals");
  append_json(w, report.totals);
  w.key("per_pair").begin_array();
  for (const PairStats& row : report.per_pair) {
    w.begin_object();
    w.key("source").value(static_cast<int64_t>(row.source));
    if (row.destination == kNoVertex) {
      w.key("destination").null();
    } else {
      w.key("destination").value(static_cast<int64_t>(row.destination));
    }
    w.key("stats");
    append_json(w, row.stats);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string to_json(const SweepStats& stats) {
  JsonWriter w;
  append_json(w, stats);
  return w.str();
}

std::string to_json(const SweepReport& report) {
  JsonWriter w;
  append_json(w, report);
  return w.str();
}

std::string to_json_shard(const SweepReport& report, int shard_index, int shard_count) {
  // Splices the shard provenance in as the first key of the report object,
  // so a shard file is the plain report JSON plus one marker.
  JsonWriter w;
  w.begin_object();
  w.key("shard").begin_object();
  w.key("index").value(shard_index);
  w.key("count").value(shard_count);
  w.end_object();
  const std::string body = to_json(report);
  return "{" + w.str().substr(1) + "," + body.substr(1);
}

std::string to_json_partial(const SweepReport& report, const IncompleteInfo& incomplete) {
  // Same splice as to_json_shard: the plain report plus one leading
  // provenance block, so parse -> serialize round-trips byte for byte and
  // everything downstream of the "incomplete" key is the ordinary schema.
  JsonWriter w;
  w.begin_object();
  w.key("incomplete").begin_object();
  w.key("shard_count").value(incomplete.shard_count);
  w.key("missing_shards").begin_array();
  for (const int shard : incomplete.missing_shards) w.value(shard);
  w.end_array();
  w.key("attempts").begin_array();
  for (const int attempts : incomplete.attempts) w.value(attempts);
  w.end_array();
  w.end_object();
  const std::string body = to_json(report);
  return "{" + w.str().substr(1) + "," + body.substr(1);
}

// ---- parser ----------------------------------------------------------------
// A minimal recursive-descent JSON reader, just enough for the shard/merge
// round-trip: objects, arrays, strings, numbers (kept as raw spellings so
// integers parse exactly), true/false/null. No dependency, no surprises.
// Nesting is capped at kMaxJsonDepth, so hostile input cannot run the
// recursion off the end of the stack.

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  /// Byte offset where parsing stopped — on failure, the first byte the
  /// parser could not make sense of (a truncated file stops at its end).
  [[nodiscard]] size_t stop_offset() const { return pos_; }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
      case '[': {
        // A container one level too deep stops at its opening byte.
        if (depth_ == kMaxJsonDepth) return false;
        ++depth_;
        const bool ok = s_[pos_] == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.text);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.fields.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      c = s_[pos_++];
      switch (c) {
        case '"':
        case '\\':
        case '/':
          out += c;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const long code = std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The writer only escapes control characters; decode the
          // single-byte range and reject anything it cannot have written.
          if (code < 0 || code > 0xff) return false;
          out += static_cast<char>(code);
          break;
        }
        default:
          return false;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number(JsonValue& out) {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.text = s_.substr(start, pos_ - start);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;  // containers open at pos_
};

/// Sets *error (when requested) and always returns false — the one-line
/// spelling of every semantic parse failure below.
bool fail_parse(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Reads the exact (non-derived) SweepStats fields. Derived rates are
/// recomputed by the accessors, so this is all a byte-exact re-serialization
/// needs: a 12-significant-digit decimal re-parses to a double that prints
/// back to the same 12 digits, and everything else is integral. On failure
/// the error names the first missing/invalid counter.
bool stats_from_json(const JsonValue& obj, SweepStats& out, std::string* error) {
  if (obj.kind != JsonValue::Kind::kObject) {
    return fail_parse(error, "stats value is not an object");
  }
  const auto counter = [&](const char* key, int64_t& v) {
    return json_read_int(obj, key, v) ||
           fail_parse(error, std::string("missing or invalid counter '") + key + "'");
  };
  return counter("total", out.total) && counter("promise_broken", out.promise_broken) &&
         counter("delivered", out.delivered) && counter("looped", out.looped) &&
         counter("dropped", out.dropped) && counter("invalid", out.invalid) &&
         counter("failures_seen", out.failures_seen) &&
         counter("hops_delivered", out.hops_delivered) &&
         counter("stretch_samples", out.stretch_samples) &&
         counter("stretch_sum_q32", out.stretch_sum_q32) &&
         (json_read_double(obj, "max_stretch", out.max_stretch) ||
          fail_parse(error, "missing or invalid 'max_stretch'"));
}

/// The integer counters of a stats block, by JSON key.
struct StatsCounter {
  const char* key;
  int64_t SweepStats::*field;
};
constexpr StatsCounter kStatsCounters[] = {
    {"total", &SweepStats::total},
    {"promise_broken", &SweepStats::promise_broken},
    {"delivered", &SweepStats::delivered},
    {"looped", &SweepStats::looped},
    {"dropped", &SweepStats::dropped},
    {"invalid", &SweepStats::invalid},
    {"failures_seen", &SweepStats::failures_seen},
    {"hops_delivered", &SweepStats::hops_delivered},
    {"stretch_samples", &SweepStats::stretch_samples},
    {"stretch_sum_q32", &SweepStats::stretch_sum_q32},
};

/// Rejects a stats block the engine cannot have written: a negative
/// counter, outcomes that do not add up to the promise-holding scenarios,
/// or more stretch samples than deliveries. `where` names the block
/// (" in totals", " in per_pair row 3").
bool check_stats(const SweepStats& st, const std::string& where, std::string* error) {
  for (const StatsCounter& c : kStatsCounters) {
    if (st.*c.field < 0) return fail_parse(error, std::string("negative '") + c.key + "'" + where);
  }
  if (st.max_stretch < 0) return fail_parse(error, "negative 'max_stretch'" + where);
  const std::string outcomes_sum = "'delivered' + 'looped' + 'dropped' + 'invalid'";
  int64_t outcomes = 0;
  if (__builtin_add_overflow(st.delivered, st.looped, &outcomes) ||
      __builtin_add_overflow(outcomes, st.dropped, &outcomes) ||
      __builtin_add_overflow(outcomes, st.invalid, &outcomes)) {
    return fail_parse(error, outcomes_sum + " overflows int64" + where);
  }
  if (outcomes != st.total - st.promise_broken) {
    return fail_parse(error, outcomes_sum + " = " + std::to_string(outcomes) +
                                 " but 'total' - 'promise_broken' = " +
                                 std::to_string(st.total - st.promise_broken) + where);
  }
  if (st.stretch_samples > st.delivered) {
    return fail_parse(error, "'stretch_samples' exceeds 'delivered'" + where);
  }
  return true;
}

/// Rejects per-pair rows that do not fold into the totals: every integer
/// counter sums exactly (an int64 overflow is an error; the Q32 stretch sum
/// saturates as the engine's merge does) and max_stretch is the rows' max.
bool check_rows_fold_to_totals(const SweepReport& report, std::string* error) {
  SweepStats sum;
  for (size_t i = 0; i < report.per_pair.size(); ++i) {
    const SweepStats& row = report.per_pair[i].stats;
    for (const StatsCounter& c : kStatsCounters) {
      if (c.field == &SweepStats::stretch_sum_q32) continue;
      if (__builtin_add_overflow(sum.*c.field, row.*c.field, &(sum.*c.field))) {
        return fail_parse(error, std::string("'") + c.key +
                                     "' overflows int64 summed up to per_pair row " +
                                     std::to_string(i));
      }
    }
    sum.stretch_sum_q32 = SweepStats::saturating_add(sum.stretch_sum_q32, row.stretch_sum_q32);
    sum.max_stretch = std::max(sum.max_stretch, row.max_stretch);
  }
  for (const StatsCounter& c : kStatsCounters) {
    if (sum.*c.field != report.totals.*c.field) {
      return fail_parse(error, std::string("per_pair rows sum to '") + c.key + "' = " +
                                   std::to_string(sum.*c.field) + " but totals say " +
                                   std::to_string(report.totals.*c.field));
    }
  }
  if (sum.max_stretch != report.totals.max_stretch) {
    return fail_parse(error, "totals 'max_stretch' is not the max over the per_pair rows");
  }
  return true;
}

/// Reads an array of small non-negative ints (the incomplete-block lists).
bool read_int_array(const JsonValue& value, std::vector<int>& out) {
  if (value.kind != JsonValue::Kind::kArray) return false;
  out.clear();
  for (const JsonValue& item : value.items) {
    if (item.kind != JsonValue::Kind::kNumber) return false;
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(item.text.c_str(), &end, 10);
    if (end == item.text.c_str() || *end != '\0' || errno == ERANGE || v < 0 ||
        v > 1'000'000) {
      return false;
    }
    out.push_back(static_cast<int>(v));
  }
  return true;
}

}  // namespace

bool parse_json(const std::string& text, JsonValue& out, size_t* stop_offset) {
  JsonParser parser(text);
  const bool ok = parser.parse(out);
  if (!ok && stop_offset != nullptr) *stop_offset = parser.stop_offset();
  return ok;
}

void append_json(JsonWriter& w, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(value.boolean);
      break;
    case JsonValue::Kind::kNumber:
      w.raw_number(value.text);
      break;
    case JsonValue::Kind::kString:
      w.value(value.text);
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& item : value.items) append_json(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [k, v] : value.fields) {
        w.key(k);
        append_json(w, v);
      }
      w.end_object();
      break;
  }
}

bool json_read_int(const JsonValue& obj, const std::string& key, int64_t& out) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && json_read_int(*v, out);
}

bool json_read_int(const JsonValue& value, int64_t& out) {
  if (value.kind != JsonValue::Kind::kNumber) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(value.text.c_str(), &end, 10);
  // ERANGE clamps to INT64_MAX/MIN silently; a counter that overflows
  // int64 cannot round-trip, so reject the report instead of corrupting
  // the merge.
  return end != value.text.c_str() && *end == '\0' && errno != ERANGE;
}

bool json_read_double(const JsonValue& obj, const std::string& key, double& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtod(v->text.c_str(), &end);
  // Same errno discipline as json_read_int: strtod signals overflow
  // (1e999 -> HUGE_VAL) and fatal underflow only through ERANGE, so the
  // bare check used to parse an unrepresentable max_stretch "successfully"
  // and corrupt the merge downstream instead of rejecting the report.
  return end != v->text.c_str() && *end == '\0' && errno != ERANGE;
}

std::optional<SweepReport> report_from_json(const std::string& text, ShardInfo* shard,
                                            std::string* error, IncompleteInfo* incomplete) {
  if (shard != nullptr) *shard = ShardInfo{};
  if (incomplete != nullptr) *incomplete = IncompleteInfo{};
  if (text.empty()) {
    fail_parse(error, "empty file (0 bytes)");
    return std::nullopt;
  }
  JsonValue root;
  JsonParser parser(text);
  if (!parser.parse(root)) {
    // The stop offset is the diagnosis: a truncated/torn shard file stops
    // at its last byte, garbage stops where the garbage starts.
    fail_parse(error, "JSON syntax error at byte offset " +
                          std::to_string(parser.stop_offset()) + " of " +
                          std::to_string(text.size()));
    return std::nullopt;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    fail_parse(error, "top-level value is not an object");
    return std::nullopt;
  }
  if (const JsonValue* spec = root.find("shard"); spec != nullptr && shard != nullptr) {
    int64_t index = 0;
    int64_t count = 0;
    if (spec->kind != JsonValue::Kind::kObject || !json_read_int(*spec, "index", index) ||
        !json_read_int(*spec, "count", count) || count < 1 || index < 0 || index >= count) {
      fail_parse(error, "malformed 'shard' provenance block");
      return std::nullopt;
    }
    shard->index = static_cast<int>(index);
    shard->count = static_cast<int>(count);
    shard->present = true;
  }
  if (const JsonValue* inc = root.find("incomplete"); inc != nullptr && incomplete != nullptr) {
    int64_t count = 0;
    std::vector<int> missing;
    std::vector<int> attempts;
    bool valid = inc->kind == JsonValue::Kind::kObject &&
                 json_read_int(*inc, "shard_count", count) && count >= 1 && count <= 1'000'000;
    const JsonValue* missing_value = valid ? inc->find("missing_shards") : nullptr;
    const JsonValue* attempts_value = valid ? inc->find("attempts") : nullptr;
    valid = valid && missing_value != nullptr && read_int_array(*missing_value, missing) &&
            attempts_value != nullptr && read_int_array(*attempts_value, attempts) &&
            !missing.empty() && missing.size() == attempts.size();
    for (size_t i = 0; valid && i < missing.size(); ++i) {
      // Ascending and in range: the canonical spelling the writer emits,
      // so parse -> serialize stays byte-exact.
      valid = missing[i] < count && (i == 0 || missing[i] > missing[i - 1]);
    }
    if (!valid) {
      fail_parse(error, "malformed 'incomplete' provenance block");
      return std::nullopt;
    }
    incomplete->present = true;
    incomplete->shard_count = static_cast<int>(count);
    incomplete->missing_shards = std::move(missing);
    incomplete->attempts = std::move(attempts);
  }
  SweepReport report;
  const JsonValue* totals = root.find("totals");
  if (totals == nullptr) {
    fail_parse(error, "missing 'totals'");
    return std::nullopt;
  }
  if (!stats_from_json(*totals, report.totals, error) ||
      !check_stats(report.totals, " in totals", error)) {
    return std::nullopt;
  }
  const JsonValue* rows = root.find("per_pair");
  if (rows == nullptr || rows->kind != JsonValue::Kind::kArray) {
    fail_parse(error, "missing or invalid 'per_pair'");
    return std::nullopt;
  }
  report.per_pair.reserve(rows->items.size());
  for (const JsonValue& row : rows->items) {
    const std::string where = " in per_pair row " + std::to_string(report.per_pair.size());
    if (row.kind != JsonValue::Kind::kObject) {
      fail_parse(error, "non-object" + where);
      return std::nullopt;
    }
    PairStats pair;
    int64_t source = 0;
    if (!json_read_int(row, "source", source)) {
      fail_parse(error, "missing or invalid 'source'" + where);
      return std::nullopt;
    }
    pair.source = static_cast<VertexId>(source);
    const JsonValue* destination = row.find("destination");
    if (destination == nullptr) {
      fail_parse(error, "missing 'destination'" + where);
      return std::nullopt;
    }
    if (destination->kind == JsonValue::Kind::kNull) {
      pair.destination = kNoVertex;
    } else {
      int64_t value = 0;
      if (!json_read_int(row, "destination", value)) {
        fail_parse(error, "invalid 'destination'" + where);
        return std::nullopt;
      }
      pair.destination = static_cast<VertexId>(value);
    }
    const JsonValue* stats = row.find("stats");
    std::string stats_error;
    if (stats == nullptr || !stats_from_json(*stats, pair.stats, &stats_error)) {
      fail_parse(error,
                 (stats == nullptr ? std::string("missing 'stats'") : stats_error) + where);
      return std::nullopt;
    }
    if (!check_stats(pair.stats, where, error)) return std::nullopt;
    report.per_pair.push_back(std::move(pair));
  }
  if (!report.per_pair.empty() && !check_rows_fold_to_totals(report, error)) {
    return std::nullopt;
  }
  return report;
}

bool write_json_file(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << body << "\n";
  return out.good();
}

}  // namespace pofl
