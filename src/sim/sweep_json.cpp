#include "sim/sweep_json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
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

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// Appends `s` escaped for a JSON string; a clean prefix (every key, and
/// almost every value) goes in with one append.
void append_escaped(std::string& out, std::string_view s) {
  const size_t clean =
      static_cast<size_t>(std::find_if(s.begin(), s.end(), needs_escape) - s.begin());
  out.append(s.data(), clean);
  for (const char c : s.substr(clean)) {
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

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  first_ = true;  // the value follows the colon
  return *this;
}

JsonWriter& JsonWriter::value(int64_t v) {
  separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  // An integral value under 1e12 in magnitude has at most 12 digits, which
  // "%.12g" spells as the integer itself: the zero and unit rates and
  // stretches that fill a report skip the float formatter. -0 keeps its
  // sign by taking the formatter.
  if (v > -1e12 && v < 1e12) {
    const auto whole = static_cast<int64_t>(v);
    if (static_cast<double>(whole) == v && (whole != 0 || !std::signbit(v))) return value(whole);
  }
  separate();
  // General format at precision 12 is "%.12g" by definition: the same
  // digits, exponent switch points and trailing-zero trimming.
  char buf[32];
  out_.append(buf,
              std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 12).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::null() {
  separate();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw_number(std::string_view spelling) {
  separate();
  out_ += spelling;
  return *this;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
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

namespace {

/// A serialized per-pair row runs to 400-460 bytes. Reserving this much per
/// row sizes a report's buffer once; the pages it does not fill are never
/// touched.
constexpr size_t kRowBytes = 512;

/// The members of a report object: totals, then the per-pair rows.
void append_report_fields(JsonWriter& w, const SweepReport& report) {
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
}

JsonWriter report_writer(const SweepReport& report) {
  JsonWriter w;
  w.reserve(kRowBytes * (report.per_pair.size() + 1));
  return w;
}

}  // namespace

void append_json(JsonWriter& w, const SweepReport& report) {
  w.begin_object();
  append_report_fields(w, report);
  w.end_object();
}

std::string to_json(const SweepStats& stats) {
  JsonWriter w;
  append_json(w, stats);
  return w.take();
}

std::string to_json(const SweepReport& report) {
  JsonWriter w = report_writer(report);
  append_json(w, report);
  return w.take();
}

std::string to_json_shard(const SweepReport& report, int shard_index, int shard_count) {
  // The shard provenance is the first key of the report object, so a shard
  // file is the plain report JSON plus one marker.
  JsonWriter w = report_writer(report);
  w.begin_object();
  w.key("shard").begin_object();
  w.key("index").value(shard_index);
  w.key("count").value(shard_count);
  w.end_object();
  append_report_fields(w, report);
  w.end_object();
  return w.take();
}

std::string to_json_partial(const SweepReport& report, const IncompleteInfo& incomplete) {
  // Same layout as to_json_shard: the plain report plus one leading
  // provenance block, so parse -> serialize round-trips byte for byte and
  // everything downstream of the "incomplete" key is the ordinary schema.
  JsonWriter w = report_writer(report);
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
  append_report_fields(w, report);
  w.end_object();
  return w.take();
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

/// Names a block of the report in an error message; spelled out only on
/// failure, so the accepting path builds no strings.
struct Block {
  const char* name;  // "totals", "per_pair row", ...
  int64_t row = -1;  // the row index, for the per-row blocks

  [[nodiscard]] std::string where() const {
    return std::string(" in ") + name + (row >= 0 ? " " + std::to_string(row) : "");
  }
};

/// The keys of each object the writer emits, in its order.
constexpr std::string_view kReportKeys[] = {"totals", "per_pair"};
constexpr std::string_view kRowKeys[] = {"source", "destination", "stats"};
constexpr std::string_view kShardKeys[] = {"index", "count"};
constexpr std::string_view kIncompleteKeys[] = {"shard_count", "missing_shards", "attempts"};
constexpr std::string_view kStatsKeys[] = {
    "total",          "promise_broken",  "promise_held",    "delivered",
    "looped",         "dropped",         "invalid",         "failures_seen",
    "hops_delivered", "stretch_samples", "stretch_sum_q32", "stretch_sum",
    "max_stretch",    "delivery_rate",   "loop_rate",       "drop_rate",
    "invalid_rate",   "mean_failures",   "mean_hops",       "mean_stretch"};
constexpr size_t kMaxStretchAt = 12;
static_assert(kStatsKeys[kMaxStretchAt] == "max_stretch");

/// Requires `obj` to hold exactly `keys` from field `first` on, in order:
/// the only spelling the writer emits. The accepting path costs one
/// comparison per field; an unknown, repeated, missing or misplaced key is
/// diagnosed only on rejection.
bool check_keys(const JsonValue& obj, size_t first, std::span<const std::string_view> keys,
                const Block& block, std::string* error) {
  const auto& fields = obj.fields;
  for (size_t i = 0; i < keys.size() || first + i < fields.size(); ++i) {
    if (first + i == fields.size()) {
      return fail_parse(error, "missing key '" + std::string(keys[i]) + "'" + block.where());
    }
    const std::string& got = fields[first + i].first;
    if (i < keys.size() && got == keys[i]) continue;
    const auto known = std::find(keys.begin(), keys.end(), got);
    if (known == keys.end()) {
      return fail_parse(error, "unknown key '" + got + "'" + block.where());
    }
    if (known < keys.begin() + static_cast<ptrdiff_t>(i)) {
      return fail_parse(error, "repeated key '" + got + "'" + block.where());
    }
    return fail_parse(error, "expected key '" + std::string(keys[i]) + "' but found '" + got +
                                 "'" + block.where());
  }
  return true;
}

/// The integer counters of a stats block: where each sits in kStatsKeys.
struct StatsCounter {
  size_t at;
  int64_t SweepStats::*field;

  [[nodiscard]] std::string key() const { return std::string(kStatsKeys[at]); }
};
constexpr StatsCounter kStatsCounters[] = {
    {0, &SweepStats::total},           {1, &SweepStats::promise_broken},
    {3, &SweepStats::delivered},       {4, &SweepStats::looped},
    {5, &SweepStats::dropped},         {6, &SweepStats::invalid},
    {7, &SweepStats::failures_seen},   {8, &SweepStats::hops_delivered},
    {9, &SweepStats::stretch_samples}, {10, &SweepStats::stretch_sum_q32},
};

/// Reads the exact (non-derived) SweepStats fields, by position once the
/// keys are checked. Derived rates are recomputed by the accessors, so
/// this is all a byte-exact re-serialization needs: a 12-significant-digit
/// decimal re-parses to a double that prints back to the same 12 digits,
/// and everything else is integral.
bool stats_from_json(const JsonValue& obj, SweepStats& out, const Block& block,
                     std::string* error) {
  if (obj.kind != JsonValue::Kind::kObject) {
    return fail_parse(error, "stats value is not an object" + block.where());
  }
  if (!check_keys(obj, 0, kStatsKeys, block, error)) return false;
  for (const StatsCounter& c : kStatsCounters) {
    if (!json_read_int(obj.fields[c.at].second, out.*c.field)) {
      return fail_parse(error, "invalid counter '" + c.key() + "'" + block.where());
    }
  }
  if (!json_read_double(obj.fields[kMaxStretchAt].second, out.max_stretch)) {
    return fail_parse(error, "invalid 'max_stretch'" + block.where());
  }
  return true;
}

/// Rejects a stats block the engine cannot have written: a negative
/// counter, outcomes that do not add up to the promise-holding scenarios,
/// or more stretch samples than deliveries.
bool check_stats(const SweepStats& st, const Block& block, std::string* error) {
  for (const StatsCounter& c : kStatsCounters) {
    if (st.*c.field < 0) {
      return fail_parse(error, "negative '" + c.key() + "'" + block.where());
    }
  }
  if (st.max_stretch < 0) return fail_parse(error, "negative 'max_stretch'" + block.where());
  const std::string outcomes_sum = "'delivered' + 'looped' + 'dropped' + 'invalid'";
  int64_t outcomes = 0;
  if (__builtin_add_overflow(st.delivered, st.looped, &outcomes) ||
      __builtin_add_overflow(outcomes, st.dropped, &outcomes) ||
      __builtin_add_overflow(outcomes, st.invalid, &outcomes)) {
    return fail_parse(error, outcomes_sum + " overflows int64" + block.where());
  }
  if (outcomes != st.total - st.promise_broken) {
    return fail_parse(error, outcomes_sum + " = " + std::to_string(outcomes) +
                                 " but 'total' - 'promise_broken' = " +
                                 std::to_string(st.total - st.promise_broken) + block.where());
  }
  if (st.stretch_samples > st.delivered) {
    return fail_parse(error, "'stretch_samples' exceeds 'delivered'" + block.where());
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
        return fail_parse(error, "'" + c.key() + "' overflows int64 summed up to per_pair row " +
                                     std::to_string(i));
      }
    }
    sum.stretch_sum_q32 = SweepStats::saturating_add(sum.stretch_sum_q32, row.stretch_sum_q32);
    sum.max_stretch = std::max(sum.max_stretch, row.max_stretch);
  }
  for (const StatsCounter& c : kStatsCounters) {
    if (sum.*c.field != report.totals.*c.field) {
      return fail_parse(error, "per_pair rows sum to '" + c.key() + "' = " +
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

bool shard_from_json(const JsonValue& spec, ShardInfo& out, std::string* error) {
  const Block block{"'shard'"};
  if (spec.kind != JsonValue::Kind::kObject) {
    return fail_parse(error, "malformed 'shard' provenance block");
  }
  if (!check_keys(spec, 0, kShardKeys, block, error)) return false;
  int64_t index = 0;
  int64_t count = 0;
  if (!json_read_int(spec.fields[0].second, index) ||
      !json_read_int(spec.fields[1].second, count) || count < 1 || index < 0 ||
      index >= count || count > 1'000'000) {
    return fail_parse(error, "malformed 'shard' provenance block");
  }
  out.index = static_cast<int>(index);
  out.count = static_cast<int>(count);
  out.present = true;
  return true;
}

bool incomplete_from_json(const JsonValue& inc, IncompleteInfo& out, std::string* error) {
  const Block block{"'incomplete'"};
  if (inc.kind != JsonValue::Kind::kObject) {
    return fail_parse(error, "malformed 'incomplete' provenance block");
  }
  if (!check_keys(inc, 0, kIncompleteKeys, block, error)) return false;
  int64_t count = 0;
  std::vector<int> missing;
  std::vector<int> attempts;
  bool valid = json_read_int(inc.fields[0].second, count) && count >= 1 &&
               count <= 1'000'000 && read_int_array(inc.fields[1].second, missing) &&
               read_int_array(inc.fields[2].second, attempts) && !missing.empty() &&
               missing.size() == attempts.size();
  for (size_t i = 0; valid && i < missing.size(); ++i) {
    // Ascending and in range: the canonical spelling the writer emits,
    // so parse -> serialize stays byte-exact.
    valid = missing[i] < count && (i == 0 || missing[i] > missing[i - 1]);
  }
  if (!valid) return fail_parse(error, "malformed 'incomplete' provenance block");
  out.present = true;
  out.shard_count = static_cast<int>(count);
  out.missing_shards = std::move(missing);
  out.attempts = std::move(attempts);
  return true;
}

bool row_from_json(const JsonValue& row, int64_t index, PairStats& out, std::string* error) {
  const Block block{"per_pair row", index};
  if (row.kind != JsonValue::Kind::kObject) return fail_parse(error, "non-object" + block.where());
  if (!check_keys(row, 0, kRowKeys, block, error)) return false;
  int64_t source = 0;
  if (!json_read_int(row.fields[0].second, source)) {
    return fail_parse(error, "invalid 'source'" + block.where());
  }
  out.source = static_cast<VertexId>(source);
  const JsonValue& destination = row.fields[1].second;
  int64_t value = 0;
  if (destination.kind == JsonValue::Kind::kNull) {
    out.destination = kNoVertex;
  } else if (json_read_int(destination, value)) {
    out.destination = static_cast<VertexId>(value);
  } else {
    return fail_parse(error, "invalid 'destination'" + block.where());
  }
  const Block stats_block{"stats of per_pair row", index};
  return stats_from_json(row.fields[2].second, out.stats, stats_block, error) &&
         check_stats(out.stats, stats_block, error);
}

/// The number or literal spelled around byte `at` of `s`, or the byte
/// itself when `at` sits between tokens ("end of input" past the end).
std::string spelling_at(const std::string& s, size_t at) {
  const auto in_token = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' || c == '+' || c == '-';
  };
  size_t begin = std::min(at, s.size());
  size_t end = begin;
  while (begin > 0 && in_token(s[begin - 1])) --begin;
  while (end < s.size() && in_token(s[end])) ++end;
  if (begin < end) return s.substr(begin, end - begin);
  return at < s.size() ? s.substr(at, 1) : "end of input";
}

/// Accepts `text` only if it is `engine`, the writer's bytes for what was
/// parsed from it, byte for byte (trailing whitespace after the document,
/// such as write_json_file's newline, is framing). Otherwise names the first
/// differing byte's offset, the key whose value holds it, and both spellings.
bool check_engine_bytes(const std::string& text, const std::string& engine,
                        std::string* error) {
  const size_t common = std::min(text.size(), engine.size());
  const size_t at = static_cast<size_t>(
      std::mismatch(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(common),
                    engine.begin())
          .first -
      text.begin());
  if (at == engine.size() &&
      text.find_first_not_of(" \t\r\n", engine.size()) == std::string::npos) {
    return true;
  }
  // The bytes before `at` agree, so the last key the engine wrote before it
  // is the key the input spells differently.
  std::string key = "the report object";
  const size_t colon = at == 0 ? std::string::npos : engine.rfind("\":", at - 1);
  if (colon != std::string::npos && colon > 0) {
    const size_t open = engine.rfind('"', colon - 1);
    if (open != std::string::npos) key = "'" + engine.substr(open + 1, colon - open - 1) + "'";
  }
  return fail_parse(error, "not the engine's bytes at byte offset " + std::to_string(at) +
                               " in " + key + ": read '" + spelling_at(text, at) +
                               "' where the engine writes '" + spelling_at(engine, at) + "'");
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
  return v != nullptr && json_read_double(*v, out);
}

bool json_read_double(const JsonValue& value, double& out) {
  if (value.kind != JsonValue::Kind::kNumber) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtod(value.text.c_str(), &end);
  // Same errno discipline as json_read_int: strtod signals overflow
  // (1e999 -> HUGE_VAL) and fatal underflow only through ERANGE, so the
  // bare check used to parse an unrepresentable max_stretch "successfully"
  // and corrupt the merge downstream instead of rejecting the report.
  return end != value.text.c_str() && *end == '\0' && errno != ERANGE;
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
  // An optional leading provenance block, then exactly the report keys.
  ShardInfo shard_info;
  IncompleteInfo incomplete_info;
  size_t first = 0;
  if (!root.fields.empty() && root.fields[0].first == "shard") {
    if (!shard_from_json(root.fields[0].second, shard_info, error)) return std::nullopt;
    first = 1;
  } else if (!root.fields.empty() && root.fields[0].first == "incomplete") {
    if (!incomplete_from_json(root.fields[0].second, incomplete_info, error)) {
      return std::nullopt;
    }
    first = 1;
  }
  if (!check_keys(root, first, kReportKeys, Block{"the report object"}, error)) {
    return std::nullopt;
  }
  SweepReport report;
  const Block totals{"totals"};
  if (!stats_from_json(root.fields[first].second, report.totals, totals, error) ||
      !check_stats(report.totals, totals, error)) {
    return std::nullopt;
  }
  const JsonValue& rows = root.fields[first + 1].second;
  if (rows.kind != JsonValue::Kind::kArray) {
    fail_parse(error, "'per_pair' is not an array");
    return std::nullopt;
  }
  report.per_pair.resize(rows.items.size());
  for (size_t i = 0; i < rows.items.size(); ++i) {
    if (!row_from_json(rows.items[i], static_cast<int64_t>(i), report.per_pair[i], error)) {
      return std::nullopt;
    }
  }
  if (!report.per_pair.empty() && !check_rows_fold_to_totals(report, error)) {
    return std::nullopt;
  }
  // Only the engine's bytes are a report: re-encode with the writer the
  // provenance names and compare. This rejects a derived rate that does not
  // follow from its counters, a number the writer would spell differently,
  // and any whitespace inside the document.
  const std::string engine =
      shard_info.present ? to_json_shard(report, shard_info.index, shard_info.count)
      : incomplete_info.present ? to_json_partial(report, incomplete_info)
                                : to_json(report);
  if (!check_engine_bytes(text, engine, error)) return std::nullopt;
  if (shard != nullptr) *shard = shard_info;
  if (incomplete != nullptr) *incomplete = std::move(incomplete_info);
  return report;
}

bool write_json_file(const std::string& path, const std::string& body) {
  // stdio buffers the write, so an error (a full disk, /dev/full) may only
  // surface at fclose: check every step, the close included.
  FILE* out = std::fopen(path.c_str(), "w");
  bool ok = out != nullptr;
  int err = errno;
  if (out != nullptr) {
    ok = std::fwrite(body.data(), 1, body.size(), out) == body.size() &&
         std::fputc('\n', out) != EOF;
    err = errno;
    if (std::fclose(out) != 0 && ok) {
      ok = false;
      err = errno;
    }
  }
  if (!ok) std::fprintf(stderr, "error: cannot write %s: %s\n", path.c_str(), std::strerror(err));
  return ok;
}

}  // namespace pofl
