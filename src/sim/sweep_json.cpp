#include "sim/sweep_json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

// ---- parsers ---------------------------------------------------------------
// parse_json: a minimal recursive-descent reader for the daemon's requests
// and submit's envelope: objects, arrays, strings, numbers (kept as raw
// spellings so integers parse exactly), true/false/null. Nesting is capped
// at kMaxJsonDepth, so hostile input cannot run the recursion off the end of
// the stack. Reports take ReportCursor below, which builds no tree.

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
  void skip_ws() { pos_ = std::min(s_.find_first_not_of(" \t\n\r", pos_), s_.size()); }

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
        const bool ok = parse_container(out);
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

  /// An object or array, its opening byte at pos_. Elements are separated
  /// by ',' and an object's each carry a string key and ':'.
  bool parse_container(JsonValue& out) {
    const bool object = s_[pos_] == '{';
    const char close = object ? '}' : ']';
    out.kind = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (object) {
        if (!parse_string(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        skip_ws();
      }
      JsonValue value;
      if (!parse_value(value)) return false;
      if (object) {
        out.fields.emplace_back(std::move(key), std::move(value));
      } else {
        out.items.push_back(std::move(value));
      }
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == close) {
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
      const size_t letter = std::string_view("\"\\/ntrbf").find(c);
      if (letter != std::string_view::npos) {
        out += "\"\\/\n\t\r\b\f"[letter];
        continue;
      }
      if (c != 'u' || pos_ + 4 > s_.size()) return false;
      const long code = std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16);
      pos_ += 4;
      // The writer only escapes control characters; decode the single-byte
      // range and reject anything it cannot have written.
      if (code < 0 || code > 0xff) return false;
      out += static_cast<char>(code);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number(JsonValue& out) {
    const size_t start = pos_;
    pos_ = std::min(s_.find_first_not_of("0123456789.eE+-", pos_), s_.size());
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
  /// " at byte offset N in <block>": where a rejection points.
  [[nodiscard]] std::string at(size_t offset) const {
    return " at byte offset " + std::to_string(offset) + where();
  }
};

/// The integer counters of a stats block.
struct StatsCounter {
  const char* key;
  int64_t SweepStats::*field;
};
constexpr StatsCounter kStatsCounters[] = {
    {"total", &SweepStats::total},           {"promise_broken", &SweepStats::promise_broken},
    {"delivered", &SweepStats::delivered},   {"looped", &SweepStats::looped},
    {"dropped", &SweepStats::dropped},       {"invalid", &SweepStats::invalid},
    {"failures_seen", &SweepStats::failures_seen},
    {"hops_delivered", &SweepStats::hops_delivered},
    {"stretch_samples", &SweepStats::stretch_samples},
    {"stretch_sum_q32", &SweepStats::stretch_sum_q32},
};

/// Rejects a stats block the engine cannot have written: a negative
/// counter, outcomes that do not add up to the promise-holding scenarios,
/// or more stretch samples than deliveries. `offset` is the block's opening
/// brace.
bool check_stats(const SweepStats& st, const Block& block, size_t offset, std::string* error) {
  for (const StatsCounter& c : kStatsCounters) {
    if (st.*c.field < 0) {
      return fail_parse(error, std::string("negative '") + c.key + "'" + block.at(offset));
    }
  }
  if (st.max_stretch < 0) return fail_parse(error, "negative 'max_stretch'" + block.at(offset));
  const std::string outcomes_sum = "'delivered' + 'looped' + 'dropped' + 'invalid'";
  int64_t outcomes = 0;
  if (__builtin_add_overflow(st.delivered, st.looped, &outcomes) ||
      __builtin_add_overflow(outcomes, st.dropped, &outcomes) ||
      __builtin_add_overflow(outcomes, st.invalid, &outcomes)) {
    return fail_parse(error, outcomes_sum + " overflows int64" + block.at(offset));
  }
  if (outcomes != st.total - st.promise_broken) {
    return fail_parse(error, outcomes_sum + " = " + std::to_string(outcomes) +
                                 " but 'total' - 'promise_broken' = " +
                                 std::to_string(st.total - st.promise_broken) + block.at(offset));
  }
  if (st.stretch_samples > st.delivered) {
    return fail_parse(error, "'stretch_samples' exceeds 'delivered'" + block.at(offset));
  }
  return true;
}

/// Rejects per-pair rows that do not fold into the totals: every integer
/// counter sums exactly (an int64 overflow is an error; the Q32 stretch sum
/// saturates as the engine's merge does) and max_stretch is the rows' max.
/// `row_at[i]` is the offset of row i, `totals_at` that of the totals.
bool check_rows_fold_to_totals(const SweepReport& report, const std::vector<size_t>& row_at,
                               size_t totals_at, std::string* error) {
  SweepStats sum;
  for (size_t i = 0; i < report.per_pair.size(); ++i) {
    const SweepStats& row = report.per_pair[i].stats;
    for (const StatsCounter& c : kStatsCounters) {
      if (c.field == &SweepStats::stretch_sum_q32) continue;
      if (__builtin_add_overflow(sum.*c.field, row.*c.field, &(sum.*c.field))) {
        const Block block{"per_pair row", static_cast<int64_t>(i)};
        return fail_parse(error, std::string("'") + c.key + "' overflows int64 summed up" +
                                     block.at(row_at[i]));
      }
    }
    sum.stretch_sum_q32 = SweepStats::saturating_add(sum.stretch_sum_q32, row.stretch_sum_q32);
    sum.max_stretch = std::max(sum.max_stretch, row.max_stretch);
  }
  const Block totals{"totals"};
  for (const StatsCounter& c : kStatsCounters) {
    if (sum.*c.field != report.totals.*c.field) {
      return fail_parse(error, std::string("per_pair rows sum to '") + c.key + "' = " +
                                   std::to_string(sum.*c.field) + " but totals say " +
                                   std::to_string(report.totals.*c.field) + totals.at(totals_at));
    }
  }
  if (sum.max_stretch != report.totals.max_stretch) {
    return fail_parse(error, "'max_stretch' is not the max over the per_pair rows" +
                                 totals.at(totals_at));
  }
  return true;
}

/// Reads `text` whole as a T: a spelling with trailing bytes, or one out of
/// T's range (an int64 counter that overflows, a 1e999 double), cannot
/// round-trip and is rejected instead of clamped.
template <typename T>
bool read_exact(std::string_view text, T& out) {
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  return !text.empty() && ec == std::errc() && ptr == last;
}

/// A byte of a number or literal.
bool in_token(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' || c == '+' || c == '-';
}

/// The number or literal spelled around byte `at` of `s`, or the byte
/// itself when `at` sits between tokens ("end of input" past the end).
std::string spelling_at(const std::string& s, size_t at) {
  size_t begin = std::min(at, s.size());
  size_t end = begin;
  while (begin > 0 && in_token(s[begin - 1])) --begin;
  while (end < s.size() && in_token(s[end])) ++end;
  if (begin < end) return s.substr(begin, end - begin);
  return at < s.size() ? s.substr(at, 1) : "end of input";
}

/// The report reader: one forward pass over the text that expects the
/// writer's bytes in the writer's order — append_report_fields and its
/// provenance blocks, read back call for call. Punctuation and keys are
/// matched as literals; the exact fields (counters, max_stretch, vertex ids,
/// provenance) are read in place with std::from_chars; derived values are
/// stepped over, since report_from_json's re-encode checks them. Every
/// rejection names the byte offset and what the reader expected there.
class ReportCursor {
 public:
  ReportCursor(const std::string& text, std::string* error) : s_(text), error_(error) {}

  /// Reads the text as one report, which whitespace alone may follow; the
  /// provenance block, when the report leads with one, into `shard` or
  /// `incomplete`.
  bool read(SweepReport& report, ShardInfo& shard, IncompleteInfo& incomplete) {
    if (!punct('{')) return false;
    if (next_is("\"shard\":") && !read_shard(shard)) return false;
    if (next_is("\"incomplete\":") && !read_incomplete(incomplete)) return false;
    block_ = {"the report object"};
    if (!key("totals")) return false;
    const size_t totals_at = pos_;
    block_ = {"totals"};
    if (!read_stats(report.totals)) return false;
    block_ = {"the report object"};
    if (!key("per_pair") || !punct('[')) return false;
    std::vector<size_t> row_at;
    while (!next_is("]")) {
      block_ = {"per_pair"};
      if (!item()) return false;
      row_at.push_back(pos_);
      if (!read_row(report.per_pair.emplace_back(), static_cast<int64_t>(row_at.size() - 1))) {
        return false;
      }
    }
    block_ = {"the report object"};
    if (!punct(']') || !punct('}')) return false;
    // Whitespace after the document, such as write_json_file's newline, is
    // framing; anything else is not.
    const size_t trailing = s_.find_first_not_of(" \t\r\n", pos_);
    if (trailing != std::string::npos) {
      return fail_parse(error_, "trailing bytes at byte offset " + std::to_string(trailing) +
                                    " of " + std::to_string(s_.size()));
    }
    return check_rows_fold_to_totals(report, row_at, totals_at, error_);
  }

 private:
  // The writer's calls, read back. Each advances past what it matched, or
  // rejects naming the offset; first_ tracks the comma as JsonWriter does.
  // punct opens ('{', '[') or closes ('}', ']') a container.
  bool punct(char c) {
    if (!byte(c)) return expected(std::string("'") + c + "'");
    first_ = c == '{' || c == '[';
    return true;
  }

  /// The comma before an array element, unless it opens the array.
  bool item() {
    if (!std::exchange(first_, false) && !byte(',')) return expected("',' or ']'");
    return true;
  }

  bool key(std::string_view k) {
    if (!first_ && !byte(',')) return expected("key '" + std::string(k) + "'");
    const std::string_view rest = std::string_view(s_).substr(pos_);
    if (rest.size() > k.size() + 2 && rest[0] == '"' && rest.substr(1, k.size()) == k &&
        rest[k.size() + 1] == '"' && rest[k.size() + 2] == ':') {
      pos_ += k.size() + 3;
      return true;
    }
    return expected("key '" + std::string(k) + "'");
  }

  /// The token at the cursor: a number or literal.
  [[nodiscard]] std::string_view token() const {
    size_t end = pos_;
    while (end < s_.size() && in_token(s_[end])) ++end;
    return std::string_view(s_).substr(pos_, end - pos_);
  }

  /// An exact number, read in place with read_exact.
  template <typename T>
  bool number(std::string_view name, T& out) {
    const std::string_view tok = token();
    if (tok.empty() || pos_ + tok.size() == s_.size()) {
      return expected("a number for '" + std::string(name) + "'");
    }
    if (!read_exact(tok, out)) {
      return fail_parse(error_, "invalid '" + std::string(name) + "'" + block_.at(pos_) +
                                    ": read '" + std::string(tok) + "'");
    }
    pos_ += tok.size();
    first_ = false;
    return true;
  }

  template <typename T>
  bool field(std::string_view name, T& out) { return key(name) && number(name, out); }

  /// A derived value: its key and its token, which the re-encode compares
  /// with what the counters imply.
  bool derived(std::string_view name) {
    if (!key(name)) return false;
    const size_t size = token().size();
    if (size == 0) return expected("a number for '" + std::string(name) + "'");
    pos_ += size;
    first_ = false;
    return true;
  }

  /// append_json(SweepStats), read back; then check_stats on the result.
  bool read_stats(SweepStats& st) {
    const size_t at = pos_;
    return punct('{') && field("total", st.total) && field("promise_broken", st.promise_broken) &&
           derived("promise_held") && field("delivered", st.delivered) &&
           field("looped", st.looped) && field("dropped", st.dropped) &&
           field("invalid", st.invalid) && field("failures_seen", st.failures_seen) &&
           field("hops_delivered", st.hops_delivered) &&
           field("stretch_samples", st.stretch_samples) &&
           field("stretch_sum_q32", st.stretch_sum_q32) && derived("stretch_sum") &&
           field("max_stretch", st.max_stretch) && derived("delivery_rate") &&
           derived("loop_rate") && derived("drop_rate") && derived("invalid_rate") &&
           derived("mean_failures") && derived("mean_hops") && derived("mean_stretch") &&
           punct('}') && check_stats(st, block_, at, error_);
  }

  bool read_row(PairStats& row, int64_t index) {
    block_ = {"per_pair row", index};
    if (!punct('{') || !field("source", row.source) || !key("destination")) return false;
    if (next_is("null")) {
      pos_ += 4;
      row.destination = kNoVertex;
      first_ = false;
    } else if (!number("destination", row.destination)) {
      return false;
    }
    if (!key("stats")) return false;
    block_ = {"stats of per_pair row", index};
    if (!read_stats(row.stats)) return false;
    block_ = {"per_pair row", index};
    return punct('}');
  }

  bool read_shard(ShardInfo& out) {
    block_ = {"'shard'"};
    if (!key("shard")) return false;
    const size_t at = pos_;
    if (!punct('{') || !field("index", out.index) || !field("count", out.count) ||
        !punct('}')) {
      return false;
    }
    if (out.count < 1 || out.count > 1'000'000 || out.index < 0 || out.index >= out.count) {
      return fail_parse(error_, "shard " + std::to_string(out.index) + "/" +
                                    std::to_string(out.count) + " out of range" + block_.at(at));
    }
    out.present = true;
    return true;
  }

  bool read_incomplete(IncompleteInfo& out) {
    block_ = {"'incomplete'"};
    if (!key("incomplete")) return false;
    const size_t at = pos_;
    if (!punct('{') || !field("shard_count", out.shard_count) ||
        !read_list("missing_shards", out.missing_shards) ||
        !read_list("attempts", out.attempts) || !punct('}')) {
      return false;
    }
    // Strictly ascending shards in range, one attempt count each: the
    // canonical spelling the writer emits, so parse -> serialize stays exact.
    const std::vector<int>& missing = out.missing_shards;
    if (out.shard_count < 1 || out.shard_count > 1'000'000 || missing.empty() ||
        missing.size() != out.attempts.size() || missing.front() < 0 ||
        missing.back() >= out.shard_count ||
        std::adjacent_find(missing.begin(), missing.end(),
                           [](int a, int b) { return a >= b; }) != missing.end() ||
        *std::min_element(out.attempts.begin(), out.attempts.end()) < 0) {
      return fail_parse(error_, "'missing_shards' is not an ascending, non-empty list of "
                                "shards below 'shard_count' with one 'attempts' each" +
                                    block_.at(at));
    }
    out.present = true;
    return true;
  }

  bool read_list(std::string_view name, std::vector<int>& out) {
    if (!key(name) || !punct('[')) return false;
    while (!next_is("]")) {
      if (!item() || !number(name, out.emplace_back())) return false;
    }
    return punct(']');
  }

  bool byte(char c) {
    if (pos_ == s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  [[nodiscard]] bool next_is(std::string_view bytes) const {
    return std::string_view(s_).substr(pos_).starts_with(bytes);
  }

  /// Rejects at the cursor: "expected <what> at byte offset N in <block>,
  /// found <bytes>", or "truncated at byte offset N of N" when the input
  /// ends there, or inside the token or the quoted key there.
  bool expected(const std::string& what) {
    const std::string_view rest = std::string_view(s_).substr(pos_);
    if (std::all_of(rest.begin(), rest.end(), in_token) ||
        (rest[0] == '"' && rest.find('"', 1) >= rest.size() - 1)) {
      return fail_parse(error_, "truncated at byte offset " + std::to_string(s_.size()) + " of " +
                                    std::to_string(s_.size()) + ": expected " + what +
                                    block_.where());
    }
    return fail_parse(error_, "expected " + what + block_.at(pos_) + ", found " + found());
  }

  /// What starts at the cursor: a quoted key whole (past its comma), a
  /// token, or one byte; at most 64 bytes of it.
  [[nodiscard]] std::string found() const {
    size_t at = pos_;
    if (s_[at] == ',' && at + 1 < s_.size() && s_[at + 1] == '"') ++at;
    size_t end = at + 1;
    if (s_[at] == '"') end = std::min(s_.find('"', end), s_.size() - 1) + 1;
    while (end < s_.size() && in_token(s_[at]) && in_token(s_[end])) ++end;
    const std::string bytes = s_.substr(at, std::min(end - at, size_t{64}));
    return s_[at] == '"' ? bytes : "'" + bytes + "'";
  }

  const std::string& s_;
  std::string* error_;
  size_t pos_ = 0;
  bool first_ = true;  // the next key or element opens its container
  Block block_{"the report object"};
};

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
  return value.kind == JsonValue::Kind::kNumber && read_exact(value.text, out);
}

bool json_read_double(const JsonValue& obj, const std::string& key, double& out) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && json_read_double(*v, out);
}

bool json_read_double(const JsonValue& value, double& out) {
  return value.kind == JsonValue::Kind::kNumber && read_exact(value.text, out);
}

std::optional<SweepReport> report_from_json(const std::string& text, ShardInfo* shard,
                                            std::string* error, IncompleteInfo* incomplete) {
  if (shard != nullptr) *shard = ShardInfo{};
  if (incomplete != nullptr) *incomplete = IncompleteInfo{};
  if (text.empty()) {
    fail_parse(error, "empty file (0 bytes)");
    return std::nullopt;
  }
  SweepReport report;
  ShardInfo shard_info;
  IncompleteInfo incomplete_info;
  if (!ReportCursor(text, error).read(report, shard_info, incomplete_info)) return std::nullopt;
  // Only the engine's bytes are a report: re-encode with the writer the
  // provenance names and compare. This rejects a derived value that does
  // not follow from its counters and a number the writer would spell
  // differently.
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
