#include "sim/sweep_spec.hpp"

#include <cstdio>
#include <unordered_map>

#include "graph/bitmask.hpp"

namespace pofl {

namespace {

/// A JSON [a,b] array of two integers that fit an int.
bool read_int_pair(const JsonValue& value, int& a, int& b) {
  int64_t x = 0;
  int64_t y = 0;
  const bool ok = value.kind == JsonValue::Kind::kArray && value.items.size() == 2 &&
                  json_read_int(value.items[0], x) && json_read_int(value.items[1], y);
  a = static_cast<int>(x);
  b = static_cast<int>(y);
  return ok && a == x && b == y;
}

}  // namespace

bool SweepSpec::validate(const Graph& g, std::string& error) const {
  const auto fail = [&error](std::string why) {
    error = std::move(why);
    return false;
  };
  if (exhaustive && (k < 0 || k > EdgeMask::kMaxBits)) {
    return fail("need 0 <= k <= " + std::to_string(EdgeMask::kMaxBits) +
                " (the exhaustive failure budget), got " + std::to_string(k));
  }
  if (exhaustive && g.num_edges() > EdgeMask::kMaxBits) {
    return fail("exhaustive mode needs at most " + std::to_string(EdgeMask::kMaxBits) +
                " links; the graph has " + std::to_string(g.num_edges()));
  }
  if (!exhaustive && !(p >= 0.0 && p <= 1.0)) {  // written so that NaN fails too
    return fail("need 0 <= p <= 1, got " + std::to_string(p));
  }
  if (!exhaustive && (trials < 1 || trials > 1'000'000'000)) {
    return fail("need 1 <= trials <= 1e9, got " + std::to_string(trials));
  }
  if (!exhaustive && seed < 0) return fail("need seed >= 0, got " + std::to_string(seed));
  const int n = g.num_vertices();
  std::unordered_map<int64_t, size_t> first_index;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    if (s < 0 || t < 0 || s >= n || t >= n || s == t) {
      return fail("pairs[" + std::to_string(i) + "] needs 0 <= s,t < " + std::to_string(n) +
                  " and s != t");
    }
    const auto [first, fresh] = first_index.emplace(int64_t{s} * n + t, i);
    if (!fresh) {
      return fail("pairs[" + std::to_string(i) + "] repeats pairs[" +
                  std::to_string(first->second) + "]");
    }
  }
  if (shard_index < 0 || shard_index >= shard_count || shard_count > 1'000'000) {
    return fail("shard must be i/N with 0 <= i < N <= 1e6, got " + std::to_string(shard_index) +
                "/" + std::to_string(shard_count));
  }
  return true;
}

std::string SweepSpec::scenario_key() const {
  std::string key = model == RoutingModel::kSourceDestination ? "model=sd" : "model=dest";
  key += "|pattern=shortest-path|";
  if (exhaustive) {
    key += "exhaustive|k=" + std::to_string(k);
  } else {
    char p_text[64];
    std::snprintf(p_text, sizeof(p_text), "%.17g", p);  // round-trips, so 0.05 == 5e-2
    key += std::string("iid|p=") + p_text + "|trials=" + std::to_string(trials) +
           "|seed=" + std::to_string(seed);
  }
  key += pairs.empty() ? "|pairs=all" : "|pairs=";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) key += ';';
    key += std::to_string(pairs[i].first) + "," + std::to_string(pairs[i].second);
  }
  return key;
}

std::string SweepSpec::key() const {
  std::string key = scenario_key() + "|stretch=" + (stretch ? "1" : "0");
  if (shard_set) key += "|shard=" + std::to_string(shard_index) + "/" + std::to_string(shard_count);
  return key;
}

SweepSource SweepSpec::make_source(const Graph& g) const {
  auto list = pairs.empty() ? all_ordered_pairs(g) : pairs;
  SweepSource out;
  out.pair_count = list.size();
  if (exhaustive) {
    out.source = std::make_unique<ExhaustiveFailureSource>(g, static_cast<int>(k), std::move(list));
  } else {
    out.source = std::make_unique<RandomFailureSource>(RandomFailureSource::iid(
        g, p, static_cast<int>(trials), static_cast<uint64_t>(seed), std::move(list)));
  }
  out.full_total = out.source->total_hint();
  out.source->shard(shard_index, shard_count);
  return out;
}

std::string SweepSpec::serialize(const SweepReport& report) const {
  return shard_set ? to_json_shard(report, shard_index, shard_count) : to_json(report);
}

bool decode_sweep_spec(const JsonValue& req, const Graph& g, bool witness, SweepSpec& spec,
                       std::string& error) {
  spec = SweepSpec{};
  const JsonValue* mode = req.find("mode");
  if (mode == nullptr || mode->kind != JsonValue::Kind::kString ||
      (mode->text != "iid" && mode->text != "exhaustive")) {
    error = "need \"mode\":\"iid\" or \"mode\":\"exhaustive\"";
    return false;
  }
  const bool iid = mode->text == "iid";
  spec.exhaustive = !iid;
  for (const auto& [name, value] : req.fields) {
    const auto bad = [&error, &name = name](const std::string& want) {
      error = "\"" + name + "\" must be " + want;
      return false;
    };
    if (req.find(name) != &value) return bad("given once");
    if (name == "cmd" || name == "graph" || name == "mode") continue;
    if (iid && name == "p") {
      if (!json_read_double(req, name, spec.p)) return bad("a number");
    } else if (iid && name == "trials") {
      if (!json_read_int(req, name, spec.trials)) return bad("an integer");
    } else if (iid && name == "seed") {
      if (!json_read_int(req, name, spec.seed)) return bad("an integer");
    } else if (!iid && name == "k") {
      if (!json_read_int(req, name, spec.k)) return bad("an integer");
    } else if (name == "model") {
      if (value.kind != JsonValue::Kind::kString || (value.text != "sd" && value.text != "dest")) {
        return bad("\"sd\" or \"dest\"");
      }
      spec.model = value.text == "sd" ? RoutingModel::kSourceDestination
                                      : RoutingModel::kDestinationOnly;
    } else if (name == "pairs") {
      if (value.kind != JsonValue::Kind::kArray || value.items.empty()) {
        return bad("a non-empty array of [s,t] pairs");
      }
      for (const JsonValue& item : value.items) {
        auto& [s, t] = spec.pairs.emplace_back();
        if (!read_int_pair(item, s, t)) return bad("a non-empty array of [s,t] pairs");
      }
    } else if (!witness && name == "stretch") {
      if (value.kind != JsonValue::Kind::kBool) return bad("a boolean");
      spec.stretch = value.boolean;
    } else if (!witness && name == "shard") {
      if (!read_int_pair(value, spec.shard_index, spec.shard_count)) return bad("an [i,N] array");
      spec.shard_set = true;
    } else {
      error = "\"" + name + "\" is not a key of " + (witness ? "witness" : "sweep") +
              " requests in " + mode->text + " mode";
      return false;
    }
  }
  if (iid ? req.find("p") == nullptr || req.find("trials") == nullptr : req.find("k") == nullptr) {
    error = iid ? "iid mode needs \"p\" and \"trials\"" : "exhaustive mode needs \"k\"";
    return false;
  }
  return spec.validate(g, error);
}

}  // namespace pofl
