// SweepSpec: the one description of a sweep shared by `pofl_cli sweep` and
// the daemon. Pins the canonical key (the daemon's cache key and the CLI's
// checkpoint guard both embed it, so its bytes must not drift), the
// validator's range checks (NaN p included), that a decoded request and a
// spec built field by field agree, and the factory's full-stream count.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "graph/builders.hpp"
#include "sim/sweep_json.hpp"
#include "sim/sweep_spec.hpp"

namespace pofl {
namespace {

TEST(SweepSpec, KeyFollowsTheDocumentedGrammar) {
  SweepSpec iid;
  iid.p = 0.05;
  iid.trials = 20;
  EXPECT_EQ(iid.key(),
            "model=sd|pattern=shortest-path|iid|p=0.050000000000000003|trials=20|seed=1|"
            "pairs=all|stretch=1");

  SweepSpec exhaustive;
  exhaustive.exhaustive = true;
  exhaustive.k = 2;
  exhaustive.model = RoutingModel::kDestinationOnly;
  exhaustive.pairs = {{0, 3}, {4, 1}};
  exhaustive.stretch = false;
  exhaustive.shard_index = 1;
  exhaustive.shard_count = 3;
  exhaustive.shard_set = true;
  EXPECT_EQ(exhaustive.scenario_key(),
            "model=dest|pattern=shortest-path|exhaustive|k=2|pairs=0,3;4,1");
  EXPECT_EQ(exhaustive.key(), exhaustive.scenario_key() + "|stretch=0|shard=1/3");
}

TEST(SweepSpec, ValidateRejectsOutOfRangeFieldsAndNamesThem) {
  const Graph g = make_complete(5);
  std::string error;
  SweepSpec ok;
  ok.p = 0.1;
  ok.trials = 3;
  EXPECT_TRUE(ok.validate(g, error)) << error;

  const auto rejects = [&](SweepSpec spec, const std::string& names) {
    std::string why;
    EXPECT_FALSE(spec.validate(g, why)) << "accepted a spec that should name " << names;
    EXPECT_NE(why.find(names), std::string::npos) << why;
  };
  SweepSpec bad = ok;
  bad.p = std::nan("");
  rejects(bad, "p <= 1");
  bad = ok;
  bad.p = 1.5;
  rejects(bad, "p <= 1");
  bad = ok;
  bad.trials = 1'000'000'001;
  rejects(bad, "trials");
  bad = ok;
  bad.seed = -1;
  rejects(bad, "seed");
  bad = ok;
  bad.pairs = {{0, 1}, {2, 5}};
  rejects(bad, "pairs[1]");
  bad = ok;
  bad.pairs = {{0, 1}, {1, 0}, {0, 1}};
  rejects(bad, "pairs[2] repeats pairs[0]");
  bad = ok;
  bad.shard_index = 2;
  bad.shard_count = 2;
  rejects(bad, "shard");
  bad = ok;
  bad.exhaustive = true;
  bad.k = 513;
  rejects(bad, "k <= 512");
}

TEST(SweepSpec, DecodedRequestMatchesTheSpecBuiltByHand) {
  const Graph g = make_complete(5);
  JsonValue req;
  ASSERT_TRUE(parse_json(R"({"cmd":"sweep","graph":"k5","mode":"iid","p":5e-2,"trials":7,)"
                         R"("seed":9,"model":"dest","pairs":[[0,1],[3,2]],"stretch":false,)"
                         R"("shard":[1,4]})",
                         req));
  SweepSpec decoded;
  std::string error;
  ASSERT_TRUE(decode_sweep_spec(req, g, /*witness=*/false, decoded, error)) << error;

  SweepSpec built;
  built.p = 0.05;
  built.trials = 7;
  built.seed = 9;
  built.model = RoutingModel::kDestinationOnly;
  built.pairs = {{0, 1}, {3, 2}};
  built.stretch = false;
  built.shard_index = 1;
  built.shard_count = 4;
  built.shard_set = true;
  EXPECT_EQ(decoded.key(), built.key());

  // The witness command takes the scenario keys only.
  EXPECT_FALSE(decode_sweep_spec(req, g, /*witness=*/true, decoded, error));
  EXPECT_NE(error.find("stretch"), std::string::npos) << error;
}

TEST(SweepSpec, MakeSourceShardsTheStreamAndCountsAllOfIt) {
  const Graph g = make_complete(5);  // 10 links, 20 ordered pairs
  SweepSpec spec;
  spec.exhaustive = true;
  spec.k = 2;  // 1 + 10 + 45 failure sets
  int64_t owned = 0;
  for (int i = 0; i < 3; ++i) {
    spec.shard_index = i;
    spec.shard_count = 3;
    const SweepSource sweep = spec.make_source(g);
    EXPECT_EQ(sweep.full_total, 56 * 20);
    EXPECT_EQ(sweep.pair_count, 20u);
    EXPECT_EQ(sweep.source->shard_index(), i);
    owned += sweep.source->total_hint();
  }
  EXPECT_EQ(owned, 56 * 20);

  SweepSpec iid;
  iid.p = 0.2;
  iid.trials = 6;
  iid.pairs = {{0, 1}, {2, 3}};
  EXPECT_EQ(iid.make_source(g).full_total, 12);
}

}  // namespace
}  // namespace pofl
