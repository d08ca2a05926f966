// The JSON writer's spelling contract. Every report byte the golden
// baselines pin goes through JsonWriter, which writes numbers with
// std::to_chars; these tests hold it to the printf spellings the baselines
// were recorded with ("%.12g" for doubles, std::to_string for integers),
// over engine-like values, the "%g" notation switch points and the edges
// of the double and int64 ranges. Plus the file writer's failure path.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sim/sweep_json.hpp"

namespace pofl {
namespace {

std::string printf_g12(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string written(double v) {
  JsonWriter w;
  w.value(v);
  return w.take();
}

std::string written(int64_t v) {
  JsonWriter w;
  w.value(v);
  return w.take();
}

TEST(JsonNumbers, EngineLikeDoublesSpellAsPrintfG12) {
  // Rates and means are counter ratios; stretch sums are Q32 fixed-point
  // sums rendered as doubles.
  std::mt19937_64 rng(20261018);
  std::vector<double> corpus;
  for (int i = 0; i < 20000; ++i) {
    const int64_t den = static_cast<int64_t>(rng() % 5'000'000) + 1;
    const int64_t num = static_cast<int64_t>(rng() % static_cast<uint64_t>(den + 1));
    corpus.push_back(static_cast<double>(num) / static_cast<double>(den));
    corpus.push_back(static_cast<double>(rng() % 100'000'000) / static_cast<double>(den));
    const int64_t q32 = static_cast<int64_t>(rng() >> 1);
    corpus.push_back(static_cast<double>(q32) / 4294967296.0);
    const int shift = 52 + static_cast<int>(rng() % 40);
    corpus.push_back(std::ldexp(static_cast<double>(rng() >> 11), -shift));
  }
  for (const double v : corpus) ASSERT_EQ(written(v), printf_g12(v)) << v;
}

TEST(JsonNumbers, NotationSwitchPointsSpellAsPrintfG12) {
  // "%g" switches to an exponent below 1e-4 and at 1e12 (precision 12),
  // after rounding to 12 significant digits.
  std::vector<double> points = {1e-5, 1e-4, 1e12, 1e11, 1e13, 999999999999.0, 999999999999.4,
                                999999999999.5, 0.0001, 0.00009999999999995,
                                0.000099999999999949, 123456789012.5, 1234567890123.0};
  const size_t n = points.size();
  for (size_t i = 0; i < n; ++i) {
    double lo = points[i];
    double hi = points[i];
    for (int step = 0; step < 4; ++step) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, HUGE_VAL);
      points.push_back(lo);
      points.push_back(hi);
    }
  }
  for (const double v : points) {
    EXPECT_EQ(written(v), printf_g12(v)) << v;
    EXPECT_EQ(written(-v), printf_g12(-v)) << -v;
  }
}

TEST(JsonNumbers, EdgeDoublesSpellAsPrintfG12) {
  for (const double v : {0.0, -0.0, 1.0, -1.0, 0.5, 1.0 / 3.0, DBL_MIN, -DBL_MIN,
                         std::numeric_limits<double>::denorm_min(), DBL_MIN / 3.0, DBL_MAX,
                         -DBL_MAX, std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(written(v), printf_g12(v)) << v;
  }
  EXPECT_EQ(written(-0.0), "-0");
  EXPECT_EQ(written(DBL_MAX), "1.79769313486e+308");
}

TEST(JsonNumbers, IntegersSpellAsToString) {
  std::vector<int64_t> values = {0,
                                 1,
                                 -1,
                                 9,
                                 10,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min() + 1,
                                 std::numeric_limits<int32_t>::min(),
                                 std::numeric_limits<int32_t>::max()};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<int64_t>(rng()) >> (rng() % 64));
  }
  for (const int64_t v : values) ASSERT_EQ(written(v), std::to_string(v));
  JsonWriter w;
  w.value(std::numeric_limits<int>::min());
  EXPECT_EQ(w.str(), std::to_string(std::numeric_limits<int>::min()));
}

TEST(JsonWriter, LiteralValueIsAStringNotABool) {
  JsonWriter w;
  w.begin_object().key("a").value("text").key("b").value(std::string("more"));
  w.key("c").value(true).end_object();
  EXPECT_EQ(w.str(), "{\"a\":\"text\",\"b\":\"more\",\"c\":true}");
}

TEST(JsonWriter, CommasAndKeysAcrossNesting) {
  JsonWriter w;
  w.begin_object();
  w.key("x").begin_array().value(1).begin_object().end_object().begin_array().end_array();
  w.null().end_array();
  w.key("say \"hi\"\n").value("tab\there\x01");
  w.key("y").begin_object().key("z").value(0.25).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"x\":[1,{},[],null],\"say \\\"hi\\\"\\n\":\"tab\\there\\u0001\","
            "\"y\":{\"z\":0.25}}");
  EXPECT_EQ(w.take().front(), '{');
  EXPECT_TRUE(w.str().empty());
  w.begin_array().value(2).end_array();
  EXPECT_EQ(w.str(), "[2]");
  EXPECT_EQ(json_escape("a\"b\\c\r"), "a\\\"b\\\\c\\r");
}

TEST(JsonFile, WriteFailureAtCloseIsReported) {
  // /dev/full accepts the open and fails the flush: the failure only shows
  // once the buffered bytes are written out.
  if (std::FILE* probe = std::fopen("/dev/full", "w"); probe != nullptr) {
    std::fclose(probe);
  } else {
    GTEST_SKIP() << "no /dev/full";
  }
  EXPECT_FALSE(write_json_file("/dev/full", std::string(100, 'x')));
}

}  // namespace
}  // namespace pofl
