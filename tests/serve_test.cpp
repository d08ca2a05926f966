// Conformance suite for the sweep-as-a-service daemon (src/serve).
//
// Five pillars:
//
//   * byte parity — daemon sweep responses reproduce the golden
//     tests/baselines/sweep_*.json recordings bit for bit, including under
//     concurrent clients (the cache stores exact serializations, and the
//     engine's counters are thread- and shard-invariant);
//   * cache discipline — repeat queries hit (and say so in the envelope),
//     LRU eviction fires exactly at capacity, and the hit/miss/eviction
//     counters surfaced by the stats endpoint match the request history;
//   * error containment — malformed requests (bad JSON, unknown cmd,
//     unregistered graph, out-of-range spec fields, unknown or misplaced
//     keys, repeated pairs) get {"ok":false} responses naming the culprit
//     and never kill the session: the same connection keeps answering
//     afterwards, over the real TCP layer too;
//   * witness and min-defeat answers — a witness equals the engine's first
//     violation on the same source, and every spelling of one pattern seed
//     shares one cache entry;
//   * parse robustness — the errno/ERANGE regression for read_double: a
//     report whose max_stretch is spelled 1e999 (strtod clamps to HUGE_VAL
//     and signals only through errno) must be rejected, not round-tripped
//     as infinity. Plus the parse -> append_json identity on a checked-in
//     baseline, which the submit client's report extraction rides on, and
//     the nesting cap that keeps a line of 100,000 '[' from overflowing the
//     parser's stack.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "address_limit.hpp"
#include "attacks/pattern_corpus.hpp"
#include "graph/builders.hpp"
#include "orchestrate/posix_io.hpp"
#include "serve/result_cache.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_json.hpp"
#include "synth/fat_tree.hpp"

namespace pofl {
namespace {

std::string baseline_path(const std::string& name) {
  return std::string(POFL_BASELINE_DIR) + "/" + name;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// The golden baseline body: the recorded file minus its trailing newline —
/// exactly the bytes the daemon's "report" field must carry.
std::string baseline_body(const std::string& name) {
  std::string golden;
  EXPECT_TRUE(read_file(baseline_path(name), golden)) << "missing baseline " << name;
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  return golden;
}

/// Parses a response envelope and extracts (ok, cached, body-bytes) where
/// the body is re-serialized through append_json — the same extraction the
/// submit client performs, so this asserts the byte-round-trip too.
struct Envelope {
  bool ok = false;
  bool cached = false;
  std::string key;
  std::string body;
  std::string error;
};

Envelope unpack(const std::string& response, const std::string& body_key) {
  Envelope e;
  JsonValue value;
  if (!parse_json(response, value) || value.kind != JsonValue::Kind::kObject) return e;
  const JsonValue* ok = value.find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) return e;
  e.ok = ok->boolean;
  if (!e.ok) {
    if (const JsonValue* err = value.find("error");
        err != nullptr && err->kind == JsonValue::Kind::kString) {
      e.error = err->text;
    }
    return e;
  }
  if (const JsonValue* cached = value.find("cached");
      cached != nullptr && cached->kind == JsonValue::Kind::kBool) {
    e.cached = cached->boolean;
  }
  if (const JsonValue* key = value.find("key");
      key != nullptr && key->kind == JsonValue::Kind::kString) {
    e.key = key->text;
  }
  if (const JsonValue* body = value.find(body_key); body != nullptr) {
    JsonWriter w;
    append_json(w, *body);
    e.body = w.str();
  }
  return e;
}

constexpr char kK33Sweep[] =
    R"({"cmd":"sweep","graph":"k33","mode":"exhaustive","k":9,"model":"dest","stretch":false})";

ServeOptions k33_opts(int cache_capacity = 64) {
  ServeOptions opts;
  opts.cache_capacity = cache_capacity;
  return opts;
}

void register_k33(SweepServer& server) {
  std::string error;
  ASSERT_TRUE(server.register_graph("k33", make_complete_bipartite(3, 3), error)) << error;
}

// ---- byte parity -----------------------------------------------------------

TEST(ServeSweep, MatchesGoldenBaselineAndCachesRepeat) {
  SweepServer server(k33_opts());
  register_k33(server);
  const std::string golden = baseline_body("sweep_k33_exhaustive.json");

  const Envelope first = unpack(server.handle_request(kK33Sweep), "report");
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(first.body, golden)
      << "daemon sweep diverged from the checked-in engine baseline";

  const Envelope second = unpack(server.handle_request(kK33Sweep), "report");
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cached) << "repeat of an identical spec must hit the cache";
  EXPECT_EQ(second.body, golden) << "cached bytes differ from the uncached run";

  const ResultCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(ServeSweep, ConcurrentClientsAreBitIdentical) {
  SweepServer server(k33_opts());
  register_k33(server);
  const std::string golden = baseline_body("sweep_k33_exhaustive.json");

  // Cold start: every thread fires the same query with no warm-up, so
  // several may race the first computation — all must serialize identically.
  constexpr int kThreads = 8;
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    clients.emplace_back(
        [&server, &responses, i] { responses[static_cast<size_t>(i)] = server.handle_request(kK33Sweep); });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kThreads; ++i) {
    const Envelope e = unpack(responses[static_cast<size_t>(i)], "report");
    ASSERT_TRUE(e.ok) << e.error;
    EXPECT_EQ(e.body, golden) << "client " << i << " saw different report bytes";
  }
}

TEST(ServeSweep, ExplicitPairListMatchesFatTreeBaseline) {
  // The wide-mask baseline: |F| <= 2 on the 108-link fat-tree, six probe
  // pairs — exercises the request's "pairs" field and multi-word masks.
  ServeOptions opts;
  SweepServer server(opts);
  std::string error;
  ASSERT_TRUE(server.register_graph("ft6", make_fat_tree(6), error)) << error;
  const std::string request =
      R"({"cmd":"sweep","graph":"ft6","mode":"exhaustive","k":2,"model":"dest",)"
      R"("stretch":false,"pairs":[[0,44],[9,30],[14,40],[20,10],[35,5],[44,0]]})";
  const Envelope e = unpack(server.handle_request(request), "report");
  ASSERT_TRUE(e.ok) << e.error;
  EXPECT_EQ(e.body, baseline_body("sweep_fattree_exhaustive.json"));
}

TEST(ServeSweep, ShardedResponsesMergeToTheUnshardedReport) {
  SweepServer server(k33_opts());
  register_k33(server);
  const std::string golden = baseline_body("sweep_k33_exhaustive.json");
  SweepReport merged;
  for (int i = 0; i < 3; ++i) {
    const std::string request =
        R"({"cmd":"sweep","graph":"k33","mode":"exhaustive","k":9,"model":"dest",)"
        R"("stretch":false,"shard":[)" +
        std::to_string(i) + R"(,3]})";
    const Envelope e = unpack(server.handle_request(request), "report");
    ASSERT_TRUE(e.ok) << e.error;
    ShardInfo info;
    std::string parse_error;
    const auto report = report_from_json(e.body, &info, &parse_error);
    ASSERT_TRUE(report.has_value()) << parse_error;
    EXPECT_TRUE(info.present);
    EXPECT_EQ(info.index, i);
    EXPECT_EQ(info.count, 3);
    merged.merge(*report);
  }
  EXPECT_EQ(to_json(merged), golden)
      << "daemon shard responses do not merge to the unsharded baseline";
}

// ---- cache discipline ------------------------------------------------------

TEST(ServeCache, EvictsLeastRecentlyUsedAtCapacity) {
  SweepServer server(k33_opts(/*cache_capacity=*/2));
  register_k33(server);
  const auto sweep_with_seed = [&](int seed) {
    const std::string request =
        R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":2,"seed":)" +
        std::to_string(seed) + "}";
    return unpack(server.handle_request(request), "report");
  };

  ASSERT_TRUE(sweep_with_seed(1).ok);  // insert A        cache: [A]
  ASSERT_TRUE(sweep_with_seed(2).ok);  // insert B        cache: [B A]
  ASSERT_TRUE(sweep_with_seed(3).ok);  // insert C -> evict A   cache: [C B]
  ResultCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);

  EXPECT_FALSE(sweep_with_seed(1).cached) << "evicted entry must miss";
  EXPECT_TRUE(sweep_with_seed(3).cached) << "recent entry must survive the eviction";
  stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.evictions, 2);  // re-inserting A evicted B
}

TEST(ServeCache, GraphHashIsContentAddressed) {
  // Two registrations with identical structure share cache entries; a
  // different structure cannot.
  const std::string h1 = graph_content_hash(make_complete_bipartite(3, 3));
  const std::string h2 = graph_content_hash(make_complete_bipartite(3, 3));
  const std::string h3 = graph_content_hash(make_complete(5));
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_EQ(h1.size(), 16u);
}

// ---- error containment -----------------------------------------------------

TEST(ServeErrors, MalformedRequestsGetJsonErrorsAndSessionSurvives) {
  SweepServer server(k33_opts());
  register_k33(server);
  // Each request, and a string its error must contain (the offending key or
  // pair index) where the error has one to name.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"this is not json", ""},
      {"{\"no_cmd\":1}", ""},
      {"{\"cmd\":\"frobnicate\"}", ""},
      {R"({"cmd":"sweep","graph":"nope","mode":"iid","p":0.1,"trials":2})", ""},
      {R"({"cmd":"sweep","graph":"k33","mode":"iid","p":1.5,"trials":2})", ""},
      {R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":0})", ""},
      {R"({"cmd":"sweep","graph":"k33","mode":"exhaustive"})", ""},
      {R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":2,"shard":[2,2]})", ""},
      {R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":2,"pairs":[[0,0]]})", ""},
      {R"({"cmd":"min-defeat","graph":"k33","source":0,"destination":99})", ""},
      // A repeated pair used to be swept twice (10 scenarios for 5 trials).
      {R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":5,)"
       R"("pairs":[[0,1],[0,1]]})",
       "pairs[1]"},
      // Unknown keys used to be ignored: a typo'd seed silently swept seed 1.
      {R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":2,"sede":9})", "sede"},
      {R"({"cmd":"witness","graph":"k33","mode":"exhaustive","k":1,"sede":9})", "sede"},
      {R"({"cmd":"min-defeat","graph":"k33","source":0,"destination":3,"budgte":2})",
       "budgte"},
      // Keys that do not apply to the mode or command.
      {R"({"cmd":"sweep","graph":"k33","mode":"exhaustive","k":1,"p":3,"seed":7})", "\"p\""},
      {R"({"cmd":"witness","graph":"k33","mode":"exhaustive","k":1,"stretch":false})",
       "stretch"},
      {R"({"cmd":"witness","graph":"k33","mode":"exhaustive","k":1,"shard":[0,2]})", "shard"},
  };
  for (const auto& [request, names] : bad) {
    const Envelope e = unpack(server.handle_request(request), "report");
    EXPECT_FALSE(e.ok) << "accepted: " << request;
    EXPECT_FALSE(e.error.empty()) << "no error text for: " << request;
    EXPECT_NE(e.error.find(names), std::string::npos) << e.error << " does not name " << names;
  }
  // The session keeps answering after every rejection.
  EXPECT_EQ(server.handle_request("{\"cmd\":\"ping\"}"), "{\"ok\":true,\"pong\":true}");
}

TEST(ServeErrors, DeeplyNestedRequestIsRejectedAtTheDepthCap) {
  // 100,000 '[' used to recurse the parser off the end of the stack. The
  // error names the byte where the nesting passes kMaxJsonDepth.
  SweepServer server(k33_opts());
  register_k33(server);
  const Envelope e = unpack(server.handle_request(std::string(100000, '[')), "report");
  EXPECT_FALSE(e.ok);
  EXPECT_NE(e.error.find("byte offset " + std::to_string(kMaxJsonDepth)), std::string::npos)
      << e.error;
  EXPECT_EQ(server.handle_request("{\"cmd\":\"ping\"}"), "{\"ok\":true,\"pong\":true}");

  // Nesting up to the cap still parses.
  const std::string deepest =
      std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  JsonValue value;
  EXPECT_TRUE(parse_json(deepest, value));
  size_t stop = 0;
  EXPECT_FALSE(parse_json("[" + deepest + "]", value, &stop));
  EXPECT_EQ(stop, static_cast<size_t>(kMaxJsonDepth));
}

// ---- min-defeat and witness -----------------------------------------------

TEST(ServeMinDefeat, SeedSpellingsShareOneCacheEntry) {
  SweepServer server(k33_opts());
  register_k33(server);
  const auto ask = [&](const std::string& pattern) {
    return unpack(server.handle_request(R"({"cmd":"min-defeat","graph":"k33","pattern":")" +
                                        pattern + R"(","source":0,"destination":3})"),
                  "result");
  };
  const Envelope first = ask("random-cyclic:5");
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cached);
  for (const std::string spelling : {"random-cyclic:+05", "random-cyclic: 5"}) {
    const Envelope again = ask(spelling);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_TRUE(again.cached) << spelling << " missed the cache";
    EXPECT_EQ(again.key, first.key);
    EXPECT_EQ(again.body, first.body);
  }
  EXPECT_EQ(server.cache_stats().entries, 1);
}

TEST(ServeWitness, MatchesTheEngineOnTheSameSource) {
  // The daemon's witness must be the plain engine's first violation on the
  // same scenario stream: same canonical index, failure set and outcome.
  SweepServer server(k33_opts());
  register_k33(server);
  const Graph g = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, g);
  struct Case {
    std::string request;
    std::unique_ptr<ScenarioSource> source;
  };
  std::vector<Case> cases;
  cases.push_back({R"({"cmd":"witness","graph":"k33","mode":"exhaustive","k":4})",
                   std::make_unique<ExhaustiveFailureSource>(g, 4, all_ordered_pairs(g))});
  cases.push_back({R"({"cmd":"witness","graph":"k33","mode":"iid","p":0.4,"trials":50,)"
                   R"("seed":3})",
                   std::make_unique<RandomFailureSource>(
                       RandomFailureSource::iid(g, 0.4, 50, 3, all_ordered_pairs(g)))});
  for (Case& c : cases) {
    const auto expected = SweepEngine().find_first_violation(g, *pattern, *c.source);
    ASSERT_TRUE(expected.has_value()) << "no violation to compare on: " << c.request;

    const Envelope e = unpack(server.handle_request(c.request), "witness");
    ASSERT_TRUE(e.ok) << e.error;
    EXPECT_FALSE(e.cached);
    JsonValue witness;
    ASSERT_TRUE(parse_json(e.body, witness));
    int64_t index = -1;
    ASSERT_TRUE(json_read_int(witness, "index", index));
    EXPECT_EQ(index, expected->index) << c.request;
    std::vector<int> failures;
    for (const JsonValue& item : witness.find("failures")->items) {
      failures.push_back(std::stoi(item.text));
    }
    EXPECT_EQ(failures, expected->scenario.failures.to_vector()) << c.request;
    EXPECT_EQ(witness.find("outcome")->text, to_string(expected->routing.outcome)) << c.request;

    const Envelope repeat = unpack(server.handle_request(c.request), "witness");
    ASSERT_TRUE(repeat.ok) << repeat.error;
    EXPECT_TRUE(repeat.cached);
    EXPECT_EQ(repeat.body, e.body);
  }
}

// ---- the TCP layer ---------------------------------------------------------

int connect_loopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

std::string roundtrip(int fd, const std::string& request) {
  const std::string out = request + "\n";
  EXPECT_TRUE(write_all(fd, out.data(), out.size()));
  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = read_eintr(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  const auto newline = response.find('\n');
  EXPECT_NE(newline, std::string::npos) << "connection closed before a response";
  if (newline != std::string::npos) response.resize(newline);
  return response;
}

/// Lines of /proc/self/maps: one per mapping of this process, so a thread
/// stack that is never released shows up as a new line.
int mapping_count() {
  std::ifstream maps("/proc/self/maps");
  int lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(ServeSocket, SequentialConnectionsDoNotAccumulateHandlers) {
  // Each connection runs on its own handler thread. A finished handler must
  // be joined while the daemon runs, not at shutdown: an unjoined thread
  // keeps its stack mapped (two mappings per connection), so a client that
  // connects, pings and hangs up in a loop would grow the daemon until
  // thread creation fails and it aborts.
  SweepServer server(k33_opts());
  register_k33(server);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const int port = server.port();
  std::thread daemon([&server] { server.run(); });

  const int before = mapping_count();
  for (int i = 0; i < 3000; ++i) {
    const int fd = connect_loopback(port);
    ASSERT_EQ(roundtrip(fd, "{\"cmd\":\"ping\"}"), "{\"ok\":true,\"pong\":true}") << i;
    close(fd);
  }
  const int after = mapping_count();
  EXPECT_LT(after - before, 200) << before << " mappings before, " << after << " after";

  server.stop();
  daemon.join();
}

TEST(ServeSocket, ThreadCreationFailureIsAnErrorLineAndTheDaemonKeepsAccepting) {
  // A daemon that cannot start a handler thread answers that connection
  // with an {"ok":false,...} line and goes on accepting, instead of
  // std::terminate. The daemon runs in a forked child whose address space
  // has no room for a thread stack; this process is the client.
  if (testing::kAddressSanitizer) GTEST_SKIP() << "RLIMIT_AS cannot be lowered under ASan";
  SweepServer server(k33_opts());
  register_k33(server);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const pid_t child = testing::fork_with_address_limit(testing::kChildThreadStack / 2, [&] {
    server.run();
    return 0;
  });
  ASSERT_GT(child, 0);
  for (int i = 0; i < 3; ++i) {
    const int fd = connect_loopback(server.port());
    const timeval timeout{10, 0};  // a hung daemon fails the test, not the suite
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const Envelope e = unpack(roundtrip(fd, "{\"cmd\":\"ping\"}"), "");
    close(fd);
    EXPECT_FALSE(e.ok) << "connection " << i;
    EXPECT_NE(e.error.find("cannot start a connection handler"), std::string::npos)
        << "connection " << i << ": " << e.error;
  }
  int status = 0;
  EXPECT_EQ(waitpid(child, &status, WNOHANG), 0) << "the daemon exited, status " << status;
  kill(child, SIGKILL);
  waitpid(child, &status, 0);
}

TEST(ServeSocket, ConcurrentTcpClientsShutdownCleanly) {
  SweepServer server(k33_opts());
  register_k33(server);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const int port = server.port();
  ASSERT_GT(port, 0);
  std::thread daemon([&server] { server.run(); });

  const std::string golden = baseline_body("sweep_k33_exhaustive.json");
  constexpr int kClients = 4;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([port, &responses, i] {
      const int fd = connect_loopback(port);
      responses[static_cast<size_t>(i)] = roundtrip(fd, kK33Sweep);
      close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    const Envelope e = unpack(responses[static_cast<size_t>(i)], "report");
    ASSERT_TRUE(e.ok) << e.error;
    EXPECT_EQ(e.body, golden) << "TCP client " << i << " saw different report bytes";
  }

  // One session: garbage, then a live request — the error must not drop the
  // connection (satellite: connection survives malformed input).
  const int fd = connect_loopback(port);
  const Envelope bad = unpack(roundtrip(fd, "][ definitely not json"), "report");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(roundtrip(fd, "{\"cmd\":\"ping\"}"), "{\"ok\":true,\"pong\":true}");
  // Shutdown over the same connection: response first, then the daemon
  // drains and run() returns.
  EXPECT_EQ(roundtrip(fd, "{\"cmd\":\"shutdown\"}"), "{\"ok\":true,\"stopping\":true}");
  close(fd);
  daemon.join();
  EXPECT_TRUE(server.stop_requested());
}

// ---- transports ------------------------------------------------------------

TEST(ServeTransport, ParsesHostListsAndQuotes) {
  std::vector<HostSpec> hosts;
  ASSERT_TRUE(parse_host_list("local,ssh:worker@node1,local", hosts));
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_FALSE(hosts[0].ssh);
  EXPECT_TRUE(hosts[1].ssh);
  EXPECT_EQ(hosts[1].host, "worker@node1");
  EXPECT_EQ(to_string(hosts[1]), "ssh:worker@node1");
  EXPECT_FALSE(parse_host_list("", hosts));
  EXPECT_FALSE(parse_host_list("local,,local", hosts));
  EXPECT_FALSE(parse_host_list("telnet:old", hosts));
  EXPECT_FALSE(parse_host_list("ssh:", hosts));

  EXPECT_EQ(shell_quote("plain"), "'plain'");
  EXPECT_EQ(shell_quote("has space"), "'has space'");
  EXPECT_EQ(shell_quote("don't"), "'don'\\''t'");
}

// ---- parse robustness (the read_double ERANGE regression) ------------------

TEST(ServeJson, ReadDoubleRejectsErangeOverflow) {
  // 1e999 overflows double: strtod clamps to HUGE_VAL and signals only via
  // errno, which the old read_double never checked — the report parsed
  // "successfully" with max_stretch = inf and could never round-trip.
  JsonValue obj;
  ASSERT_TRUE(parse_json(R"({"big":1e999,"small":1e-999,"fine":1.5})", obj));
  double out = 0.0;
  EXPECT_FALSE(json_read_double(obj, "big", out)) << "overflow must be rejected";
  EXPECT_TRUE(json_read_double(obj, "fine", out));
  EXPECT_EQ(out, 1.5);

  // End to end: a recorded report whose max_stretch is torn into 1e999 must
  // fail to parse with a diagnosis, not produce an infinite report.
  std::string golden;
  ASSERT_TRUE(read_file(baseline_path("sweep_k33_exhaustive.json"), golden));
  const auto pos = golden.find("\"max_stretch\":");
  ASSERT_NE(pos, std::string::npos);
  const auto value_start = pos + std::string("\"max_stretch\":").size();
  const auto value_end = golden.find_first_of(",}", value_start);
  const std::string torn = golden.substr(0, value_start) + "1e999" + golden.substr(value_end);
  std::string parse_error;
  EXPECT_FALSE(report_from_json(torn, nullptr, &parse_error).has_value());
  EXPECT_NE(parse_error.find("max_stretch"), std::string::npos)
      << "diagnosis must name the offending field, got: " << parse_error;
}

TEST(ServeJson, ReportFromJsonRejectsDeepNesting) {
  // The report reader does not recurse: a report opens with '{', so deep
  // nesting is rejected at its first byte.
  std::string parse_error;
  EXPECT_FALSE(report_from_json(std::string(100000, '['), nullptr, &parse_error).has_value());
  EXPECT_NE(parse_error.find("expected '{' at byte offset 0"), std::string::npos) << parse_error;
}

TEST(ServeJson, ParseAppendRoundTripsBaselineBytes) {
  // The identity the submit client's --json/--check extraction rides on:
  // parse_json + append_json reproduces the writer's bytes exactly (raw
  // number spellings survive).
  std::string golden;
  ASSERT_TRUE(read_file(baseline_path("cli_zoo_procs.json"), golden));
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  JsonValue value;
  ASSERT_TRUE(parse_json(golden, value));
  JsonWriter w;
  append_json(w, value);
  EXPECT_EQ(w.str(), golden);
}

}  // namespace
}  // namespace pofl
