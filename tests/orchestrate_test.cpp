// Recovery-matrix suite for the fault-tolerant sweep orchestration layer.
//
// Three pillars:
//
//   * POFL_FAULT spec parsing — every mode, wildcard, and exit-code form
//     round-trips into the matching FaultSpec, and every malformed spec is
//     rejected (a typo'd fault spec must be a hard error, never a silent
//     no-op that quietly skips the injection);
//   * ShardSupervisor — real fork()ed children driven through the full
//     recovery matrix: clean runs, exit/signal/timeout/validation failures
//     with capped-backoff retries, retry exhaustion, checkpoint skips, fork
//     failures, and the no-zombie guarantee after every path;
//   * partial-report provenance — to_json_partial / report_from_json
//     round-trip the "incomplete" block byte for byte, malformed blocks are
//     rejected by name, and parse failures carry a byte offset.
//
// The timing constants here are lower bounds only (a retry cannot fire
// before its backoff gate) — nothing asserts an upper bound, so the suite
// stays deterministic on loaded CI runners.

#include <gtest/gtest.h>

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "orchestrate/fault_inject.hpp"
#include "orchestrate/supervisor.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"

namespace pofl {
namespace {

// ---- POFL_FAULT spec parsing ----------------------------------------------

TEST(FaultSpec, ParsesEveryModeAndWildcards) {
  auto crash = parse_fault_spec("crash:1:0");
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(crash->mode, FaultMode::kCrash);
  EXPECT_EQ(crash->shard, 1);
  EXPECT_EQ(crash->attempt, 0);

  auto hang = parse_fault_spec("hang:2:3");
  ASSERT_TRUE(hang.has_value());
  EXPECT_EQ(hang->mode, FaultMode::kHang);

  auto exit_default = parse_fault_spec("exit:0:0");
  ASSERT_TRUE(exit_default.has_value());
  EXPECT_EQ(exit_default->mode, FaultMode::kExit);
  EXPECT_EQ(exit_default->exit_code, 3);

  auto exit_code = parse_fault_spec("exit:0:1:77");
  ASSERT_TRUE(exit_code.has_value());
  EXPECT_EQ(exit_code->exit_code, 77);

  auto corrupt = parse_fault_spec("corrupt:3:*");
  ASSERT_TRUE(corrupt.has_value());
  EXPECT_EQ(corrupt->mode, FaultMode::kCorrupt);
  EXPECT_EQ(corrupt->attempt, -1);

  auto all = parse_fault_spec("crash:*:*");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->shard, -1);
  EXPECT_EQ(all->attempt, -1);
}

TEST(FaultSpec, MatchesWithWildcards) {
  const FaultSpec exact = *parse_fault_spec("crash:2:1");
  EXPECT_TRUE(exact.matches(2, 1));
  EXPECT_FALSE(exact.matches(2, 0));
  EXPECT_FALSE(exact.matches(1, 1));

  const FaultSpec any_attempt = *parse_fault_spec("crash:2:*");
  EXPECT_TRUE(any_attempt.matches(2, 0));
  EXPECT_TRUE(any_attempt.matches(2, 9));
  EXPECT_FALSE(any_attempt.matches(3, 0));

  const FaultSpec any = *parse_fault_spec("crash:*:*");
  EXPECT_TRUE(any.matches(0, 0));
  EXPECT_TRUE(any.matches(63, 5));
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  // A bad spec must parse to nullopt — the worker turns that into a hard
  // error instead of silently running fault-free.
  for (const char* bad :
       {"", "crash", "crash:1", "explode:1:0", "crash:1:0:0", "exit:1:0:256", "exit:1:0:-1",
        "crash:-2:0", "crash:x:0", "crash:1:0:3:4", "crash:1:y", "exit:1:0:", "crash::0",
        "hang:1000001:0", "CRASH:1:0"}) {
    EXPECT_FALSE(parse_fault_spec(bad).has_value()) << "spec: '" << bad << "'";
  }
}

// ---- ShardSupervisor with real children -----------------------------------

/// Forks a child that runs `body` and _exits with its return value. A -1
/// from fork() propagates so the supervisor's fork-failure path is
/// reachable too.
template <typename Body>
pid_t fork_child(Body body) {
  const pid_t pid = fork();
  if (pid == 0) _exit(body());
  return pid;
}

/// True when the calling process has no unreaped children — the no-zombie
/// postcondition every supervisor path must restore.
bool no_children_left() {
  const pid_t r = waitpid(-1, nullptr, WNOHANG);
  return r == -1 && errno == ECHILD;
}

int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST(OrchestrateSupervisor, AllShardsSucceedFirstAttempt) {
  ShardSupervisor supervisor{ShardSupervisorOptions{}};
  const auto result = supervisor.run(4, [](int, int) { return fork_child([] { return 0; }); });
  ASSERT_EQ(result.shards.size(), 4u);
  EXPECT_TRUE(result.all_completed());
  EXPECT_TRUE(result.missing().empty());
  EXPECT_EQ(result.resumed_from_checkpoint(), 0);
  for (const ShardOutcome& s : result.shards) {
    EXPECT_EQ(s.attempts, 1);
    EXPECT_FALSE(s.from_checkpoint);
    EXPECT_TRUE(s.error.empty());
  }
  EXPECT_TRUE(no_children_left());
}

TEST(OrchestrateSupervisor, RetriesNonZeroExitThenSucceeds) {
  ShardSupervisorOptions opts;
  opts.retries = 2;
  opts.backoff_ms = 50;
  ShardSupervisor supervisor{opts};
  const int64_t start = steady_ms();
  const auto result = supervisor.run(
      2, [](int, int attempt) { return fork_child([attempt] { return attempt == 0 ? 7 : 0; }); });
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.shards[0].attempts, 2);
  EXPECT_EQ(result.shards[1].attempts, 2);
  // The retry cannot fire before its backoff gate opens.
  EXPECT_GE(steady_ms() - start, 50);
  EXPECT_TRUE(no_children_left());
}

TEST(OrchestrateSupervisor, RetriesSigkilledWorker) {
  ShardSupervisorOptions opts;
  opts.retries = 1;
  opts.backoff_ms = 10;
  ShardSupervisor supervisor{opts};
  const auto result = supervisor.run(1, [](int, int attempt) {
    return fork_child([attempt]() -> int {
      if (attempt == 0) raise(SIGKILL);
      return 0;
    });
  });
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.shards[0].attempts, 2);
  EXPECT_TRUE(no_children_left());
}

TEST(OrchestrateSupervisor, TimesOutHungWorkerAndRetries) {
  ShardSupervisorOptions opts;
  opts.retries = 1;
  opts.backoff_ms = 10;
  opts.shard_timeout_s = 0.2;
  opts.term_grace_ms = 100;
  ShardSupervisor supervisor{opts};
  const auto result = supervisor.run(1, [](int, int attempt) {
    return fork_child([attempt]() -> int {
      if (attempt == 0) sleep(60);  // dies to the supervisor's SIGTERM
      return 0;
    });
  });
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.shards[0].attempts, 2);
  EXPECT_TRUE(no_children_left());
}

TEST(OrchestrateSupervisor, EscalatesToSigkillWhenSigtermIgnored) {
  ShardSupervisorOptions opts;
  opts.shard_timeout_s = 0.2;
  opts.term_grace_ms = 100;
  ShardSupervisor supervisor{opts};
  const auto result = supervisor.run(1, [](int, int) {
    return fork_child([]() -> int {
      signal(SIGTERM, SIG_IGN);  // a wedged worker that shrugs off SIGTERM
      sleep(60);
      return 0;
    });
  });
  ASSERT_FALSE(result.all_completed());
  EXPECT_EQ(result.shards[0].attempts, 1);
  EXPECT_NE(result.shards[0].error.find("timed out"), std::string::npos)
      << result.shards[0].error;
  EXPECT_TRUE(no_children_left());
}

TEST(OrchestrateSupervisor, ReportsExhaustedRetriesWithLastError) {
  ShardSupervisorOptions opts;
  opts.retries = 2;
  opts.backoff_ms = 5;
  ShardSupervisor supervisor{opts};
  const auto result =
      supervisor.run(3, [](int shard, int) { return fork_child([shard] { return shard == 1 ? 9 : 0; }); });
  ASSERT_FALSE(result.all_completed());
  EXPECT_EQ(result.missing(), std::vector<int>{1});
  EXPECT_EQ(result.shards[1].attempts, opts.retries + 1);
  EXPECT_NE(result.shards[1].error.find("exited with status 9"), std::string::npos)
      << result.shards[1].error;
  EXPECT_TRUE(result.shards[0].completed);
  EXPECT_TRUE(result.shards[2].completed);
  EXPECT_TRUE(no_children_left());
}

TEST(OrchestrateSupervisor, CleanExitWithInvalidOutputIsAFailedAttempt) {
  // The child exits 0 every time but only writes acceptable output on its
  // second attempt — validation, not the exit code, decides success.
  char tmpl[] = "/tmp/pofl_orch_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/out.txt";

  ShardSupervisorOptions opts;
  opts.retries = 1;
  opts.backoff_ms = 10;
  ShardSupervisor supervisor{opts};
  const auto result = supervisor.run(
      1,
      [&](int, int attempt) {
        return fork_child([&path, attempt] {
          std::ofstream(path) << (attempt == 0 ? "torn" : "good");
          return 0;
        });
      },
      [&](int, std::string& error) {
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        if (buf.str() == "good") return true;
        error = "unexpected content '" + buf.str() + "'";
        return false;
      });
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.shards[0].attempts, 2);
  EXPECT_TRUE(no_children_left());
  std::remove(path.c_str());
  rmdir(tmpl);
}

TEST(OrchestrateSupervisor, CheckpointedShardSkipsSpawnEntirely) {
  // Shard 0's output "already exists" (the checkpoint); the others must
  // produce theirs by running. The same validate answers both the resume
  // probe and the post-exit check, exactly as the --checkpoint-dir driver
  // uses it.
  char tmpl[] = "/tmp/pofl_ckpt_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir(tmpl);
  std::ofstream(dir + "/shard_0") << "done";

  int spawned_shard0 = 0;
  ShardSupervisor supervisor{ShardSupervisorOptions{}};
  const auto result = supervisor.run(
      3,
      [&](int shard, int) {
        if (shard == 0) ++spawned_shard0;
        return fork_child([&dir, shard] {
          std::ofstream(dir + "/shard_" + std::to_string(shard)) << "done";
          return 0;
        });
      },
      [&](int shard, std::string& error) {
        if (std::ifstream(dir + "/shard_" + std::to_string(shard)).good()) return true;
        error = "no output yet";
        return false;
      });
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(spawned_shard0, 0);
  EXPECT_TRUE(result.shards[0].from_checkpoint);
  EXPECT_EQ(result.shards[0].attempts, 0);
  EXPECT_FALSE(result.shards[1].from_checkpoint);
  EXPECT_EQ(result.resumed_from_checkpoint(), 1);
  EXPECT_TRUE(no_children_left());
  for (int i = 0; i < 3; ++i) std::remove((dir + "/shard_" + std::to_string(i)).c_str());
  rmdir(tmpl);
}

TEST(OrchestrateSupervisor, ForkFailureCountsAsAnAttempt) {
  ShardSupervisorOptions opts;
  opts.retries = 1;
  opts.backoff_ms = 5;
  ShardSupervisor supervisor{opts};
  const auto result = supervisor.run(1, [](int, int attempt) -> pid_t {
    if (attempt == 0) return -1;  // simulated fork() failure
    return fork_child([] { return 0; });
  });
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.shards[0].attempts, 2);
  EXPECT_TRUE(no_children_left());
}

// ---- partial-report provenance --------------------------------------------

/// A small deterministic report: two per-pair rows whose exact-integer
/// counters sum into totals, as run_report guarantees.
SweepReport tiny_report() {
  SweepReport report;
  PairStats a;
  a.source = 0;
  a.destination = 3;
  a.stats.total = 10;
  a.stats.promise_broken = 1;
  a.stats.delivered = 8;
  a.stats.looped = 1;
  a.stats.failures_seen = 12;
  a.stats.hops_delivered = 40;
  a.stats.stretch_samples = 8;
  a.stats.stretch_sum_q32 = 9 * (int64_t{1} << 32);
  a.stats.max_stretch = 2.5;
  PairStats b;
  b.source = 2;
  b.destination = 5;
  b.stats.total = 6;
  b.stats.delivered = 6;
  b.stats.failures_seen = 7;
  b.stats.hops_delivered = 18;
  b.stats.stretch_samples = 6;
  b.stats.stretch_sum_q32 = 13 * (int64_t{1} << 31);
  b.stats.max_stretch = 1.5;
  report.per_pair = {a, b};
  report.totals = a.stats;
  report.totals.total += b.stats.total;
  report.totals.delivered += b.stats.delivered;
  report.totals.failures_seen += b.stats.failures_seen;
  report.totals.hops_delivered += b.stats.hops_delivered;
  report.totals.stretch_samples += b.stats.stretch_samples;
  report.totals.stretch_sum_q32 += b.stats.stretch_sum_q32;
  return report;
}

TEST(PartialReport, IncompleteBlockRoundTripsByteExactly) {
  const SweepReport report = tiny_report();
  IncompleteInfo incomplete;
  incomplete.present = true;
  incomplete.shard_count = 8;
  incomplete.missing_shards = {2, 5};
  incomplete.attempts = {3, 1};
  const std::string text = to_json_partial(report, incomplete);

  ShardInfo shard;
  IncompleteInfo parsed;
  std::string error;
  const auto back = report_from_json(text, &shard, &error, &parsed);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_FALSE(shard.present);
  ASSERT_TRUE(parsed.present);
  EXPECT_EQ(parsed.shard_count, 8);
  EXPECT_EQ(parsed.missing_shards, incomplete.missing_shards);
  EXPECT_EQ(parsed.attempts, incomplete.attempts);
  // parse -> serialize reproduces the bytes, incomplete block included.
  EXPECT_EQ(to_json_partial(*back, parsed), text);
  // ...and the underlying report matches a plain serialization.
  EXPECT_EQ(to_json(*back), to_json(report));
}

TEST(PartialReport, MalformedIncompleteBlocksAreRejectedByName) {
  const SweepReport report = tiny_report();
  IncompleteInfo incomplete;
  incomplete.present = true;
  incomplete.shard_count = 4;
  incomplete.missing_shards = {1};
  incomplete.attempts = {2};
  const std::string good = to_json_partial(report, incomplete);

  // Each corruption keeps the JSON well-formed but breaks an invariant the
  // parser must enforce: descending order, out-of-range index, mismatched
  // attempts length, empty missing list.
  const std::vector<std::pair<std::string, std::string>> breaks = {
      {"\"missing_shards\":[1]", "\"missing_shards\":[3,1]"},
      {"\"missing_shards\":[1]", "\"missing_shards\":[4]"},
      {"\"attempts\":[2]", "\"attempts\":[2,2]"},
      {"\"missing_shards\":[1]", "\"missing_shards\":[]"},
  };
  for (const auto& [from, to] : breaks) {
    std::string bad = good;
    const size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    std::string error;
    IncompleteInfo parsed;
    EXPECT_FALSE(report_from_json(bad, nullptr, &error, &parsed).has_value()) << to;
    EXPECT_NE(error.find("incomplete"), std::string::npos) << "error was: " << error;
  }
}

TEST(PartialReport, ParseErrorsCarryByteOffsets) {
  std::string error;
  EXPECT_FALSE(report_from_json("", nullptr, &error).has_value());
  EXPECT_NE(error.find("empty file (0 bytes)"), std::string::npos) << error;

  const std::string full = to_json(tiny_report());
  const std::string truncated = full.substr(0, full.size() / 2);
  EXPECT_FALSE(report_from_json(truncated, nullptr, &error).has_value());
  EXPECT_NE(error.find("byte offset"), std::string::npos) << error;

  EXPECT_FALSE(report_from_json("[1,2,3]", nullptr, &error).has_value());
  EXPECT_NE(error.find("expected '{' at byte offset 0"), std::string::npos) << error;

  EXPECT_FALSE(report_from_json("{\"per_pair\":[]}", nullptr, &error).has_value());
  EXPECT_NE(error.find("totals"), std::string::npos) << error;
}

}  // namespace
}  // namespace pofl
