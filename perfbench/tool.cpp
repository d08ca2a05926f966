// perfbench_tool: the in-process half of the benchmark (see README.md).
//
//   perfbench_tool run <timeout-s> <program> [args...]
//       Runs one program with stdout discarded and prints its wall time
//       (fork to reaped exit), exit status and peak RSS. Spawning from this
//       small process keeps the child's ru_maxrss its own: Linux carries the
//       spawning process's peak RSS over into the child's across fork and
//       exec.
//   perfbench_tool env
//       Build and machine facts: compiler, build type, nproc and a measured
//       effective-parallelism probe (the same spin work on 1 thread, then on
//       nproc threads at once).
//   perfbench_tool expect <graph-dir> <requests.jsonl> [<limit-s>] [--digest]
//       For every daemon request line, the bytes the program should answer,
//       computed in process: an oracle-free run_report serialization for a
//       sweep, min_defeat_search's result object for a min-defeat query. One
//       output line per request. With a limit, each min-defeat search runs in
//       a forked child that is killed after <limit-s> seconds, answering
//       {"timeout":true} instead (how the benchmark skips pairs whose search
//       falls back to enumeration, which can take minutes). With --digest,
//       sweep answers print as their digest (as `load` reports them).
//   perfbench_tool load <port> <connections> <requests.txt>
//       The daemon load generator. Plays phases of request lines (an empty
//       line ends each phase) over closed-loop client connections and prints,
//       per phase, its wall time and per request the latency, the cached
//       flag and the report digest (or the min-defeat result).
//   perfbench_tool trace <graph-dir> <plan.json>
//       The per-layer run. Replays the engine's group path from the public
//       functions of graph, sim and routing with one span per layer per
//       batch, checks the replay's report against run_report bit for bit,
//       then times orchestrate, search and serve calls. Prints one JSON
//       object of metrics and checks.
//
// Requests use the daemon's sweep/min-defeat JSON so that the daemon, the
// CLI reference and the traced replay all name a sweep the same way.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "graph/connectivity.hpp"
#include "graph/graphml.hpp"
#include "graph/incremental_connectivity.hpp"
#include "orchestrate/posix_io.hpp"
#include "orchestrate/supervisor.hpp"
#include "routing/simulator.hpp"
#include "search/min_defeat.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"

// The oracle is slated for deletion; its span is measured only while the
// header exists.
#if __has_include("graph/connectivity_oracle.hpp")
#include "graph/connectivity_oracle.hpp"
#define PERFBENCH_HAVE_ORACLE 1
#else
#define PERFBENCH_HAVE_ORACLE 0
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pofl;
using Clock = std::chrono::steady_clock;

constexpr int kBatchSize = 256;  // SweepOptions' default batch size

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

JsonValue parse_or_throw(const std::string& text, const std::string& what) {
  JsonValue v;
  size_t stop = 0;
  if (!parse_json(text, v, &stop)) {
    throw std::runtime_error(what + ": JSON error at byte offset " + std::to_string(stop));
  }
  return v;
}

std::string string_field(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    throw std::runtime_error("missing string field \"" + key + "\"");
  }
  return v->text;
}

int64_t int_field(const JsonValue& obj, const std::string& key) {
  int64_t out = 0;
  if (!json_read_int(obj, key, out)) throw std::runtime_error("bad integer field \"" + key + "\"");
  return out;
}

/// Graphs by name, loaded once from <dir>/<name>.graphml, each with the
/// shortest-path source-destination pattern every surface of the program
/// sweeps by default. Entries are heap-held so references stay valid.
class GraphTable {
 public:
  struct Entry {
    std::string path;
    Graph graph;
    std::unique_ptr<ForwardingPattern> pattern;
  };

  explicit GraphTable(std::string dir) : dir_(std::move(dir)) {}

  const Entry& get(const std::string& name) {
    auto it = entries_.find(name);
    if (it != entries_.end()) return *it->second;
    auto entry = std::make_unique<Entry>();
    entry->path = dir_ + "/" + name + ".graphml";
    auto net = load_graphml(entry->path);
    if (!net.has_value()) throw std::runtime_error("cannot load " + entry->path);
    entry->graph = std::move(net->graph);
    entry->pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, entry->graph);
    return *entries_.emplace(name, std::move(entry)).first->second;
  }

 private:
  std::string dir_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

/// A daemon sweep request, decoded: the scenario source it names and
/// whether stretch is on.
struct SweepRequest {
  const GraphTable::Entry* entry = nullptr;
  std::unique_ptr<ScenarioSource> source;
  bool stretch = true;
};

SweepRequest decode_sweep(const JsonValue& req, GraphTable& graphs) {
  SweepRequest out;
  out.entry = &graphs.get(string_field(req, "graph"));
  const Graph& g = out.entry->graph;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  if (const JsonValue* list = req.find("pairs"); list != nullptr) {
    for (const JsonValue& item : list->items) {
      if (item.items.size() != 2) throw std::runtime_error("pairs must be [s,t] arrays");
      pairs.emplace_back(static_cast<VertexId>(std::stol(item.items[0].text)),
                         static_cast<VertexId>(std::stol(item.items[1].text)));
    }
  } else {
    pairs = all_ordered_pairs(g);
  }
  if (const JsonValue* s = req.find("stretch"); s != nullptr) out.stretch = s->boolean;
  if (string_field(req, "mode") == "exhaustive") {
    out.source = std::make_unique<ExhaustiveFailureSource>(
        g, static_cast<int>(int_field(req, "k")), std::move(pairs));
  } else {
    double p = 0.0;
    if (!json_read_double(req, "p", p)) throw std::runtime_error("bad \"p\"");
    const int64_t seed = req.find("seed") != nullptr ? int_field(req, "seed") : 1;
    out.source = std::make_unique<RandomFailureSource>(
        RandomFailureSource::iid(g, p, static_cast<int>(int_field(req, "trials")),
                                 static_cast<uint64_t>(seed), std::move(pairs)));
  }
  return out;
}

/// The oracle-free engine's report, the reference every surface must match.
SweepReport engine_report(SweepRequest& req, int threads) {
  SweepOptions opts;
  opts.compute_stretch = req.stretch;
  opts.num_threads = threads;
  const SweepEngine engine(opts);
  req.source->reset();
  return engine.run_report(req.entry->graph, *req.entry->pattern, *req.source);
}

MinDefeatResult min_defeat_for(const JsonValue& req, GraphTable& graphs) {
  const GraphTable::Entry& entry = graphs.get(string_field(req, "graph"));
  const Graph& g = entry.graph;
  const int budget =
      req.find("budget") != nullptr ? static_cast<int>(int_field(req, "budget")) : g.num_edges();
  return min_defeat_search(g, *entry.pattern, static_cast<VertexId>(int_field(req, "source")),
                           static_cast<VertexId>(int_field(req, "destination")), budget);
}

/// Called first in a forked child: the child is killed when `parent` (this
/// tool) dies, so a run that kills the tool at its deadline leaves no
/// process of the program behind.
void die_with_parent(pid_t parent) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(127);  // the parent died before prctl
}

// ---- run -------------------------------------------------------------------

int cmd_run(double timeout_s, char** argv) {
  sigset_t chld;
  sigset_t old;
  sigemptyset(&chld);
  sigaddset(&chld, SIGCHLD);
  sigprocmask(SIG_BLOCK, &chld, &old);  // before fork: no exit goes unseen
  const pid_t self = getpid();
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    die_with_parent(self);
    sigprocmask(SIG_SETMASK, &old, nullptr);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDOUT_FILENO);
      close(devnull);
    }
    execvp(argv[0], argv);
    _exit(127);
  }
  timespec limit{};
  limit.tv_sec = static_cast<time_t>(timeout_s);
  limit.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(limit.tv_sec)) * 1e9);
  bool timed_out = false;
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t done = wait4(pid, &status, WNOHANG, &usage);
    if (done == pid) break;
    if (timed_out) {
      wait4(pid, &status, 0, &usage);
      break;
    }
    const double left = timeout_s - since(t0);
    if (left <= 0.0) {
      kill(pid, SIGKILL);
      timed_out = true;
      continue;
    }
    limit.tv_sec = static_cast<time_t>(left);
    limit.tv_nsec = static_cast<long>((left - static_cast<double>(limit.tv_sec)) * 1e9);
    sigtimedwait(&chld, nullptr, &limit);  // woken by SIGCHLD or the deadline
  }
  const double wall = since(t0);
  JsonWriter w;
  w.begin_object();
  w.key("wall_s").value(wall);
  w.key("exit").value(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  w.key("timed_out").value(timed_out);
  w.key("maxrss_mb").value(static_cast<double>(usage.ru_maxrss) / 1024.0);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ---- env -------------------------------------------------------------------

/// Fixed integer work that the optimizer cannot drop.
uint64_t spin(uint64_t iterations) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

int cmd_env() {
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  constexpr uint64_t kWork = 60'000'000;
  std::atomic<uint64_t> sink{0};
  const auto run = [&](int threads) {
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&] { sink.fetch_xor(spin(kWork), std::memory_order_relaxed); });
    }
    for (auto& t : pool) t.join();
    return since(t0);
  };
  const double one = run(1);
  const double all = run(nproc);
  JsonWriter w;
  w.begin_object();
#if defined(__clang__)
  w.key("compiler").value(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.key("compiler").value(std::string("gcc ") + __VERSION__);
#else
  w.key("compiler").value("unknown");
#endif
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("nproc").value(nproc);
  w.key("spin_1_thread_s").value(one);
  w.key("spin_nproc_threads_s").value(all);
  // nproc threads doing nproc times the work: on k free cores this takes
  // about nproc/k times as long as one thread does.
  w.key("effective_parallelism").value(all > 0.0 ? nproc * one / all : 0.0);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ---- expect ----------------------------------------------------------------

/// FNV-1a over the bytes, as 16 hex digits: how `load` and `expect --digest`
/// name a report without printing it.
std::string digest(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx", static_cast<unsigned long long>(h));
  return out;
}

/// Runs `work` in a forked child and returns what it wrote, or nullopt when
/// it did not finish within `limit_s` seconds (the child is then killed).
/// Only called while this process is single-threaded.
std::optional<std::string> run_limited(const std::function<std::string()>& work,
                                       double limit_s) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t self = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    die_with_parent(self);
    close(fds[0]);
    const std::string out = work();
    _exit(write_all(fds[1], out.data(), out.size()) ? 0 : 1);
  }
  close(fds[1]);
  std::string out;
  bool finished = false;
  const auto deadline = Clock::now() + std::chrono::duration<double>(limit_s);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                            Clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{fds[0], POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = read_eintr(fds[0], buf, sizeof(buf));
    if (n <= 0) {
      finished = n == 0;
      break;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (!finished) kill(pid, SIGKILL);
  int status = 0;
  waitpid_eintr(pid, &status, 0);
  if (!finished || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

int cmd_expect(const std::string& graph_dir, const std::string& requests_path,
               double limit_s, bool digests) {
  GraphTable graphs(graph_dir);
  std::ifstream in(requests_path);
  if (!in) throw std::runtime_error("cannot read " + requests_path);
  const int threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::string line;
  while (std::getline(in, line)) {
    const JsonValue req = parse_or_throw(line, "request");
    const std::string cmd = string_field(req, "cmd");
    if (cmd == "sweep") {
      SweepRequest sweep = decode_sweep(req, graphs);
      const std::string report = to_json(engine_report(sweep, threads));
      std::printf("%s\n", digests ? digest(report).c_str() : report.c_str());
    } else if (cmd == "min-defeat") {
      const auto search = [&] {
        const MinDefeatResult r = min_defeat_for(req, graphs);
        JsonWriter w;
        append_json(w, r, graphs.get(string_field(req, "graph")).graph);
        return w.str();
      };
      std::fflush(stdout);  // a forked child must not repeat buffered output
      const auto answer = limit_s > 0.0 ? run_limited(search, limit_s) : search();
      std::printf("%s\n", answer.has_value() ? answer->c_str() : "{\"timeout\":true}");
    } else {
      throw std::runtime_error("expect: unsupported cmd '" + cmd + "'");
    }
  }
  return 0;
}

// ---- load ------------------------------------------------------------------

/// One client connection to the daemon: a request line out, a response
/// line back. Responses land in one reused buffer, so receiving a 740 KB
/// report allocates nothing inside the timed region.
class Client {
 public:
  explicit Client(int port) : buf_(size_t{1} << 21) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd_ >= 0) close(fd_);
      throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { close(fd_); }

  /// Sends `line` (newline included) and returns the response line without
  /// its newline, valid until the next call; nullopt when the connection
  /// failed or closed.
  std::optional<std::string_view> request(const std::string& line) {
    if (start_ == end_) start_ = end_ = 0;
    if (!write_all(fd_, line.data(), line.size())) return std::nullopt;
    size_t scanned = start_;
    for (;;) {
      const auto first = buf_.begin() + static_cast<std::ptrdiff_t>(scanned);
      const auto last = buf_.begin() + static_cast<std::ptrdiff_t>(end_);
      if (const auto nl = std::find(first, last, '\n'); nl != last) {
        const std::string_view out(buf_.data() + start_,
                                   static_cast<size_t>(nl - buf_.begin()) - start_);
        start_ = static_cast<size_t>(nl - buf_.begin()) + 1;
        return out;
      }
      scanned = end_;
      if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
      const ssize_t n = read_eintr(fd_, buf_.data() + end_, buf_.size() - end_);
      if (n <= 0) return std::nullopt;
      end_ += static_cast<size_t>(n);
    }
  }

 private:
  int fd_ = -1;
  std::vector<char> buf_;
  size_t start_ = 0;  // first unread byte
  size_t end_ = 0;    // end of received bytes
};

/// Phases of request lines; an empty line ends a phase.
std::vector<std::vector<std::string>> read_phases(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::vector<std::string>> phases;
  std::vector<std::string> phase;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      phases.push_back(std::move(phase));
      phase.clear();
    } else {
      phase.push_back(line + "\n");
    }
  }
  if (!phase.empty()) throw std::runtime_error(path + ": last phase has no closing empty line");
  return phases;
}

/// One response, split into what the benchmark checks.
void append_response(JsonWriter& w, double latency_s, const std::optional<std::string>& resp) {
  w.begin_object();
  w.key("latency_s").value(latency_s);
  if (!resp.has_value()) {
    w.key("error").value("connection closed");
    w.end_object();
    return;
  }
  const std::string_view r(*resp);
  const bool ok = r.rfind("{\"ok\":true,\"cached\":", 0) == 0 && r.back() == '}';
  const size_t report = r.find(",\"report\":");
  const size_t result = r.find(",\"result\":");
  if (!ok || (report == std::string_view::npos && result == std::string_view::npos)) {
    w.key("error").value(std::string(r.substr(0, 200)));
    w.end_object();
    return;
  }
  w.key("cached").value(r.rfind("{\"ok\":true,\"cached\":true", 0) == 0);
  if (report != std::string_view::npos) {
    const size_t begin = report + 10;
    w.key("digest").value(digest(r.substr(begin, r.size() - 1 - begin)));
  } else {
    const size_t begin = result + 10;
    w.key("result").value(std::string(r.substr(begin, r.size() - 1 - begin)));
  }
  w.end_object();
}

/// Plays the phases over `connections` closed-loop clients: each sends its
/// next request only after the reply to the last one, and a phase starts
/// when the previous one has been answered in full.
int cmd_load(int port, int connections, const std::string& plan_path) {
  const auto phases = read_phases(plan_path);
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < connections; ++c) clients.push_back(std::make_unique<Client>(port));
  JsonWriter w;
  w.begin_object();
  w.key("phases").begin_array();
  for (const auto& lines : phases) {
    std::vector<double> latency(lines.size(), 0.0);
    std::vector<std::optional<std::string>> responses(lines.size());
    std::atomic<size_t> next{0};
    const auto t0 = Clock::now();
    std::vector<std::exception_ptr> errors(clients.size());
    std::vector<std::thread> pool;
    for (size_t c = 0; c < clients.size(); ++c) {
      pool.emplace_back([&, c] {
        try {
          for (size_t i = next++; i < lines.size(); i = next++) {
            const auto start = Clock::now();
            const auto resp = clients[c]->request(lines[i]);
            latency[i] = since(start);
            if (!resp.has_value()) return;  // the item keeps its "connection closed"
            responses[i].emplace(*resp);
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (auto& t : pool) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    const double wall = since(t0);
    w.begin_object();
    w.key("wall_s").value(wall);
    w.key("items").begin_array();
    for (size_t i = 0; i < lines.size(); ++i) append_response(w, latency[i], responses[i]);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ---- trace -----------------------------------------------------------------

/// Per-layer busy time and work counts of one traced replay.
struct Layers {
  double produce_s = 0.0;
  double promise_bfs_s = 0.0;
  double promise_uf_s = 0.0;
  double route_s = 0.0;
  double distance_s = 0.0;
  double aggregate_s = 0.0;
  int64_t scenarios = 0;
  int64_t packets = 0;
  int64_t hops = 0;
  int64_t distance_calls = 0;

  [[nodiscard]] double self_total() const {
    return produce_s + promise_bfs_s + promise_uf_s + route_s + distance_s + aggregate_s;
  }
};

uint64_t pair_key(VertexId s, VertexId t) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(s)) << 32) | static_cast<uint32_t>(t);
}

/// Promise booleans for one batch: singleton groups (Monte Carlo draws) by
/// early-exit BFS, shared failure sets by the rollback union-find. The two
/// loops are separate spans.
void promise_batch(const SimContext& ctx, const ScenarioBatch& batch, int n,
                   RoutingWorkspace& ws, std::unique_ptr<IncrementalConnectivity>& inc,
                   std::vector<uint8_t>& held, Layers* layers) {
  held.assign(static_cast<size_t>(n), 0);
  auto t0 = Clock::now();
  for (int begin = 0; begin < n;) {
    int end = begin + 1;
    while (end < n && batch.group_of(end) == batch.group_of(begin)) ++end;
    if (end - begin == 1) {
      const VertexId s = batch.source(begin);
      const VertexId t = batch.destination(begin);
      held[static_cast<size_t>(begin)] =
          s == t || connected_fast(ctx, batch.failures(begin), s, t, ws);
    }
    begin = end;
  }
  auto t1 = Clock::now();
  for (int begin = 0; begin < n;) {
    int end = begin + 1;
    while (end < n && batch.group_of(end) == batch.group_of(begin)) ++end;
    if (end - begin > 1) {
      if (inc == nullptr) inc = std::make_unique<IncrementalConnectivity>(ctx.graph());
      inc->move_to(batch.failures(begin));
      for (int i = begin; i < end; ++i) {
        const VertexId s = batch.source(i);
        const VertexId t = batch.destination(i);
        held[static_cast<size_t>(i)] = s == t || inc->connected(s, t);
      }
    }
    begin = end;
  }
  if (layers != nullptr) {
    layers->promise_bfs_s += std::chrono::duration<double>(t1 - t0).count();
    layers->promise_uf_s += since(t1);
  }
}

/// Admitted packets of one batch in route_groups_fast's layout.
struct Packed {
  std::vector<VertexId> src;
  std::vector<VertexId> dst;
  std::vector<int32_t> ord;
  std::vector<const IdSet*> fsets;
  std::vector<int> index;  // scenario index in the batch

  void pack(const ScenarioBatch& batch, int n, const std::vector<uint8_t>& held) {
    src.clear();
    dst.clear();
    ord.clear();
    fsets.clear();
    index.clear();
    int last_group = -1;
    for (int i = 0; i < n; ++i) {
      if (held[static_cast<size_t>(i)] == 0) continue;
      if (batch.group_of(i) != last_group) {
        last_group = batch.group_of(i);
        fsets.push_back(&batch.group_failures(last_group));
      }
      src.push_back(batch.source(i));
      dst.push_back(batch.destination(i));
      ord.push_back(static_cast<int32_t>(fsets.size()) - 1);
      index.push_back(i);
    }
  }

  [[nodiscard]] int size() const { return static_cast<int>(src.size()); }

  void route(const SimContext& ctx, const ForwardingPattern& pattern, RoutingWorkspace& ws,
             std::vector<FastRouteResult>& results) const {
    results.resize(src.size());
    if (src.empty()) return;
    (void)route_groups_fast(ctx, pattern, fsets.data(), ord.data(), src.data(), dst.data(),
                            size(), ws, results.data());
  }
};

/// The engine's group path rebuilt from public calls, one span per layer
/// per batch. Returns nullopt when the stream holds touring scenarios,
/// which this replay does not model.
std::optional<SweepReport> traced_replay(const Graph& g, const ForwardingPattern& pattern,
                                         ScenarioSource& source, bool stretch, Layers& L) {
  const SimContext ctx(g);
  RoutingWorkspace ws;
  ScenarioBatch batch;
  std::unique_ptr<IncrementalConnectivity> inc;
  std::unordered_map<uint64_t, SweepStats> rows;
  std::vector<uint8_t> held;
  Packed packed;
  std::vector<FastRouteResult> results;
  std::vector<int> dist;
  source.reset();
  for (;;) {
    auto t0 = Clock::now();
    const int n = source.next_batch(kBatchSize, batch);
    L.produce_s += since(t0);
    if (n == 0) break;
    L.scenarios += n;
    for (int i = 0; i < n; ++i) {
      if (batch.destination(i) == kNoVertex) return std::nullopt;
    }

    promise_batch(ctx, batch, n, ws, inc, held, &L);

    t0 = Clock::now();
    packed.pack(batch, n, held);
    L.aggregate_s += since(t0);

    t0 = Clock::now();
    packed.route(ctx, pattern, ws, results);
    L.route_s += since(t0);
    L.packets += packed.size();

    t0 = Clock::now();
    dist.assign(results.size(), 0);
    if (stretch) {
      for (int k = 0; k < packed.size(); ++k) {
        const auto uk = static_cast<size_t>(k);
        if (results[uk].outcome != RoutingOutcome::kDelivered) continue;
        const IdSet& failures = *packed.fsets[static_cast<size_t>(packed.ord[uk])];
        dist[uk] = distance(g, packed.src[uk], packed.dst[uk], failures).value_or(0);
        ++L.distance_calls;
      }
    }
    L.distance_s += since(t0);

    t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      SweepStats& row = rows[pair_key(batch.source(i), batch.destination(i))];
      ++row.total;
      if (held[static_cast<size_t>(i)] == 0) ++row.promise_broken;
    }
    for (int k = 0; k < packed.size(); ++k) {
      const auto uk = static_cast<size_t>(k);
      const FastRouteResult& r = results[uk];
      SweepStats& row = rows[pair_key(packed.src[uk], packed.dst[uk])];
      row.failures_seen += packed.fsets[static_cast<size_t>(packed.ord[uk])]->count();
      row.tally_route(r.outcome, r.hops);
      if (dist[uk] >= 1) row.tally_stretch(r.hops, dist[uk]);
      L.hops += r.hops;
    }
    L.aggregate_s += since(t0);
  }

  const auto t0 = Clock::now();
  std::map<std::pair<VertexId, VertexId>, SweepStats> sorted;
  for (const auto& [key, stats] : rows) {
    sorted.emplace(std::make_pair(static_cast<VertexId>(static_cast<int32_t>(key >> 32)),
                                  static_cast<VertexId>(static_cast<int32_t>(key & 0xffffffffu))),
                   stats);
  }
  SweepReport report;
  report.per_pair.reserve(sorted.size());
  for (const auto& [pair, stats] : sorted) {
    report.totals.merge(stats);
    report.per_pair.push_back(PairStats{pair.first, pair.second, stats});
  }
  L.aggregate_s += since(t0);
  return report;
}

/// Routes the first `max_batches` batches' admitted packets with a fresh
/// workspace (cold decision cache), then again with the same one (warm).
std::pair<double, double> cold_warm_route(const Graph& g, const ForwardingPattern& pattern,
                                          ScenarioSource& source, int max_batches) {
  const SimContext ctx(g);
  RoutingWorkspace promise_ws;
  std::unique_ptr<IncrementalConnectivity> inc;
  std::vector<ScenarioBatch> batches;
  std::vector<Packed> packs;
  std::vector<uint8_t> held;
  source.reset();
  batches.reserve(static_cast<size_t>(max_batches));
  packs.reserve(static_cast<size_t>(max_batches));
  while (static_cast<int>(batches.size()) < max_batches) {
    batches.emplace_back();
    const int n = source.next_batch(kBatchSize, batches.back());
    if (n == 0) {
      batches.pop_back();
      break;
    }
    promise_batch(ctx, batches.back(), n, promise_ws, inc, held, nullptr);
    packs.emplace_back();
    packs.back().pack(batches.back(), n, held);
  }
  RoutingWorkspace ws;
  std::vector<FastRouteResult> results;
  double passes[2] = {0.0, 0.0};
  for (double& pass : passes) {
    const auto t0 = Clock::now();
    for (const Packed& p : packs) p.route(ctx, pattern, ws, results);
    pass = since(t0);
  }
  return {passes[0], passes[1]};
}

#if PERFBENCH_HAVE_ORACLE
/// ConnectivityOracle::connected over every scenario of the stream, timed
/// per batch; returns the number of promise-holding scenarios.
int64_t oracle_pass(const Graph& g, ScenarioSource& source, double& seconds) {
  ConnectivityOracle oracle(g);
  ScenarioBatch batch;
  int64_t held = 0;
  source.reset();
  for (;;) {
    const int n = source.next_batch(kBatchSize, batch);
    if (n == 0) break;
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      const VertexId s = batch.source(i);
      const VertexId t = batch.destination(i);
      if (s == t || oracle.connected(s, t, batch.failures(i))) ++held;
    }
    seconds += since(t0);
  }
  return held;
}
#endif

/// `pofl_cli <argv...> --shard i/2 --json <dir>/shard_i.json` under the
/// ShardSupervisor, then the parent-side merge, as `sweep --procs 2` does.
struct ProcsTrace {
  double supervise_s = 0.0;
  double merge_s = 0.0;
  int64_t retries = 0;
  std::string merged;
  std::string error;
};

ProcsTrace trace_procs(const std::string& cli, const std::vector<std::string>& argv,
                       const std::string& work_dir) {
  constexpr int kShards = 2;
  ProcsTrace out;
  std::vector<std::string> files;
  for (int i = 0; i < kShards; ++i) {
    files.push_back(work_dir + "/shard_" + std::to_string(i) + ".json");
    std::remove(files.back().c_str());
  }
  const auto spawn = [&](int shard, int /*attempt*/) -> pid_t {
    std::vector<std::string> args = {cli};
    args.insert(args.end(), argv.begin(), argv.end());
    args.insert(args.end(), {"--shard", std::to_string(shard) + "/" + std::to_string(kShards),
                             "--json", files[static_cast<size_t>(shard)], "--threads", "1"});
    std::vector<char*> raw;
    for (auto& a : args) raw.push_back(a.data());
    raw.push_back(nullptr);
    const pid_t self = getpid();
    const pid_t pid = fork();
    if (pid == 0) {
      die_with_parent(self);
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        dup2(devnull, STDOUT_FILENO);
        close(devnull);
      }
      execv(cli.c_str(), raw.data());
      _exit(127);
    }
    return pid;
  };
  const auto validate = [&](int shard, std::string& error) {
    ShardInfo info;
    std::string text;
    try {
      text = read_file(files[static_cast<size_t>(shard)]);
    } catch (const std::exception& e) {
      error = e.what();
      return false;
    }
    if (!report_from_json(text, &info, &error).has_value()) return false;
    return info.present && info.index == shard && info.count == kShards;
  };
  ShardSupervisorOptions opts;
  opts.retries = 2;
  ShardSupervisor supervisor(opts);
  auto t0 = Clock::now();
  const SupervisorResult result = supervisor.run(kShards, spawn, validate);
  out.supervise_s = since(t0);
  for (const ShardOutcome& shard : result.shards) {
    out.retries += std::max(0, shard.attempts - 1);
    if (!shard.completed) out.error = "shard " + std::to_string(shard.shard) + ": " + shard.error;
  }
  if (!out.error.empty()) return out;
  t0 = Clock::now();
  SweepReport merged;
  for (const std::string& file : files) {
    const auto report = report_from_json(read_file(file), nullptr, &out.error);
    if (!report.has_value()) return out;
    merged.merge(*report);
  }
  out.merged = to_json(merged);
  out.merge_s = since(t0);
  for (const std::string& file : files) std::remove(file.c_str());
  return out;
}

int cmd_trace(const std::string& graph_dir, const std::string& plan_path) {
  const JsonValue plan = parse_or_throw(read_file(plan_path), plan_path);
  const std::string cli = string_field(plan, "cli");
  const std::string work_dir = string_field(plan, "work_dir");
  GraphTable graphs(graph_dir);
  std::vector<std::string> failures;  // failed checks, by name

  // graph: GraphML parse of the sweep's graph, median of a few loads.
  const JsonValue& sweep_req = *plan.find("sweep");
  const std::string graph_path = graphs.get(string_field(sweep_req, "graph")).path;
  std::vector<double> loads;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const auto net = load_graphml(graph_path);
    loads.push_back(since(t0));
    if (!net.has_value()) failures.push_back("graph_load");
  }

  // sim: the untraced engine on one thread, then the traced replay.
  SweepRequest sweep = decode_sweep(sweep_req, graphs);
  const Graph& g = sweep.entry->graph;
  auto t0 = Clock::now();
  const SweepReport engine = engine_report(sweep, 1);
  const double engine_s = since(t0);

  Layers L;
  t0 = Clock::now();
  const auto replay = traced_replay(g, *sweep.entry->pattern, *sweep.source, sweep.stretch, L);
  const double replay_s = since(t0);
  std::vector<double> encode;
  std::vector<double> parse;
  std::string bytes;
  for (int i = 0; i < 3; ++i) {
    t0 = Clock::now();
    bytes = to_json(engine);
    encode.push_back(since(t0));
    t0 = Clock::now();
    const auto back = report_from_json(bytes);
    parse.push_back(since(t0));
    if (!back.has_value() || to_json(*back) != bytes) failures.push_back("json_round_trip");
  }
  if (!replay.has_value() || to_json(*replay) != bytes) failures.push_back("replay_stats");

  double oracle_s = 0.0;
#if PERFBENCH_HAVE_ORACLE
  if (oracle_pass(g, *sweep.source, oracle_s) != engine.totals.promise_held()) {
    failures.push_back("oracle_promise");
  }
#endif

  const auto [cold_s, warm_s] = cold_warm_route(g, *sweep.entry->pattern, *sweep.source, 200);

  // orchestrate: a two-shard supervised run, merged, against the engine.
  const JsonValue& procs = *plan.find("procs");
  std::vector<std::string> procs_argv;
  for (const JsonValue& a : procs.find("argv")->items) procs_argv.push_back(a.text);
  const ProcsTrace pt = trace_procs(cli, procs_argv, work_dir);
  SweepRequest procs_sweep = decode_sweep(*procs.find("request"), graphs);
  if (!pt.error.empty() ||
      pt.merged != to_json(engine_report(procs_sweep, 0))) {
    failures.push_back("procs_merge" + (pt.error.empty() ? "" : ": " + pt.error));
  }

  // search: the min-defeat queries of the plan.
  std::vector<double> search_s;
  int64_t nodes = 0;
  int64_t leaves = 0;
  for (const JsonValue& req : plan.find("min_defeat")->items) {
    t0 = Clock::now();
    const MinDefeatResult r = min_defeat_for(req, graphs);
    search_s.push_back(since(t0));
    nodes += r.telemetry.nodes_expanded;
    leaves += r.telemetry.leaves_verified;
    if (r.telemetry.strategy != "branch-and-bound") failures.push_back("search_strategy");
  }

  // serve: handle_request in process, no sockets.
  SweepServer server;
  std::string error;
  for (const JsonValue& name : plan.find("serve_graphs")->items) {
    if (!server.register_graphml(graphs.get(name.text).path, error)) failures.push_back(error);
  }
  std::map<std::string, std::vector<double>> handle;
  int64_t response_bytes = 0;
  for (const JsonValue& item : plan.find("serve")->items) {
    const std::string line = string_field(item, "line");
    t0 = Clock::now();
    const std::string response = server.handle_request(line);
    handle[string_field(item, "kind")].push_back(since(t0));
    response_bytes += static_cast<int64_t>(response.size());
    if (response.rfind("{\"ok\":true", 0) != 0) failures.push_back("serve_response");
  }
  const ResultCache::Stats cache = server.cache_stats();

  JsonWriter w;
  w.begin_object();
  w.key("metrics").begin_object();
  w.key("graph.load_s").value(median(loads));
  w.key("graph.promise_bfs_s").value(L.promise_bfs_s);
  w.key("graph.oracle_s").value(oracle_s);
  w.key("graph.promise_uf_s").value(L.promise_uf_s);
  w.key("graph.distance_s").value(L.distance_s);
  w.key("graph.distance_calls").value(L.distance_calls);
  w.key("sim.produce_s").value(L.produce_s);
  w.key("sim.scenarios").value(L.scenarios);
  w.key("sim.aggregate_s").value(L.aggregate_s);
  w.key("sim.json_encode_s").value(median(encode));
  w.key("sim.json_parse_s").value(median(parse));
  w.key("sim.report_bytes").value(static_cast<int64_t>(bytes.size()));
  w.key("sim.engine_s").value(engine_s);
  w.key("routing.route_s").value(L.route_s);
  w.key("routing.packets").value(L.packets);
  w.key("routing.hops").value(L.hops);
  w.key("routing.cold_route_s").value(cold_s);
  w.key("routing.warm_route_s").value(warm_s);
  w.key("orchestrate.supervise_s").value(pt.supervise_s);
  w.key("orchestrate.merge_s").value(pt.merge_s);
  w.key("orchestrate.retries").value(pt.retries);
  w.key("search.min_defeat_s").value(median(search_s));
  w.key("search.nodes_expanded").value(nodes);
  w.key("search.leaves_verified").value(leaves);
  w.key("serve.handle_miss_s").value(median(handle["miss"]));
  w.key("serve.handle_hit_s").value(median(handle["hit"]));
  w.key("serve.handle_min_defeat_s").value(median(handle["min_defeat"]));
  w.key("serve.cache_hit_ratio")
      .value(cache.hits + cache.misses > 0
                 ? static_cast<double>(cache.hits) / static_cast<double>(cache.hits + cache.misses)
                 : 0.0);
  w.key("serve.response_bytes").value(response_bytes);
  w.key("trace.coverage").value(engine_s > 0.0 ? L.self_total() / engine_s : 0.0);
  w.key("trace.overhead").value(engine_s > 0.0 ? replay_s / engine_s - 1.0 : 0.0);
  w.end_object();
  w.key("oracle_measured").value(PERFBENCH_HAVE_ORACLE != 0);
  w.key("failures").begin_array();
  for (const std::string& f : failures) w.value(f);
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_tool run <timeout-s> <program> [args...]\n"
               "       perfbench_tool env\n"
               "       perfbench_tool expect <graph-dir> <requests.jsonl> [<limit-s>] [--digest]\n"
               "       perfbench_tool load <port> <connections> <requests.txt>\n"
               "       perfbench_tool trace <graph-dir> <plan.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "run" && argc >= 4) return cmd_run(std::stod(argv[2]), argv + 3);
    if (cmd == "env" && argc == 2) return cmd_env();
    if (cmd == "expect" && argc >= 4 && argc <= 6) {
      const bool digests = std::string(argv[argc - 1]) == "--digest";
      const int rest = argc - (digests ? 1 : 0);
      if (rest <= 5) {
        return cmd_expect(argv[2], argv[3], rest == 5 ? std::stod(argv[4]) : 0.0, digests);
      }
    }
    if (cmd == "load" && argc == 5) {
      ignore_sigpipe();
      return cmd_load(std::stoi(argv[2]), std::stoi(argv[3]), argv[4]);
    }
    if (cmd == "trace" && argc == 4) return cmd_trace(argv[2], argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
