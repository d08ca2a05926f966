#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <list>
#include <memory>
#include <system_error>
#include <thread>
#include <utility>

#include "graph/bitmask.hpp"
#include "graph/graphml.hpp"
#include "orchestrate/posix_io.hpp"
#include "search/min_defeat.hpp"
#include "sim/sweep_json.hpp"
#include "sim/sweep_spec.hpp"

namespace pofl {

namespace {

SweepOptions stretch_opts() {
  SweepOptions o;
  o.compute_stretch = true;
  return o;
}

std::string error_response(const std::string& message) {
  JsonWriter w;
  w.begin_object();
  w.key("ok");
  w.value(false);
  w.key("error");
  w.value(message);
  w.end_object();
  return w.take();
}

/// {"ok":true,"cached":b,"key":k,"<body_key>":<body>} — the body is spliced
/// in verbatim (it is already the exact serialization the cache stores, and
/// the bytes `submit --json` must reproduce). The one copy of the body a
/// response makes, into a buffer sized for the closing brace and the
/// newline serve_connection appends.
std::string envelope(bool cached, const std::string& key, const char* body_key,
                     const std::string& body) {
  std::string head = "{\"ok\":true,\"cached\":";
  head += cached ? "true" : "false";
  head += ",\"key\":\"" + json_escape(key) + "\",\"" + body_key + "\":";
  std::string out;
  out.reserve(head.size() + body.size() + 2);
  out += head;
  out += body;
  out += '}';
  return out;
}

bool read_string_field(const JsonValue& obj, const std::string& key, std::string& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) return false;
  out = v->text;
  return true;
}

}  // namespace

SweepServer::SweepServer(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_capacity),
      stretch_engine_(stretch_opts()),
      plain_engine_(SweepOptions{}) {}

SweepServer::~SweepServer() {
  if (listen_fd_ >= 0) close(listen_fd_);
}

bool SweepServer::register_graph(const std::string& name, Graph g, std::string& error) {
  if (find_graph(name) != nullptr) {
    error = "graph '" + name + "' is already registered";
    return false;
  }
  auto entry = std::make_unique<GraphEntry>();
  entry->name = name;
  entry->graph = std::move(g);
  entry->hash = graph_content_hash(entry->graph);
  entry->pattern_sd =
      make_shortest_path_pattern(RoutingModel::kSourceDestination, entry->graph);
  entry->pattern_dest = make_shortest_path_pattern(RoutingModel::kDestinationOnly, entry->graph);
  graphs_.push_back(std::move(entry));
  return true;
}

bool SweepServer::register_graphml(const std::string& path, std::string& error) {
  auto net = load_graphml(path);
  if (!net.has_value()) {
    error = "cannot parse " + path;
    return false;
  }
  return register_graph(net->name, std::move(net->graph), error);
}

const SweepServer::GraphEntry* SweepServer::find_graph(const std::string& name) const {
  for (const auto& entry : graphs_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

std::string SweepServer::handle_request(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  JsonValue req;
  size_t stop_offset = 0;
  if (!parse_json(line, req, &stop_offset)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response("request is not valid JSON (stuck at byte offset " +
                          std::to_string(stop_offset) + ")");
  }
  std::string cmd;
  if (req.kind != JsonValue::Kind::kObject || !read_string_field(req, "cmd", cmd)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response("request must be an object with a string \"cmd\"");
  }

  if (cmd == "ping") {
    return "{\"ok\":true,\"pong\":true}";
  }

  if (cmd == "shutdown") {
    stop();
    return "{\"ok\":true,\"stopping\":true}";
  }

  if (cmd == "stats") {
    const ResultCache::Stats s = cache_.stats();
    JsonWriter w;
    w.begin_object();
    w.key("ok");
    w.value(true);
    w.key("cache");
    w.begin_object();
    w.key("hits");
    w.value(s.hits);
    w.key("misses");
    w.value(s.misses);
    w.key("evictions");
    w.value(s.evictions);
    w.key("insertions");
    w.value(s.insertions);
    w.key("entries");
    w.value(s.entries);
    w.key("capacity");
    w.value(s.capacity);
    w.end_object();
    w.key("graphs");
    w.value(static_cast<int64_t>(graphs_.size()));
    w.key("requests");
    w.value(requests_.load(std::memory_order_relaxed));
    w.key("errors");
    w.value(errors_.load(std::memory_order_relaxed));
    w.end_object();
    return w.take();
  }

  if (cmd == "graphs") {
    JsonWriter w;
    w.begin_object();
    w.key("ok");
    w.value(true);
    w.key("graphs");
    w.begin_array();
    for (const auto& entry : graphs_) {
      w.begin_object();
      w.key("name");
      w.value(entry->name);
      w.key("vertices");
      w.value(entry->graph.num_vertices());
      w.key("edges");
      w.value(entry->graph.num_edges());
      w.key("hash");
      w.value(entry->hash);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
  }

  const auto fail = [this](const std::string& message) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(message);
  };

  if (cmd != "sweep" && cmd != "witness" && cmd != "min-defeat") {
    return fail("unknown cmd '" + cmd + "'");
  }

  std::string graph_name;
  if (!read_string_field(req, "graph", graph_name)) {
    return fail("need a string \"graph\" naming a registered graph");
  }
  const GraphEntry* entry = find_graph(graph_name);
  if (entry == nullptr) {
    return fail("graph '" + graph_name + "' is not registered (see cmd \"graphs\")");
  }
  const Graph& g = entry->graph;

  if (cmd == "min-defeat") {
    for (const auto& [name, value] : req.fields) {
      if (name != "cmd" && name != "graph" && name != "pattern" && name != "source" &&
          name != "destination" && name != "budget") {
        return fail("\"" + name + "\" is not a key of min-defeat requests");
      }
    }
    std::string pattern_spec = "shortest-path";
    if (req.find("pattern") != nullptr && !read_string_field(req, "pattern", pattern_spec)) {
      return fail("\"pattern\" must be a string");
    }
    int64_t s = -1;
    int64_t t = -1;
    if (!json_read_int(req, "source", s) || !json_read_int(req, "destination", t) || s < 0 ||
        t < 0 || s >= g.num_vertices() || t >= g.num_vertices() || s == t) {
      return fail("need integer \"source\"/\"destination\" with 0 <= s,t < n and s != t");
    }
    int64_t budget = g.num_edges();
    if (req.find("budget") != nullptr &&
        (!json_read_int(req, "budget", budget) || budget < 0 || budget > EdgeMask::kMaxBits)) {
      return fail("\"budget\" must be an integer in [0, " + std::to_string(EdgeMask::kMaxBits) +
                  "]");
    }
    if (g.num_edges() > EdgeMask::kMaxBits) {
      return fail("graph has " + std::to_string(g.num_edges()) +
                  " links, above the exact-search limit of " +
                  std::to_string(EdgeMask::kMaxBits));
    }
    std::string canonical;
    const auto pattern = make_named_pattern(pattern_spec, g, &canonical);
    if (pattern == nullptr) {
      return fail("unknown pattern '" + pattern_spec + "' (want " + kPatternNames + ")");
    }

    const std::string key = "min-defeat|" + entry->hash + "|pattern=" + canonical +
                            "|s=" + std::to_string(s) + "|t=" + std::to_string(t) +
                            "|budget=" + std::to_string(budget);
    if (const auto cached = cache_.lookup(key)) return envelope(true, key, "result", *cached);
    const MinDefeatResult result =
        min_defeat_search(g, *pattern, static_cast<VertexId>(s), static_cast<VertexId>(t),
                          static_cast<int>(budget));
    JsonWriter w;
    append_json(w, result, g);
    const auto body = std::make_shared<const std::string>(w.take());
    cache_.insert(key, body);
    return envelope(false, key, "result", *body);
  }

  // sweep / witness share the spec decoding.
  const bool witness = cmd == "witness";
  SweepSpec spec;
  std::string spec_error;
  if (!decode_sweep_spec(req, g, witness, spec, spec_error)) return fail(spec_error);
  const ForwardingPattern& pattern = spec.model == RoutingModel::kSourceDestination
                                         ? *entry->pattern_sd
                                         : *entry->pattern_dest;

  // A witness depends on the scenario stream alone, not on stretch or shard.
  const std::string key = witness ? "witness|" + entry->hash + "|" + spec.scenario_key()
                                   : "sweep|" + entry->hash + "|" + spec.key();
  const char* body_key = witness ? "witness" : "report";
  if (const auto cached = cache_.lookup(key)) return envelope(true, key, body_key, *cached);
  const SweepSource stream = spec.make_source(g);
  std::string body;
  if (witness) {
    const auto finding = plain_engine_.find_first_violation(g, pattern, *stream.source);
    JsonWriter w;
    w.begin_object().key("found").value(finding.has_value());
    if (finding.has_value()) {
      const Scenario& at = finding->scenario;
      w.key("index").value(finding->index).key("source").value(at.source).key("destination");
      if (at.destination == kNoVertex) {
        w.null();
      } else {
        w.value(at.destination);
      }
      w.key("failures").begin_array();
      for (const int e : at.failures.to_vector()) w.value(e);
      w.end_array().key("outcome").value(to_string(finding->routing.outcome));
      w.key("hops").value(finding->routing.hops);
    }
    body = w.end_object().take();
  } else {
    const SweepEngine& engine = spec.stretch ? stretch_engine_ : plain_engine_;
    body = spec.serialize(engine.run_report(g, pattern, *stream.source));
  }
  const auto bytes = std::make_shared<const std::string>(std::move(body));
  cache_.insert(key, bytes);
  return envelope(false, key, body_key, *bytes);
}

// ---- socket layer ----------------------------------------------------------

bool SweepServer::start(std::string& error) {
  ignore_sigpipe();  // a client hanging up mid-response must not kill us
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    error = "invalid bind address '" + opts_.bind_address + "'";
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = std::string("bind: ") + std::strerror(errno);
    return false;
  }
  if (listen(listen_fd_, 64) != 0) {
    error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  bound_port_ = ntohs(bound.sin_port);
  return true;
}

void SweepServer::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool drop = false;
  while (!drop) {
    const ssize_t n = read_eintr(fd, chunk, sizeof(chunk));
    if (n <= 0) break;  // peer closed (or the server shut the socket down)
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline = 0;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string response = handle_request(line);
      response += '\n';
      if (!write_all(fd, response.data(), response.size())) {
        drop = true;
        break;
      }
      if (stop_requested()) {
        drop = true;  // shutdown: response is out, close the session
        break;
      }
    }
    if (buffer.size() > opts_.max_request_bytes) {
      // One request per line: a line this large is a broken client, and
      // buffering it further would let one connection exhaust the daemon.
      const std::string response = error_response("request line exceeds " +
                                                  std::to_string(opts_.max_request_bytes) +
                                                  " bytes") +
                                   "\n";
      write_all(fd, response.data(), response.size());
      drop = true;
    }
  }
  forget_connection(fd);
  close(fd);
}

void SweepServer::forget_connection(int fd) {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (size_t i = 0; i < conn_fds_.size(); ++i) {
    if (conn_fds_[i] == fd) {
      conn_fds_[i] = conn_fds_.back();
      conn_fds_.pop_back();
      return;
    }
  }
}

void SweepServer::run() {
  // One thread per connection. A finished handler is joined at the next
  // accept: an unjoined thread keeps its stack mapped, so a client that
  // connects and hangs up in a loop would otherwise exhaust the address
  // space and abort the daemon.
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Handler> handlers;
  const auto reap_finished = [&handlers] {
    for (auto it = handlers.begin(); it != handlers.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = handlers.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!stop_requested()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = poll(&pfd, 1, 200);  // short timeout: stop() polls the flag
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_fds_.push_back(fd);
    }
    reap_finished();
    Handler& handler = handlers.emplace_back();
    try {
      handler.thread = std::thread([this, fd, &handler] {
        serve_connection(fd);
        handler.done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error& e) {
      // No thread for this connection (out of memory or threads): answer
      // it here with an error line and keep accepting.
      handlers.pop_back();
      const std::string response =
          error_response(std::string("cannot start a connection handler: ") + e.what()) + "\n";
      write_all(fd, response.data(), response.size());
      forget_connection(fd);
      close(fd);
    }
  }
  // Stop accepting, then unblock every connection read so handlers drain.
  close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) shutdown(fd, SHUT_RDWR);
  }
  for (Handler& h : handlers) h.thread.join();
}

}  // namespace pofl
