#pragma once

// Content-addressed result cache for the pofl_serve daemon.
//
// Every query the daemon answers is a pure function of (graph content,
// pattern spec, source spec, shard spec): the sweeps are deterministic by
// construction — portable RNG draws, exact integer/fixed-point counters —
// and the golden-baseline suite pins their bytes. So the finished
// serialization itself is cacheable under a key derived from those four
// coordinates, with the graph addressed by a structural hash of its
// content rather than by name: two registered graphs with identical
// vertex/edge structure share cache entries, and a graph edited on disk
// and re-registered misses instead of serving stale bytes.
//
// Bounded LRU: lookups refresh recency, inserts past capacity evict the
// coldest entry. Hit/miss/eviction counters feed the daemon's `stats`
// endpoint. All operations take one mutex. Entries are whole serialized
// reports held as shared immutable bytes: a lookup hands out a reference
// (the critical sections are list splices and a reference-count bump,
// never a copy of a report), and an entry evicted while a response still
// reads it lives until that response is written.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "graph/graph.hpp"

namespace pofl {

/// FNV-1a over the graph's defining content (vertex count, edge count, and
/// every edge's endpoints in id order) rendered as a 16-hex-digit string:
/// the graph coordinate of a cache key.
[[nodiscard]] std::string graph_content_hash(const Graph& g);

class ResultCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t insertions = 0;
    int entries = 0;
    int capacity = 0;
  };

  /// `capacity` <= 0 disables caching entirely (every lookup misses,
  /// inserts are dropped).
  explicit ResultCache(int capacity) : capacity_(capacity) {}

  using Bytes = std::shared_ptr<const std::string>;

  /// The cached serialization for `key`, refreshing its recency; null on
  /// miss. Counts one hit or one miss either way.
  [[nodiscard]] Bytes lookup(const std::string& key);

  /// Caches `bytes` under `key`, evicting least-recently-used entries past
  /// capacity. Re-inserting an existing key refreshes value and recency
  /// without an eviction tick.
  void insert(const std::string& key, Bytes bytes);

  [[nodiscard]] Stats stats() const;

 private:
  using Entry = std::pair<std::string, Bytes>;  // key -> serialized bytes

  int capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t insertions_ = 0;
};

}  // namespace pofl
