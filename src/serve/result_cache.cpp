#include "serve/result_cache.hpp"

#include <cstdio>

namespace pofl {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(uint64_t& h, uint64_t v) {
  // Byte-serialize the value so the hash is width- and endianness-stable.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

}  // namespace

std::string graph_content_hash(const Graph& g) {
  uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<uint64_t>(g.num_vertices()));
  fnv_mix(h, static_cast<uint64_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    fnv_mix(h, static_cast<uint64_t>(g.edge(e).u));
    fnv_mix(h, static_cast<uint64_t>(g.edge(e).v));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

ResultCache::Bytes ResultCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

void ResultCache::insert(const std::string& key, Bytes bytes) {
  if (capacity_ <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->second = std::move(bytes);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(bytes));
  index_[key] = lru_.begin();
  ++insertions_;
  while (static_cast<int>(lru_.size()) > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.insertions = insertions_;
  s.entries = static_cast<int>(lru_.size());
  s.capacity = capacity_;
  return s;
}

}  // namespace pofl
