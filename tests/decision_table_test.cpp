// The shared decision table: exact lookups, inline growth for a single
// holder, and growth deferred to the last worker to leave when several
// workers fill one table at once. The concurrent cases are what the
// ThreadSanitizer CI job runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "routing/decision_table.hpp"

namespace pofl {
namespace {

/// A key the routing core could build: a class id below 2^31 in the high
/// half, a state id in the low half, and a port mask.
uint64_t key_cs(uint64_t i) { return ((i % 97) << 32) | (i / 97); }
uint64_t key_mask(uint64_t i) { return i * 0x5851f42d4c957f2dull >> 3; }
int64_t value(uint64_t i) { return static_cast<int64_t>(i % 1000003); }

TEST(DecisionTable, StandaloneTableGrowsInlineAndFindsEveryKey) {
  DecisionTable table;
  table.bind(1, 1);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.lookup(key_cs(0), key_mask(0)), DecisionTable::kMiss);
  constexpr uint64_t kKeys = 20000;
  for (uint64_t i = 0; i < kKeys; ++i) table.insert(key_cs(i), key_mask(i), value(i));
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(table.lookup(key_cs(i), key_mask(i)), value(i)) << "key " << i;
  }
  EXPECT_EQ(table.entries(), kKeys);
  EXPECT_EQ(table.dropped(), 0);
  EXPECT_LE(table.entries() * 2, table.capacity());  // every growth ran inline

  // A repeated insert is a no-op; a mask that differs is a different key.
  table.insert(key_cs(5), key_mask(5), value(5));
  EXPECT_EQ(table.entries(), kKeys);
  EXPECT_EQ(table.lookup(key_cs(5), key_mask(5) ^ 1), DecisionTable::kMiss);

  // The same identity keeps the entries; a new one flushes them.
  table.bind(1, 1);
  EXPECT_EQ(table.entries(), kKeys);
  table.bind(1, 2);
  EXPECT_EQ(table.entries(), 0u);
  EXPECT_EQ(table.lookup(key_cs(5), key_mask(5)), DecisionTable::kMiss);
}

TEST(DecisionTable, OneEnteredWorkerGrowsInline) {
  DecisionTable table(DecisionTable::kInitialSlots);
  table.bind(1, 1);
  const DecisionTable::Batch in_table(table);
  for (uint64_t i = 0; i < 5000; ++i) table.insert(key_cs(i), key_mask(i), value(i));
  EXPECT_EQ(table.entries(), 5000u);
  EXPECT_EQ(table.dropped(), 0);
}

TEST(DecisionTable, FourWorkersFillOneTableUnderContention) {
  // Four workers insert overlapping key ranges in batches bracketed by
  // enter()/leave(), re-inserting whatever a refused insert left out, and
  // check every lookup of a published key. Growth past the first
  // allocation can only run between batches, by the last worker to leave.
  constexpr int kWorkers = 4;
  constexpr uint64_t kKeys = 60000;
  constexpr uint64_t kBatch = 256;
  DecisionTable table(DecisionTable::kInitialSlots);
  table.bind(1, 1);
  std::atomic<int> wrong{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      // Each worker walks every key in the same order, one key apart, so all
      // four race on the same keys and the same slots at the same time.
      const uint64_t offset = static_cast<uint64_t>(w);
      for (uint64_t done = 0; done < kKeys;) {
        const DecisionTable::Batch in_table(table);
        for (const uint64_t end = done + kBatch; done < end && done < kKeys; ++done) {
          const uint64_t i = (offset + done) % kKeys;
          const int64_t got = table.lookup(key_cs(i), key_mask(i));
          if (got == DecisionTable::kMiss) {
            table.insert(key_cs(i), key_mask(i), value(i));
          } else if (got != value(i)) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  // Inserts refused while a growth was pending left gaps; one more pass
  // by a single holder fills them, and then every key is present once.
  for (uint64_t i = 0; i < kKeys; ++i) {
    if (table.lookup(key_cs(i), key_mask(i)) == DecisionTable::kMiss) {
      table.insert(key_cs(i), key_mask(i), value(i));
    }
  }
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(table.lookup(key_cs(i), key_mask(i)), value(i)) << "key " << i;
  }
  EXPECT_EQ(table.entries(), kKeys);
  EXPECT_GT(table.capacity(), 16 * DecisionTable::kInitialSlots);
}

}  // namespace
}  // namespace pofl
