// Compiled with NDEBUG forced (see CMakeLists.txt), regardless of the build
// type: proves the EdgeMask capacity gate is a real runtime check, not a
// debug assert. The old code guarded the 64-edge limit with assert() only,
// so Release builds silently shifted past the word width on big graphs.

#include <cassert>
#include <cstdio>

#include "attacks/pattern_corpus.hpp"
#include "graph/bitmask.hpp"
#include "graph/builders.hpp"
#include "search/min_defeat.hpp"
#include "sim/scenario.hpp"

#ifndef NDEBUG
#error "capacity_guard_ndebug must be compiled with NDEBUG"
#endif

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

template <typename Fn>
void expect_throws(const Fn& fn, const char* what) {
  try {
    fn();
    expect(false, what);
  } catch (const std::invalid_argument&) {
  }
}

}  // namespace

int main() {
  using namespace pofl;
  assert(false);  // compiled out: proves NDEBUG is actually in effect

  const Graph big = make_complete(33);  // 528 edges > EdgeMask::kMaxBits
  expect(big.num_edges() > EdgeMask::kMaxBits, "K33-complete exceeds the mask width");

  expect_throws([] { EdgeMask mask(EdgeMask::kMaxBits + 1); },
                "EdgeMask constructor must throw with NDEBUG");
  expect_throws([&] { ExhaustiveFailureSource(big, 1, all_ordered_pairs(big)); },
                "ExhaustiveFailureSource must throw with NDEBUG");
  expect_throws(
      [&] {
        const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, big);
        (void)min_defeat_search(big, *pattern, 0, 1, 1);
      },
      "min_defeat_search must throw with NDEBUG");
  expect_throws(
      [] { for_each_k_subset(EdgeMask::kMaxBits + 1, 1, [](const EdgeMask&) { return false; }); },
      "for_each_k_subset must throw with NDEBUG");

  // In-range universes still work: the gate rejects, it does not restrict.
  const Graph k12 = make_complete(12);  // 66 edges: past the old 64-edge wall
  int count = 0;
  for_each_k_subset(k12.num_edges(), 1, [&](const EdgeMask&) {
    ++count;
    return false;
  });
  expect(count == k12.num_edges(), "66-edge enumeration runs under NDEBUG");

  if (failures == 0) std::printf("capacity guard OK (NDEBUG)\n");
  return failures == 0 ? 0 : 1;
}
