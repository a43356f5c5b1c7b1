// Zero-allocation guarantee for the steady-state query hot path.
//
// Replaces global operator new/delete with counting versions, warms the
// tree's caches and a caller-owned SearchScratch with one pass of queries,
// then asserts that re-running the same queries through the *Into APIs
// performs zero heap allocations: all traversal state lives in the scratch
// and the caller's output vectors, the buffer pool is warm, the node cache
// hits, and Status OK / batch kernels never allocate.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "geometry/metrics.h"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched
// pair under some inlining decisions (notably -fsanitize=undefined); the
// replacement new allocates with malloc, so the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ht {
namespace {

TEST(SearchAllocTest, SteadyStateQueriesDoNotAllocate) {
  const uint32_t dim = 16;
  Rng rng(808);
  Dataset data = GenFourier(5000, dim, rng);

  HybridTreeOptions o;
  o.dim = dim;
  o.page_size = 1024;  // small pages: a tree of several index levels
  MemPagedFile file(o.page_size);
  auto tree = HybridTree::Create(o, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data.Row(i), i).ok());
  }

  // Fixed query set, reused verbatim in the measured pass so the warmed
  // buffer capacities provably suffice.
  constexpr int kQueries = 8;
  std::vector<std::vector<float>> centers(kQueries);
  std::vector<Box> boxes;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<float> lo(dim), hi(dim);
    centers[q].resize(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      centers[q][d] = static_cast<float>(rng.NextDouble());
      lo[d] = centers[q][d] - 0.15f;
      hi[d] = centers[q][d] + 0.15f;
    }
    boxes.push_back(Box::FromBounds(lo, hi));
  }

  L2Metric l2;
  SearchScratch scratch;
  std::vector<uint64_t> ids;
  std::vector<std::pair<double, uint64_t>> neighbors;

  auto run_all = [&]() {
    for (int q = 0; q < kQueries; ++q) {
      ASSERT_TRUE(tree->SearchBoxInto(boxes[q], &scratch, &ids).ok());
      ASSERT_TRUE(
          tree->SearchRangeInto(centers[q], 0.8, l2, &scratch, &ids).ok());
      ASSERT_TRUE(
          tree->SearchKnnInto(centers[q], 20, l2, &scratch, &neighbors).ok());
      ASSERT_FALSE(neighbors.empty());
      ASSERT_TRUE(tree->SearchKnnApproxInto(centers[q], 20, l2, 0.5, &scratch,
                                            &neighbors)
                      .ok());
      ASSERT_FALSE(neighbors.empty());
    }
  };

  // Warm-up: populates the buffer pool, the parsed-node cache, the
  // scratch buffers and the output vectors.
  run_all();
  run_all();

  const size_t before = g_allocations.load(std::memory_order_relaxed);
  run_all();
  const size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in the steady-state loop";

  // A cursor owns its buffers, so opening one allocates and its first
  // pull grows them (root expansion, first page scan, and with it the self
  // bound). The rest of the drain — further index-node expansions with
  // their batched MINDIST, and bound-filtered page scans — reuses them.
  KnnCursorOptions copts;
  copts.limit = 20;
  size_t drain_allocs = 0;
  uint64_t drain_leaf_visits = 0;
  for (int q = 0; q < kQueries; ++q) {
    auto cursor = tree->OpenKnnCursor(centers[q], l2, copts);
    ASSERT_TRUE(cursor.Next().ValueOrDie().has_value());
    const uint64_t warm_visits = cursor.leaf_visits();
    const size_t start = g_allocations.load(std::memory_order_relaxed);
    while (true) {
      auto next = cursor.Next();
      ASSERT_TRUE(next.ok());
      if (!next.ValueOrDie().has_value()) break;
    }
    drain_allocs += g_allocations.load(std::memory_order_relaxed) - start;
    drain_leaf_visits += cursor.leaf_visits() - warm_visits;
  }
  EXPECT_GT(drain_leaf_visits, 0u) << "the measured drains scanned nothing";
  EXPECT_EQ(drain_allocs, 0u)
      << drain_allocs << " heap allocations in steady-state cursor drains";
}

}  // namespace
}  // namespace ht
