// Micro-benchmark for the paper's §3.1 claim that kd-tree-based intra-node
// search beats scanning an "array of BRs": searching a balanced kd-tree
// costs O(log n) comparisons and each boundary is checked once, while the
// array representation checks every child's box (boundaries tested
// redundantly).
//
// The claim is about box queries, whose lsp/rsp tests prune kd subtrees.
// A distance query (k-NN expansion, range) prunes nothing at internal kd
// nodes: it needs MINDIST to every leaf's live box. The MinDist pair
// measures that case on the same node: the kd walk with one
// MinDistToBox per leaf against one batched MINDIST call over the node's
// flat leaf table (the tree's distance-query path), per SIMD tier.

#include <benchmark/benchmark.h>

#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/node.h"
#include "data/workload.h"
#include "geometry/kernels/kernels.h"
#include "geometry/metrics.h"

namespace ht {
namespace {

/// Balanced kd-tree over 2^depth children, splitting the unit cube on
/// round-robin dimensions.
std::unique_ptr<KdNode> BuildBalanced(uint32_t dim, int depth, const Box& br,
                                      uint32_t d, PageId* next_child) {
  if (depth == 0) {
    return KdNode::MakeLeaf((*next_child)++);
  }
  const float mid = br.lo(d) + (br.hi(d) - br.lo(d)) / 2;
  Box left = br;
  left.set_hi(d, mid);
  Box right = br;
  right.set_lo(d, mid);
  const uint32_t nd = (d + 1) % dim;
  return KdNode::MakeInternal(
      d, mid, mid, BuildBalanced(dim, depth - 1, left, nd, next_child),
      BuildBalanced(dim, depth - 1, right, nd, next_child));
}

struct Fixture {
  IndexNode node;
  std::vector<Box> child_brs;  // the "array of BRs" representation
  std::vector<Box> queries;
  uint32_t dim;

  Fixture(uint32_t dim_in, int depth) : dim(dim_in) {
    PageId next = 1;
    node.level = 1;
    node.root = BuildBalanced(dim, depth, Box::UnitCube(dim), 0, &next);
    std::vector<ChildRef> kids;
    node.CollectChildren(Box::UnitCube(dim), &kids);
    for (const auto& kid : kids) child_brs.push_back(kid.kd_br);
    Rng rng(8000 + dim + depth);
    for (int q = 0; q < 64; ++q) {
      std::vector<float> c(dim);
      for (auto& v : c) v = static_cast<float>(rng.NextDouble());
      queries.push_back(MakeBoxQuery(c, 0.15));
    }
  }
};

size_t KdSearch(const KdNode* n, const Box& q) {
  if (n->IsLeaf()) return 1;
  size_t hits = 0;
  if (q.lo(n->split_dim) <= n->lsp) hits += KdSearch(n->left.get(), q);
  if (q.hi(n->split_dim) >= n->rsp) hits += KdSearch(n->right.get(), q);
  return hits;
}

void BM_IntranodeKdTree(benchmark::State& state) {
  Fixture f(static_cast<uint32_t>(state.range(0)),
            static_cast<int>(state.range(1)));
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KdSearch(f.node.root.get(), f.queries[qi++ % f.queries.size()]));
  }
  state.SetLabel(std::to_string(f.child_brs.size()) + " children");
}

void BM_IntranodeArrayScan(benchmark::State& state) {
  Fixture f(static_cast<uint32_t>(state.range(0)),
            static_cast<int>(state.range(1)));
  size_t qi = 0;
  for (auto _ : state) {
    const Box& q = f.queries[qi++ % f.queries.size()];
    size_t hits = 0;
    for (const Box& br : f.child_brs) {
      if (q.Intersects(br)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetLabel(std::to_string(f.child_brs.size()) + " children");
}

/// The Fixture's node with its leaf table built (live box = kd region),
/// the per-leaf boxes a kd walk reads, and query points.
struct DistanceFixture {
  Fixture f;
  std::vector<Box> leaf_boxes;  // by table row
  std::vector<std::vector<float>> centers;

  DistanceFixture(uint32_t dim, int depth) : f(dim, depth) {
    f.node.BuildLeafTable(Box::UnitCube(dim),
                          [this](const KdNode&, const Box& kd_br) {
                            leaf_boxes.push_back(kd_br);
                            return kd_br;
                          });
    Rng rng(9000 + dim + depth);
    for (int q = 0; q < 64; ++q) {
      std::vector<float> c(dim);
      for (auto& v : c) v = static_cast<float>(rng.NextDouble());
      centers.push_back(std::move(c));
    }
  }
};

/// Kd walk (both children of every internal node, left first) with one
/// virtual MinDistToBox per leaf — the pre-table distance-query path.
void BM_IntranodeKdMinDist(benchmark::State& state) {
  DistanceFixture df(static_cast<uint32_t>(state.range(0)),
                     static_cast<int>(state.range(1)));
  const L2Metric l2;
  const DistanceMetric& metric = l2;
  std::vector<const KdNode*> stack;
  size_t qi = 0;
  for (auto _ : state) {
    const auto& c = df.centers[qi++ % df.centers.size()];
    double sum = 0.0;
    stack.clear();
    stack.push_back(df.f.node.root.get());
    while (!stack.empty()) {
      const KdNode* n = stack.back();
      stack.pop_back();
      if (n->IsLeaf()) {
        sum += metric.MinDistToBox(c, df.leaf_boxes[n->row]);
        continue;
      }
      stack.push_back(n->right.get());
      stack.push_back(n->left.get());
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(std::to_string(df.leaf_boxes.size()) + " children");
}

/// One batched MINDIST call over the flat leaf table, then a row loop;
/// range(2) is the SIMD tier (0 scalar, 1 AVX2, 2 AVX-512).
void BM_IntranodeTableMinDist(benchmark::State& state) {
  const auto tier = static_cast<kernels::SimdTier>(state.range(2));
  if (!kernels::TierSupported(tier)) {
    state.SkipWithError("SIMD tier not supported on this host");
    return;
  }
  kernels::ForceTier(tier);
  DistanceFixture df(static_cast<uint32_t>(state.range(0)),
                     static_cast<int>(state.range(1)));
  const L2Metric l2;
  const DistanceMetric& metric = l2;
  const LeafTable& t = df.f.node.leaves;
  std::vector<double> out(t.size());
  Box scratch;
  size_t qi = 0;
  for (auto _ : state) {
    const auto& c = df.centers[qi++ % df.centers.size()];
    metric.BatchMinDistToBoxes(c, t.lo.data(), t.hi.data(), t.size(),
                               &scratch, out.data());
    double sum = 0.0;
    for (size_t i = 0; i < t.size(); ++i) sum += out[i];
    benchmark::DoNotOptimize(sum);
  }
  kernels::ClearForcedTier();
  state.SetLabel(std::to_string(t.size()) + " children, " +
                 kernels::TierName(tier));
}

// Args: {dimensionality, kd depth} -> 2^depth children.
BENCHMARK(BM_IntranodeKdTree)
    ->Args({16, 5})
    ->Args({16, 7})
    ->Args({64, 5})
    ->Args({64, 7});
BENCHMARK(BM_IntranodeArrayScan)
    ->Args({16, 5})
    ->Args({16, 7})
    ->Args({64, 5})
    ->Args({64, 7});
BENCHMARK(BM_IntranodeKdMinDist)
    ->Args({16, 5})
    ->Args({16, 7})
    ->Args({64, 5})
    ->Args({64, 7});
// Args: {dimensionality, kd depth, SIMD tier}.
BENCHMARK(BM_IntranodeTableMinDist)
    ->ArgsProduct({{16, 64}, {5, 7}, {0, 1, 2}});

}  // namespace
}  // namespace ht

BENCHMARK_MAIN();
