// Self-tests of the benchmark's oracle and estimator:
//
//   python3 perfbench/run.py --selftest
//
// Every oracle check must accept the library's answer and reject a
// deliberately corrupted one; best-of-passes must return the minimum of
// known inputs; and single-threaded page-read counts must repeat exactly
// across passes and agree between the core and executor rungs.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "data.h"
#include "estimator.h"
#include "exec/query_executor.h"
#include "exec/thread_pool.h"
#include "oracle.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void Accepts(const std::string& err, const std::string& what) {
  Expect(err.empty(), what + " accepted" + (err.empty() ? "" : ": " + err));
}

void Rejects(const std::string& err, const std::string& what) {
  Expect(!err.empty(), what + " rejected" + (err.empty() ? "" : ": " + err));
}

void TestEstimator() {
  pb::BestOfPasses best(3);
  const double passes[3][3] = {{5, 2, 9}, {4, 3, 9}, {6, 1, 8}};
  for (const auto& pass : passes) {
    for (size_t op = 0; op < 3; ++op) best.Record(op, pass[op]);
  }
  Expect(best.Best(0) == 4 && best.Best(1) == 1 && best.Best(2) == 8,
         "best-of-passes keeps each operation's minimum");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(102 - i);
  Expect(pb::Quantile(v, 0.5) == 51 && pb::Quantile(v, 0.99) == 100 &&
             pb::Quantile(v, 0.0) == 1,
         "quantiles of 1..101");
}

pb::Points UnitFourier(size_t n, uint64_t seed) {
  pb::Points p = pb::GenFourier(n, 16, seed);
  pb::Normalizer(p).Apply(&p);
  return p;
}

void TestOracle() {
  const pb::Points pts = UnitFourier(5000, 7);
  const size_t n = 4000;
  ht::MemPagedFile file;
  ht::HybridTreeOptions opts;
  opts.dim = 16;
  auto tree =
      ht::BulkLoad(opts, &file, pb::ToDataset(pb::Slice(pts, 0, n))).ValueOrDie();
  pb::LiveSet live(16);
  for (size_t i = 0; i < n; ++i) live.Insert(i, pts.Row(i));
  const ht::L2Metric l2;
  const auto q = pts.Row(n);

  pb::Neighbors nn = tree->SearchKnn(q, 10, l2).ValueOrDie();
  Accepts(pb::CheckKnn(live, q, 10, nn), "knn");
  pb::Neighbors bad = nn;
  bad.pop_back();
  Rejects(pb::CheckKnn(live, q, 10, bad), "knn with a dropped neighbour");
  bad = tree->SearchKnn(q, 11, l2).ValueOrDie();
  bad.erase(bad.begin() + 4);
  Rejects(pb::CheckKnn(live, q, 10, bad), "knn missing a closer neighbour");
  bad = nn;
  std::swap(bad[2], bad[3]);
  if (bad[2].first == bad[3].first) std::swap(bad[0], bad[9]);
  Rejects(pb::CheckKnn(live, q, 10, bad), "knn with swapped neighbours");
  bad = nn;
  bad[5].first += 10 * pb::kDistTol;
  Rejects(pb::CheckKnn(live, q, 10, bad), "knn distance off by 10x tolerance");
  bad = nn;
  bad[5].second = bad[5].second == 0 ? 1 : 0;
  Rejects(pb::CheckKnn(live, q, 10, bad), "knn with a wrong id");

  // Two points at the same distance straddling the k-th place: either may
  // be returned.
  pb::LiveSet tie(2);
  const float a[2] = {0.5f, 0.75f}, b[2] = {0.5f, 0.25f}, c[2] = {0.9f, 0.9f};
  const float center[2] = {0.5f, 0.5f};
  tie.Insert(0, a);
  tie.Insert(1, b);
  tie.Insert(2, c);
  const double d = pb::L2(center, a);
  Accepts(pb::CheckKnn(tie, center, 1, {{d, 0}}), "knn tie at the boundary (0)");
  Accepts(pb::CheckKnn(tie, center, 1, {{d, 1}}), "knn tie at the boundary (1)");

  const double radius = nn.back().first * 1.5;
  std::vector<uint64_t> ids = tree->SearchRange(q, radius, l2).ValueOrDie();
  Accepts(pb::CheckRange(live, q, radius, ids), "range");
  std::vector<uint64_t> bad_ids = ids;
  bad_ids.pop_back();
  Rejects(pb::CheckRange(live, q, radius, bad_ids), "range with a dropped id");
  bad_ids = ids;
  bad_ids.push_back(nn.back().second == 0 ? 1 : 0);
  Rejects(pb::CheckRange(live, q, radius, bad_ids), "range with an extra id");

  std::vector<float> lo(16), hi(16);
  for (size_t i = 0; i < 16; ++i) {
    lo[i] = std::max(0.0f, q[i] - 0.15f);
    hi[i] = std::min(1.0f, q[i] + 0.15f);
  }
  ids = tree->SearchBox(ht::Box::FromBounds(lo, hi)).ValueOrDie();
  Expect(!ids.empty(), "box query finds points");
  Accepts(pb::CheckBox(live, lo, hi, ids), "box");
  bad_ids = ids;
  bad_ids.erase(bad_ids.begin());
  Rejects(pb::CheckBox(live, lo, hi, bad_ids), "box with a dropped id");
  bad_ids = ids;
  for (uint64_t id = 0; id < n; ++id) {
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      bad_ids.push_back(id);
      break;
    }
  }
  Rejects(pb::CheckBox(live, lo, hi, bad_ids), "box with an extra id");

  std::vector<std::pair<uint64_t, std::vector<float>>> scan;
  (void)tree->ScanAll([&](uint64_t id, std::span<const float> p) {
    scan.emplace_back(id, std::vector<float>(p.begin(), p.end()));
  });
  Accepts(pb::CheckContents(live, scan), "scan contents");
  auto bad_scan = scan;
  bad_scan.pop_back();
  Rejects(pb::CheckContents(live, bad_scan), "scan with a dropped entry");
  bad_scan = scan;
  bad_scan[3].second[0] += 0.25f;
  Rejects(pb::CheckContents(live, bad_scan), "scan with a moved point");
  live.Erase(scan[0].first);
  Rejects(pb::CheckContents(live, scan), "scan holding a deleted entry");
}

void TestCountsRepeat() {
  const pb::Points pts = UnitFourier(6000, 11);
  const size_t n = 5000;
  ht::MemPagedFile file;
  ht::HybridTreeOptions opts;
  opts.dim = 16;
  auto tree =
      ht::BulkLoad(opts, &file, pb::ToDataset(pb::Slice(pts, 0, n))).ValueOrDie();
  const ht::L2Metric l2;
  ht::Workload batch;
  batch.metric = &l2;
  for (size_t i = n; i < n + 200; ++i) {
    std::vector<float> c(pts.Row(i).begin(), pts.Row(i).end());
    batch.queries.push_back(i % 2 ? ht::Query::MakeKnn(c, 10)
                                  : ht::Query::MakeRange(c, 0.05));
  }
  uint64_t core_reads[2] = {};
  ht::SearchScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {
    const ht::IoStats before = tree->pool().StatsSnapshot();
    for (const ht::Query& q : batch.queries) {
      pb::Neighbors nn;
      std::vector<uint64_t> ids;
      const ht::Status s =
          q.type == ht::Query::Type::kKnn
              ? tree->SearchKnnInto(q.center, q.k, l2, &scratch, &nn)
              : tree->SearchRangeInto(q.center, q.radius, l2, &scratch, &ids);
      if (!s.ok()) ++failures;
    }
    core_reads[pass] =
        tree->pool().StatsSnapshot().Delta(before).logical_reads;
  }
  Expect(core_reads[0] > 0 && core_reads[0] == core_reads[1],
         "core page reads repeat across passes (" +
             std::to_string(core_reads[0]) + ")");
  ht::ThreadPool pool(1);
  ht::QueryExecutor exec(tree.get(), &pool);
  auto report = exec.Run(batch).ValueOrDie();
  Expect(report.failed == 0 && report.io.logical_reads == core_reads[0],
         "executor page reads equal the core rung's (" +
             std::to_string(report.io.logical_reads) + ")");
}

}  // namespace

int main() {
  TestEstimator();
  TestOracle();
  TestCountsRepeat();
  std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS", failures);
  return failures ? 1 : 0;
}
