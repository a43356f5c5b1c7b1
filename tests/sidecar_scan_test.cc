// Sidecar-first data-page scans: range, batch k-NN and cursor scans decide
// from a data page's in-memory 8-bit sidecar before they read the page.
//
//  * Determinism: sidecars are built eagerly (bulk load, Open, every data
//    page write), so the pages a query reads do not depend on the queries
//    that ran before it.
//  * Identity: answers are byte-identical with sidecars on or off, at the
//    best and the scalar SIMD tier, at prefetch depths 0 and 4, in a small
//    pool and an unbounded one — and the skip actually fires.
//  * Prefetch: a range query prefetches no page its sidecar rules out.
//  * Writes: Open + Flush of an unchanged tree writes only the meta page;
//    a delete that eliminates no node, and inserts that only grow
//    in-memory ELS codes, leave every index page clean.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "core/node.h"
#include "data/generators.h"
#include "data/workload.h"
#include "fault_injecting_file.h"
#include "geometry/kernels/kernels.h"
#include "geometry/metrics.h"
#include "storage/paged_file.h"

namespace ht {
namespace {

constexpr uint32_t kDim = 16;
constexpr size_t kPoints = 4000;
constexpr size_t kQueries = 12;
constexpr size_t kK = 10;

class ScopedTier {
 public:
  explicit ScopedTier(kernels::SimdTier tier) { kernels::ForceTier(tier); }
  ~ScopedTier() { kernels::ClearForcedTier(); }
};

bool SimdAvailable() {
  return kernels::BestSupportedTier() != kernels::SimdTier::kScalar;
}

/// Records the id of every page read from the wrapped file.
class ReadRecordingPagedFile final : public PagedFile {
 public:
  explicit ReadRecordingPagedFile(PagedFile* base) : base_(base) {}

  std::set<PageId> TakeReads() {
    std::lock_guard<std::mutex> g(mu_);
    std::set<PageId> out = std::move(reads_);
    reads_.clear();
    return out;
  }

  size_t page_size() const override { return base_->page_size(); }
  PageId page_count() const override { return base_->page_count(); }
  Status Read(PageId id, Page* out) override {
    Record(id);
    return base_->Read(id, out);
  }
  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) override {
    for (PageId id : ids) Record(id);
    return base_->ReadBatch(ids, outs);
  }
  Status Write(PageId id, const Page& page) override {
    return base_->Write(id, page);
  }
  Status WriteBatch(std::span<const PageId> ids,
                    std::span<const Page* const> pages) override {
    return base_->WriteBatch(ids, pages);
  }
  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  Status Sync() override { return base_->Sync(); }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  void Record(PageId id) {
    std::lock_guard<std::mutex> g(mu_);
    reads_.insert(id);
  }

  PagedFile* base_;
  std::mutex mu_;
  std::set<PageId> reads_;
};

/// Everything one configuration answers for the fixed query set.
struct Answers {
  std::vector<std::vector<std::pair<double, uint64_t>>> knn;
  std::vector<std::vector<uint64_t>> range;
  std::vector<std::vector<std::pair<double, uint64_t>>> cursor;
  uint64_t logical_reads = 0;
};

/// Bit-level equality of (distance, id) lists: -0.0 vs 0.0 or a last-ulp
/// difference in a distance must fail.
void ExpectSameBits(const std::vector<std::pair<double, uint64_t>>& got,
                    const std::vector<std::pair<double, uint64_t>>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].first),
              std::bit_cast<uint64_t>(want[i].first))
        << what << ", rank " << i;
    EXPECT_EQ(got[i].second, want[i].second) << what << ", rank " << i;
  }
}

class SidecarScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20261020);
    data_ = GenFourier(kPoints, kDim, rng);
    centers_ = MakeQueryCenters(data_, kQueries, rng);
    radius_ = CalibrateRangeRadius(data_, l2_, 0.005, 10, rng);
    // Writes applied to every tree before it is queried, so the scans also
    // meet pages (and sidecars) rebuilt by inserts, splits and deletes.
    for (size_t i = 0; i < 150; ++i) {
      std::vector<float> p(kDim);
      for (uint32_t d = 0; d < kDim; ++d) {
        p[d] = static_cast<float>(rng.NextDouble());
      }
      inserts_.push_back(std::move(p));
    }
  }

  HybridTreeOptions Options(bool quant, size_t pool_pages,
                            size_t prefetch) const {
    HybridTreeOptions o;
    o.dim = kDim;
    o.quant_sidecars = quant;
    o.buffer_pool_pages = pool_pages;
    o.prefetch_depth = prefetch;
    return o;
  }

  /// A pool of a quarter of the pages the bulk-loaded tree occupies.
  size_t QuarterPool() {
    MemPagedFile probe;
    auto t = BulkLoad(Options(true, 0, 0), &probe, data_).ValueOrDie();
    return probe.page_count() / 4;
  }

  std::unique_ptr<HybridTree> Build(PagedFile* file,
                                    const HybridTreeOptions& o) {
    auto tree = BulkLoad(o, file, data_).ValueOrDie();
    for (size_t i = 0; i < inserts_.size(); ++i) {
      EXPECT_TRUE(tree->Insert(inserts_[i], 100000 + i).ok());
    }
    for (size_t i = 0; i < 200; ++i) {
      EXPECT_TRUE(tree->Delete(data_.Row(i * 7), i * 7).ok());
    }
    return tree;
  }

  Answers Run(HybridTree* tree) {
    Answers a;
    tree->pool().ResetStats();
    SearchScratch scratch;
    for (const auto& c : centers_) {
      std::vector<std::pair<double, uint64_t>> nn;
      EXPECT_TRUE(tree->SearchKnnInto(c, kK, l2_, &scratch, &nn).ok());
      a.knn.push_back(nn);
      std::vector<uint64_t> ids;
      EXPECT_TRUE(tree->SearchRangeInto(c, radius_, l2_, &scratch, &ids).ok());
      a.range.push_back(ids);
      KnnCursorOptions copts;
      copts.limit = kK;
      auto cursor = tree->OpenKnnCursor(c, l2_, copts);
      std::vector<std::pair<double, uint64_t>> streamed;
      for (size_t i = 0; i < kK; ++i) {
        auto next = cursor.Next().ValueOrDie();
        if (!next) break;
        streamed.push_back(*next);
      }
      a.cursor.push_back(streamed);
    }
    a.logical_reads = tree->pool().StatsSnapshot().logical_reads;
    return a;
  }

  Dataset data_;
  std::vector<std::vector<float>> centers_;
  std::vector<std::vector<float>> inserts_;
  double radius_ = 0.0;
  L2Metric l2_;
};

TEST_F(SidecarScanTest, ReadsRepeatOnAFreshlyOpenedTree) {
  MemPagedFile file;
  {
    auto tree = Build(&file, Options(true, 0, 0));
    ASSERT_TRUE(tree->Flush().ok());
  }
  const size_t pool = file.page_count() / 4;
  // Two independently opened trees, queried in opposite orders: each
  // query's page reads are the same every time it runs.
  auto a = HybridTree::Open(&file, pool).ValueOrDie();
  auto b = HybridTree::Open(&file, pool).ValueOrDie();
  SearchScratch scratch;
  const auto knn_reads = [&](HybridTree* t, size_t q) {
    t->pool().ResetStats();
    std::vector<std::pair<double, uint64_t>> nn;
    EXPECT_TRUE(t->SearchKnnInto(centers_[q], kK, l2_, &scratch, &nn).ok());
    return t->pool().StatsSnapshot().logical_reads;
  };
  const auto range_reads = [&](HybridTree* t, size_t q) {
    t->pool().ResetStats();
    std::vector<uint64_t> ids;
    EXPECT_TRUE(
        t->SearchRangeInto(centers_[q], radius_, l2_, &scratch, &ids).ok());
    return t->pool().StatsSnapshot().logical_reads;
  };
  std::vector<uint64_t> knn_a, range_a;
  for (size_t q = 0; q < kQueries; ++q) {
    knn_a.push_back(knn_reads(a.get(), q));
    range_a.push_back(range_reads(a.get(), q));
    EXPECT_EQ(knn_reads(a.get(), q), knn_a[q]) << "k-NN rerun, query " << q;
    EXPECT_EQ(range_reads(a.get(), q), range_a[q])
        << "range rerun, query " << q;
  }
  for (size_t q = kQueries; q-- > 0;) {
    EXPECT_EQ(range_reads(b.get(), q), range_a[q]) << "range, query " << q;
    EXPECT_EQ(knn_reads(b.get(), q), knn_a[q]) << "k-NN, query " << q;
  }
}

TEST_F(SidecarScanTest, AnswersIdenticalAcrossConfigurations) {
  const size_t quarter = QuarterPool();
  ASSERT_GT(quarter, 8u);
  // Reference: no sidecars, unbounded pool, no prefetch, scalar tier.
  Answers ref;
  {
    ScopedTier scalar(kernels::SimdTier::kScalar);
    MemPagedFile file;
    auto tree = Build(&file, Options(false, 0, 0));
    ref = Run(tree.get());
  }
  size_t range_hits = 0;
  for (const auto& r : ref.range) range_hits += r.size();
  ASSERT_GT(range_hits, 0u) << "range queries select nothing";

  uint64_t reads_on = 0;
  uint64_t reads_off = 0;
  for (const bool quant : {false, true}) {
    for (const kernels::SimdTier tier :
         {kernels::SimdTier::kScalar, kernels::BestSupportedTier()}) {
      for (const size_t pool : {quarter, size_t{0}}) {
        for (const size_t depth : {size_t{0}, size_t{4}}) {
          ScopedTier forced(tier);
          MemPagedFile file;
          auto tree = Build(&file, Options(quant, pool, depth));
          const Answers got = Run(tree.get());
          const std::string cfg =
              std::string("quant ") + (quant ? "on" : "off") + ", tier " +
              kernels::TierName(tier) + ", pool " + std::to_string(pool) +
              ", depth " + std::to_string(depth);
          for (size_t q = 0; q < kQueries; ++q) {
            const std::string at = cfg + ", query " + std::to_string(q);
            ExpectSameBits(got.knn[q], ref.knn[q], "k-NN, " + at);
            ExpectSameBits(got.cursor[q], ref.cursor[q], "cursor, " + at);
            EXPECT_EQ(got.range[q], ref.range[q]) << "range, " << at;
          }
          if (tier != kernels::SimdTier::kScalar && pool == quarter &&
              depth == 0) {
            (quant ? reads_on : reads_off) = got.logical_reads;
          }
        }
      }
    }
  }
  if (SimdAvailable()) {
    // The skip fires: pages whose sidecar rules out every row are not read.
    EXPECT_LT(reads_on, reads_off);
  }
}

TEST_F(SidecarScanTest, RangePrefetchSkipsPagesTheSidecarRulesOut) {
  if (!SimdAvailable()) GTEST_SKIP() << "sidecars stand down at scalar tier";
  MemPagedFile base;
  {
    auto tree = Build(&base, Options(true, 0, 0));
    ASSERT_TRUE(tree->Flush().ok());
  }
  ReadRecordingPagedFile file(&base);
  const size_t pool = base.page_count() / 4;
  // Wide enough that several pages of one index node survive their
  // sidecars, so there is a batch to prefetch.
  Rng rng(7);
  const double radius = CalibrateRangeRadius(data_, l2_, 0.05, 10, rng);
  // A range query reads exactly the pages its descent keeps: every page it
  // prefetches is one it then fetches, so prefetch adds no page to the set
  // a cold query reads from the file.
  std::vector<std::set<PageId>> by_depth[2];
  uint64_t prefetched = 0;
  for (const size_t depth : {size_t{0}, size_t{4}}) {
    auto tree = HybridTree::Open(&file, pool).ValueOrDie();
    tree->SetPrefetchDepth(depth);
    SearchScratch scratch;
    for (const auto& c : centers_) {
      ASSERT_TRUE(tree->pool().EvictAll().ok());
      (void)file.TakeReads();
      tree->pool().ResetStats();
      std::vector<uint64_t> ids;
      ASSERT_TRUE(tree->SearchRangeInto(c, radius, l2_, &scratch, &ids).ok());
      by_depth[depth == 0 ? 0 : 1].push_back(file.TakeReads());
      prefetched += tree->pool().StatsSnapshot().prefetch_issued;
    }
  }
  EXPECT_GT(prefetched, 0u) << "prefetch never engaged";
  for (size_t q = 0; q < kQueries; ++q) {
    EXPECT_EQ(by_depth[1][q], by_depth[0][q]) << "query " << q;
  }
}

/// Pages written by everything since the last call, except the meta page.
std::vector<PageId> TreePagesWritten(WriteRecordingPagedFile* file) {
  std::vector<PageId> out;
  for (const WriteEvent& e : file->TakeEvents()) {
    if (!e.IsSync() && e.page != 0) out.push_back(e.page);
  }
  return out;
}

NodeKind KindOf(PagedFile* file, PageId id) {
  Page p(file->page_size());
  HT_CHECK_OK(file->Read(id, &p));
  return PeekNodeKind(p.data());
}

TEST_F(SidecarScanTest, OpenThenFlushWritesOnlyTheMetaPage) {
  for (const ElsMode mode :
       {ElsMode::kInMemory, ElsMode::kInPage, ElsMode::kOff}) {
    MemPagedFile base;
    WriteRecordingPagedFile file(&base);
    {
      HybridTreeOptions o = Options(true, 0, 0);
      o.els_mode = mode;
      auto tree = Build(&file, o);
      ASSERT_TRUE(tree->Flush().ok());
    }
    (void)file.TakeEvents();
    auto tree = HybridTree::Open(&file).ValueOrDie();
    ASSERT_TRUE(tree->Flush().ok());
    bool meta_written = false;
    for (const WriteEvent& e : file.TakeEvents()) {
      if (e.IsSync()) continue;
      EXPECT_EQ(e.page, 0u) << "ELS mode " << static_cast<int>(mode);
      meta_written |= e.page == 0;
    }
    EXPECT_TRUE(meta_written);
  }
}

TEST_F(SidecarScanTest, DeleteWithoutEliminationLeavesIndexPagesClean) {
  MemPagedFile base;
  WriteRecordingPagedFile file(&base);
  {
    auto tree = BulkLoad(Options(true, 0, 0), &file, data_).ValueOrDie();
    ASSERT_TRUE(tree->Flush().ok());
  }
  auto tree = HybridTree::Open(&file).ValueOrDie();
  ASSERT_GT(tree->height(), 0u);
  ASSERT_TRUE(tree->Flush().ok());
  (void)file.TakeEvents();
  // Bulk-loaded pages sit far above the utilization floor, so one delete
  // per page rewrites only that data page.
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(tree->Delete(data_.Row(i * 500), i * 500).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  const std::vector<PageId> written = TreePagesWritten(&file);
  EXPECT_FALSE(written.empty());
  for (PageId id : written) {
    EXPECT_EQ(KindOf(&base, id), NodeKind::kData) << "page " << id;
  }
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(SidecarScanTest, InsertsGrowingOnlyInMemoryCodesLeaveIndexPagesClean) {
  // The same inserts against a tree that keeps its ELS codes in the pages
  // and one that keeps them in memory. The first must rewrite index pages
  // (the codes grow), the second must not: its grown codes live in memory.
  size_t index_writes[2] = {0, 0};
  for (const ElsMode mode : {ElsMode::kInPage, ElsMode::kInMemory}) {
    MemPagedFile base;
    WriteRecordingPagedFile file(&base);
    HybridTreeOptions o = Options(true, 0, 0);
    o.els_mode = mode;
    {
      auto tree = BulkLoad(o, &file, data_).ValueOrDie();
      ASSERT_TRUE(tree->Flush().ok());
    }
    auto tree = HybridTree::Open(&file).ValueOrDie();
    ASSERT_TRUE(tree->Flush().ok());
    (void)file.TakeEvents();
    const uint64_t data_pages = tree->ComputeStats().ValueOrDie().data_nodes;
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(tree->Insert(inserts_[i], 100000 + i).ok());
    }
    // No node split: every index-page write would come from the codes.
    ASSERT_EQ(tree->ComputeStats().ValueOrDie().data_nodes, data_pages);
    ASSERT_TRUE(tree->Flush().ok());
    for (PageId id : TreePagesWritten(&file)) {
      if (KindOf(&base, id) == NodeKind::kIndex) {
        ++index_writes[mode == ElsMode::kInMemory ? 1 : 0];
      }
    }
    // The validator's ELS check proves the grown codes were recorded.
    EXPECT_TRUE(tree->CheckInvariants().ok());
  }
  EXPECT_GT(index_writes[0], 0u);
  EXPECT_EQ(index_writes[1], 0u);
}

}  // namespace
}  // namespace ht
