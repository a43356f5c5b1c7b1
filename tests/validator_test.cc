// TreeValidator: the deep invariant checker must accept healthy trees in
// every ELS mode and through every mutation pattern, reject semantic
// page corruptions that Deserialize alone cannot see, and account for
// buffer-pool pins.

#include "core/validator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/hybrid_tree.h"
#include "data/generators.h"

namespace ht {
namespace {

constexpr size_t kPageSize = 1024;

std::unique_ptr<HybridTree> BuildTree(MemPagedFile* file, const Dataset& data,
                                      ElsMode mode) {
  HybridTreeOptions o;
  o.dim = data.dim();
  o.page_size = kPageSize;
  o.els_mode = mode;
  auto tree = HybridTree::Create(o, file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    HT_CHECK_OK(tree->Insert(data.Row(i), i));
  }
  return tree;
}

Dataset SomeData() {
  Rng rng(4242);
  return GenUniform(1500, 4, rng);
}

TEST(ValidatorTest, CleanTreePassesInEveryElsMode) {
  for (ElsMode mode : {ElsMode::kOff, ElsMode::kInPage, ElsMode::kInMemory}) {
    MemPagedFile file(kPageSize);
    Dataset data = SomeData();
    auto tree = BuildTree(&file, data, mode);
    TreeValidator v(tree.get());
    EXPECT_TRUE(v.Validate().ok()) << "mode " << static_cast<int>(mode);
  }
}

TEST(ValidatorTest, PassesAfterDeletionsAndRebuild) {
  MemPagedFile file(kPageSize);
  Dataset data = SomeData();
  auto tree = BuildTree(&file, data, ElsMode::kInMemory);
  // Deletions exercise eliminate-and-reinsert and kd-leaf removal.
  for (size_t i = 0; i < data.size(); i += 3) {
    HT_CHECK_OK(tree->Delete(data.Row(i), i));
    if (i % 300 == 0) {
      EXPECT_TRUE(tree->CheckInvariants().ok());
    }
  }
  EXPECT_TRUE(tree->CheckInvariants().ok());
  HT_CHECK_OK(tree->RebuildEls());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(ValidatorTest, PassesAfterPersistenceRoundTrip) {
  MemPagedFile file(kPageSize);
  Dataset data = SomeData();
  {
    auto tree = BuildTree(&file, data, ElsMode::kInPage);
    HT_CHECK_OK(tree->Flush());
  }
  auto tree = HybridTree::Open(&file).ValueOrDie();
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

// --- seeded corruption: semantic damage Deserialize cannot reject -------

struct CorruptFixture {
  MemPagedFile file{kPageSize};
  Dataset data = SomeData();
  std::unique_ptr<HybridTree> tree;

  CorruptFixture() {
    tree = BuildTree(&file, data, ElsMode::kInPage);
    HT_CHECK_OK(tree->Flush());
  }

  /// First page (≠ meta, ≠ skip) whose kind byte matches, searching the
  /// flushed backing file directly.
  PageId FindPage(NodeKind kind, PageId skip = kInvalidPageId) {
    for (PageId id = 1; id < file.page_count(); ++id) {
      if (id == skip) continue;
      Page p(kPageSize);
      HT_CHECK_OK(file.Read(id, &p));
      if (PeekNodeKind(p.data()) == kind) return id;
    }
    return kInvalidPageId;
  }

  void Patch(PageId id, size_t offset, std::span<const uint8_t> bytes) {
    Page p(kPageSize);
    HT_CHECK_OK(file.Read(id, &p));
    std::memcpy(p.data() + offset, bytes.data(), bytes.size());
    HT_CHECK_OK(file.Write(id, p));
  }

  void PatchF32(PageId id, size_t offset, float v) {
    uint8_t b[4];
    std::memcpy(b, &v, sizeof(v));  // little-endian hosts (the fast path)
    Patch(id, offset, b);
  }

  /// Reopens from the (corrupted) backing file so no cached parse or
  /// buffer-pool frame hides the damage.
  Status ReopenAndValidate() {
    auto reopened = HybridTree::Open(&file);
    if (!reopened.ok()) return reopened.status();
    return reopened.ValueOrDie()->CheckInvariants();
  }
};

TEST(ValidatorTest, DetectsEntryMovedOutsideItsRegion) {
  CorruptFixture f;
  const PageId page = f.FindPage(NodeKind::kData);
  ASSERT_NE(page, kInvalidPageId);
  // Data page layout: 4-byte header, then id u64 + dim * f32 per entry;
  // entry 0's first coordinate lives at offset 12. 100.0 is far outside
  // the unit cube, so some enclosing kd or live region must exclude it.
  f.PatchF32(page, 12, 100.0f);
  Status s = f.ReopenAndValidate();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ValidatorTest, DetectsNonFiniteCoordinate) {
  CorruptFixture f;
  const PageId page = f.FindPage(NodeKind::kData);
  ASSERT_NE(page, kInvalidPageId);
  f.PatchF32(page, 12, std::numeric_limits<float>::quiet_NaN());
  Status s = f.ReopenAndValidate();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ValidatorTest, DetectsWrongEntryCount) {
  CorruptFixture f;
  const PageId page = f.FindPage(NodeKind::kData);
  ASSERT_NE(page, kInvalidPageId);
  // The count field (u16 at offset 2) claims one entry fewer: the tree-wide
  // entry tally no longer matches size() even though the page itself
  // deserializes fine.
  Page p(kPageSize);
  HT_CHECK_OK(f.file.Read(page, &p));
  uint16_t count;
  std::memcpy(&count, p.data() + 2, 2);
  ASSERT_GT(count, 0);
  --count;
  const uint8_t b[2] = {static_cast<uint8_t>(count & 0xff),
                        static_cast<uint8_t>(count >> 8)};
  f.Patch(page, 2, b);
  Status s = f.ReopenAndValidate();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// --- quantized sidecars: complete and current -----------------------------

/// Rewrites data page `page` through the pool, bypassing the tree's write
/// path and with it the page's sidecar upkeep.
void OverwriteBehindTheTree(HybridTree* tree, PageId page,
                            const DataNode& node) {
  PageHandle h = tree->pool().Fetch(page).ValueOrDie();
  node.Serialize(h.data(), h.size(), tree->options().dim);
  h.MarkDirty();
}

std::unique_ptr<HybridTree> EmptyTree(MemPagedFile* file, bool quant) {
  HybridTreeOptions o;
  o.dim = 4;
  o.page_size = kPageSize;
  o.quant_sidecars = quant;
  return HybridTree::Create(o, file).ValueOrDie();
}

TEST(ValidatorTest, DetectsDataPageWithoutSidecar) {
  DataNode node;
  node.entries.push_back(DataEntry{1, {0.1f, 0.2f, 0.3f, 0.4f}});
  ValidateOptions opts;
  opts.occupancy = false;  // the tree's entry count is stale as well
  for (const bool quant : {true, false}) {
    MemPagedFile file(kPageSize);
    auto tree = EmptyTree(&file, quant);
    // The root starts as an empty data page, which has no sidecar.
    OverwriteBehindTheTree(tree.get(), tree->root_page(), node);
    Status s = TreeValidator(tree.get(), opts).Validate();
    if (!quant) {
      EXPECT_TRUE(s.ok()) << s.ToString();  // no sidecars are expected
      continue;
    }
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("without a quantized sidecar"),
              std::string::npos)
        << s.ToString();
  }
}

TEST(ValidatorTest, DetectsSidecarLeftOnAnEmptiedPage) {
  MemPagedFile file(kPageSize);
  auto tree = EmptyTree(&file, /*quant=*/true);
  const std::vector<float> p = {0.1f, 0.2f, 0.3f, 0.4f};
  HT_CHECK_OK(tree->Insert(p, 1));
  EXPECT_EQ(tree->CachedQuantPages(), 1u);
  OverwriteBehindTheTree(tree.get(), tree->root_page(), DataNode{});
  ValidateOptions opts;
  opts.occupancy = false;
  Status s = TreeValidator(tree.get(), opts).Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("must not have one"), std::string::npos)
      << s.ToString();
}

TEST(ValidatorTest, DetectsStaleSidecar) {
  MemPagedFile file(kPageSize);
  Dataset data = SomeData();
  auto tree = BuildTree(&file, data, ElsMode::kInMemory);
  HT_CHECK_OK(tree->Flush());
  PageId page = kInvalidPageId;
  for (PageId id = 1; id < file.page_count() && page == kInvalidPageId;
       ++id) {
    Page img(kPageSize);
    HT_CHECK_OK(file.Read(id, &img));
    if (PeekNodeKind(img.data()) == NodeKind::kData) page = id;
  }
  ASSERT_NE(page, kInvalidPageId);
  // Swap the first coordinate of entries 0 and 1: every region check
  // still holds (each box covers both values), only the sidecar is stale.
  DataNode node =
      DataNode::Deserialize(
          tree->pool().Fetch(page).ValueOrDie().data(), kPageSize, 4)
          .ValueOrDie();
  ASSERT_GE(node.entries.size(), 2u);
  ASSERT_NE(node.entries[0].vec[0], node.entries[1].vec[0]);
  std::swap(node.entries[0].vec[0], node.entries[1].vec[0]);
  OverwriteBehindTheTree(tree.get(), page, node);
  Status s = tree->CheckInvariants();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("stale"), std::string::npos) << s.ToString();
}

// --- option groups and pin accounting ------------------------------------

TEST(ValidatorTest, PinLeakFailsValidationUntilReleased) {
  MemPagedFile file(kPageSize);
  Dataset data = SomeData();
  auto tree = BuildTree(&file, data, ElsMode::kInMemory);
  tree->pool().SetPinTracking(true);

  {
    PageHandle h = tree->pool().Fetch(tree->root_page()).ValueOrDie();
    Status s = tree->CheckInvariants();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("pin"), std::string::npos) << s.ToString();

    // The structural walk itself is still clean: pins off, rest on.
    ValidateOptions opts;
    opts.pins = false;
    TreeValidator no_pins(tree.get(), opts);
    EXPECT_TRUE(no_pins.Validate().ok());
  }
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(ValidatorTest, DisabledGroupsSkipTheirChecks) {
  CorruptFixture f;
  const PageId page = f.FindPage(NodeKind::kData);
  ASSERT_NE(page, kInvalidPageId);
  f.PatchF32(page, 12, 100.0f);
  auto reopened = HybridTree::Open(&f.file).ValueOrDie();

  // Containment violations are reported by the structure/els groups;
  // with both off (plus occupancy's count tally), the pass goes quiet.
  ValidateOptions opts;
  opts.structure = false;
  opts.els = false;
  TreeValidator v(reopened.get(), opts);
  EXPECT_TRUE(v.Validate().ok());

  TreeValidator strict(reopened.get());
  EXPECT_FALSE(strict.Validate().ok());
}

}  // namespace
}  // namespace ht
