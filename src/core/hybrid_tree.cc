#include "core/hybrid_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>

#include "common/codec.h"
#include "core/split.h"
#include "core/validator.h"

namespace ht {

namespace {
constexpr uint32_t kMetaMagic = 0x48594254;  // "HYBT"
constexpr uint32_t kMetaVersion = 1;
}  // namespace

// ---------------------------------------------------------------------------
// Construction / metadata
// ---------------------------------------------------------------------------

HybridTree::HybridTree(const HybridTreeOptions& options, PagedFile* file)
    : options_(options),
      file_(file),
      pool_(std::make_unique<BufferPool>(file, options.buffer_pool_pages,
                                         options.cache_policy)),
      codec_(options.dim, options.els_bits) {
  data_capacity_ = DataNode::Capacity(options_.dim, options_.page_size);
  data_min_count_ = std::max<size_t>(
      1, static_cast<size_t>(options_.data_node_min_util *
                             static_cast<double>(data_capacity_)));
  if (2 * data_min_count_ > data_capacity_) {
    data_min_count_ = data_capacity_ / 2;
  }
}

Result<std::unique_ptr<HybridTree>> HybridTree::Create(
    const HybridTreeOptions& options, PagedFile* file) {
  if (options.dim == 0) {
    return Status::InvalidArgument("dimension must be positive");
  }
  if (options.page_size != file->page_size()) {
    return Status::InvalidArgument("options.page_size != file page size");
  }
  if (file->page_count() != 0) {
    return Status::InvalidArgument("Create requires an empty file");
  }
  if (DataNode::Capacity(options.dim, options.page_size) < 4) {
    return Status::InvalidArgument(
        "page too small: a data node must hold at least 4 entries");
  }
  if (options.els_bits > 16) {
    return Status::InvalidArgument("els_bits must be <= 16");
  }
  auto tree = std::unique_ptr<HybridTree>(new HybridTree(options, file));
  // Page 0: metadata. Page 1: the initial (empty) data-node root.
  HT_ASSIGN_OR_RETURN(PageHandle meta, tree->pool_->New());
  HT_CHECK(meta.id() == 0);
  tree->meta_page_ = meta.id();
  HT_ASSIGN_OR_RETURN(PageHandle root, tree->pool_->New());
  tree->root_ = root.id();
  DataNode empty;
  empty.Serialize(root.data(), options.page_size, options.dim);
  root.MarkDirty();
  root.Release();
  meta.Release();
  // Construction is single-threaded by contract; the role makes the
  // WriteMeta requirement explicit to the analysis.
  ExclusiveRole guard(&tree->rw_contract_);
  HT_RETURN_NOT_OK(tree->WriteMeta());
  return tree;
}

Result<std::unique_ptr<HybridTree>> HybridTree::Open(PagedFile* file,
                                                     size_t buffer_pool_pages) {
  if (file->page_count() == 0) {
    return Status::InvalidArgument("Open requires a non-empty file");
  }
  Page meta(file->page_size());
  HT_RETURN_NOT_OK(file->Read(0, &meta));
  Reader r(meta.data(), meta.size());
  const uint8_t kind = r.GetU8();
  if (kind != static_cast<uint8_t>(NodeKind::kMeta)) {
    return Status::Corruption("page 0 is not a hybrid tree meta page");
  }
  const uint32_t magic = r.GetU32();
  const uint32_t version = r.GetU32();
  if (magic != kMetaMagic || version != kMetaVersion) {
    return Status::Corruption("bad hybrid tree magic/version");
  }
  HybridTreeOptions options;
  options.dim = r.GetU32();
  options.page_size = r.GetU32();
  const PageId root = r.GetU32();
  const uint32_t height = r.GetU32();
  const uint64_t count = r.GetU64();
  options.split_policy = static_cast<SplitPolicy>(r.GetU8());
  options.els_mode = static_cast<ElsMode>(r.GetU8());
  options.els_bits = r.GetU8();
  options.query_size_model = static_cast<QuerySizeModel>(r.GetU8());
  options.expected_query_side = r.GetF32();
  options.data_node_min_util = r.GetF32();
  options.index_node_min_util = r.GetF32();
  HT_RETURN_NOT_OK(r.status());
  if (options.page_size != file->page_size()) {
    return Status::Corruption("meta page size mismatch");
  }
  options.buffer_pool_pages = buffer_pool_pages;

  auto tree = std::unique_ptr<HybridTree>(new HybridTree(options, file));
  tree->meta_page_ = 0;
  tree->root_ = root;
  tree->height_ = height;
  tree->count_ = count;
  {
    // Opening is single-threaded by contract, like construction.
    ExclusiveRole role(&tree->rw_contract_);
    HT_RETURN_NOT_OK(tree->LoadDirectory());
  }
  HT_RETURN_NOT_OK(tree->DebugValidateDirectory());
  return tree;
}

Status HybridTree::WriteMeta() {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(meta_page_));
  Writer w(h.data(), h.size());
  w.PutU8(static_cast<uint8_t>(NodeKind::kMeta));
  w.PutU32(kMetaMagic);
  w.PutU32(kMetaVersion);
  w.PutU32(options_.dim);
  w.PutU32(static_cast<uint32_t>(options_.page_size));
  w.PutU32(root_);
  w.PutU32(height_);
  w.PutU64(count_);
  w.PutU8(static_cast<uint8_t>(options_.split_policy));
  w.PutU8(static_cast<uint8_t>(options_.els_mode));
  w.PutU8(static_cast<uint8_t>(options_.els_bits));
  w.PutU8(static_cast<uint8_t>(options_.query_size_model));
  w.PutF32(static_cast<float>(options_.expected_query_side));
  w.PutF32(static_cast<float>(options_.data_node_min_util));
  w.PutF32(static_cast<float>(options_.index_node_min_util));
  h.MarkDirty();
  return Status::OK();
}

Status HybridTree::Flush() {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kIngest);
  // Ordered, write-ahead flush: first every dirty tree page goes out (in
  // batched round trips, one WriteBatch per buffer-pool shard) and is made
  // durable; only then is the metadata page — root pointer, height, count —
  // written and synced. A flush that dies part-way therefore leaves the old
  // metadata on disk: reopening yields the previous root rather than a new
  // root over pages that never landed. Pages are still rewritten in place
  // (no shadow paging), so the guarantee is "meta never points into the
  // void", not full multi-flush atomicity — see DESIGN.md §6d.
  HT_RETURN_NOT_OK(pool_->FlushAllExcept(meta_page_));
  HT_RETURN_NOT_OK(file_->Sync());
  HT_RETURN_NOT_OK(WriteMeta());
  HT_RETURN_NOT_OK(pool_->FlushPage(meta_page_));
  HT_RETURN_NOT_OK(file_->Sync());
  DebugValidate();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Node I/O helpers
// ---------------------------------------------------------------------------

Result<NodeKind> HybridTree::PeekKind(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return PeekNodeKind(h.data());
}

Result<DataNode> HybridTree::ReadDataNode(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return DataNode::Deserialize(h.data(), h.size(), options_.dim);
}

Status HybridTree::WriteDataNode(PageId id, const DataNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  WriteDataNode(h, node);
  return Status::OK();
}

void HybridTree::WriteDataNode(PageHandle& h, const DataNode& node) {
  node.Serialize(h.data(), h.size(), options_.dim);
  h.MarkDirty();
  quant_store_.Put(h.id(),
                   options_.quant_sidecars
                       ? BuildDataPageSidecar(h.data(), h.size(), options_.dim)
                       : nullptr);
}

Result<IndexNode> HybridTree::ReadIndexNode(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  HT_ASSIGN_OR_RETURN(
      IndexNode node,
      IndexNode::Deserialize(h.data(), h.size(), els_in_page(),
                             codec_.CodeBytes(), options_.dim));
  if (options_.els_mode == ElsMode::kInMemory && options_.els_bits > 0) {
    auto it = els_sidecar_.find(id);
    if (it != els_sidecar_.end()) {
      node.AttachElsBlob(it->second, codec_.CodeBytes());
    }
  }
  return node;
}

void HybridTree::EnsureCodes(KdNode* n) {
  if (n == nullptr) return;
  if (n->IsLeaf()) {
    if (n->els.size() != codec_.CodeBytes()) n->els = codec_.FullCode();
    return;
  }
  EnsureCodes(n->left.get());
  EnsureCodes(n->right.get());
}

Result<std::shared_ptr<const IndexNode>> HybridTree::ReadIndexNodeCached(
    PageId id, const uint8_t* page_data, size_t page_size) const {
  {
    // Conditional guard: the lock is real only in concurrent-read mode;
    // serial mode claims the capability without the runtime lock (the
    // single-threaded contract IS the exclusion).
    ReaderLock lock(&node_cache_mu_, concurrent_reads_);
    auto it = node_cache_.find(id);
    if (it != node_cache_.end()) return it->second;
  }
  HT_ASSIGN_OR_RETURN(
      IndexNode node,
      IndexNode::Deserialize(page_data, page_size, els_in_page(),
                             codec_.CodeBytes(), options_.dim));
  if (options_.els_mode == ElsMode::kInMemory && options_.els_bits > 0) {
    auto sit = els_sidecar_.find(id);
    if (sit != els_sidecar_.end()) {
      node.AttachElsBlob(sit->second, codec_.CodeBytes());
    }
  }
  // The flat leaf table: each leaf's decoded live box against its
  // node-local region (the kd region itself with ELS off), in preorder.
  node.BuildLeafTable(Box::UnitCube(options_.dim),
                      [&](const KdNode& leaf, const Box& kd_br) {
                        return els_enabled() ? codec_.Decode(leaf.els, kd_br)
                                             : kd_br;
                      });
  auto sp = std::make_shared<const IndexNode>(std::move(node));
  // Two readers may race to deserialize the same page; first to publish
  // wins and both views are identical (the page is immutable while
  // readers run). Keep-first semantics match the serial path, where the
  // miss check above guarantees the slot is empty.
  WriterLock lock(&node_cache_mu_, concurrent_reads_);
  auto [it, inserted] = node_cache_.try_emplace(id, std::move(sp));
  return it->second;
}

void HybridTree::InvalidateCachedNode(PageId id) {
  WriterLock lock(&node_cache_mu_, concurrent_reads_);
  node_cache_.erase(id);
}

Status HybridTree::SetConcurrentReads(bool on) {
  // Mode flips happen between batches, under write exclusivity.
  ExclusiveRole role(&rw_contract_);
  if (on == concurrent_reads_) return Status::OK();
  HT_RETURN_NOT_OK(pool_->SetConcurrentMode(on));
  concurrent_reads_ = on;
  return Status::OK();
}

Status HybridTree::WriteIndexNode(PageId id, IndexNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  StoreElsCodes(id, node);
  node.Serialize(h.data(), h.size(), els_in_page(), codec_.CodeBytes());
  h.MarkDirty();
  return Status::OK();
}

void HybridTree::StoreElsCodes(PageId id, IndexNode& node) {
  InvalidateCachedNode(id);
  if (!els_enabled()) return;
  EnsureCodes(node.root.get());
  if (!els_in_page()) {
    els_sidecar_[id] = node.ExtractElsBlob(codec_.CodeBytes());
  }
}

// ---------------------------------------------------------------------------
// ELS helpers
// ---------------------------------------------------------------------------

void HybridTree::ReencodeSubtree(KdNode* n, const Box& old_br,
                                 const Box& new_br) {
  if (!els_enabled() || n == nullptr) return;
  if (n->IsLeaf()) {
    n->els = codec_.Reencode(n->els, old_br, new_br);
    return;
  }
  ReencodeSubtree(n->left.get(), KdLeftBr(old_br, *n), KdLeftBr(new_br, *n));
  ReencodeSubtree(n->right.get(), KdRightBr(old_br, *n),
                  KdRightBr(new_br, *n));
}

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

Status HybridTree::Insert(std::span<const float> point, uint64_t id) {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kIngest);
  if (point.size() != options_.dim) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  for (float v : point) {
    if (!(v >= 0.0f && v <= 1.0f)) {
      return Status::InvalidArgument(
          "point outside the normalized feature space [0,1]^dim");
    }
  }
  const Box cube = Box::UnitCube(options_.dim);
  HT_ASSIGN_OR_RETURN(SplitResult s, InsertRec(root_, cube, point, id));
  if (s.split) {
    HT_RETURN_NOT_OK(GrowRoot(s));
  }
  ++count_;
  DebugValidate();
  return Status::OK();
}

Status HybridTree::GrowRoot(const SplitResult& s) {
  // Grow the tree: a new root whose kd-tree is a single split.
  const Box cube = Box::UnitCube(options_.dim);
  IndexNode new_root;
  new_root.level = static_cast<uint8_t>(height_ + 1);
  Box left_br = cube;
  if (s.lsp < left_br.hi(s.dim)) left_br.set_hi(s.dim, s.lsp);
  Box right_br = cube;
  if (s.rsp > right_br.lo(s.dim)) right_br.set_lo(s.dim, s.rsp);
  auto lleaf = KdNode::MakeLeaf(
      root_, els_enabled() ? codec_.Encode(s.left_live, left_br) : ElsCode{});
  auto rleaf = KdNode::MakeLeaf(
      s.right_page,
      els_enabled() ? codec_.Encode(s.right_live, right_br) : ElsCode{});
  new_root.root = KdNode::MakeInternal(s.dim, s.lsp, s.rsp, std::move(lleaf),
                                       std::move(rleaf));
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
  const PageId new_root_page = h.id();
  h.Release();
  HT_RETURN_NOT_OK(WriteIndexNode(new_root_page, new_root));
  root_ = new_root_page;
  ++height_;
  return Status::OK();
}

Status HybridTree::InsertBatch(std::span<const float> points,
                               std::span<const uint64_t> ids) {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kIngest);
  if (ids.empty()) return Status::OK();
  if (points.size() != ids.size() * options_.dim) {
    return Status::InvalidArgument(
        "InsertBatch: points.size() must equal ids.size() * dim");
  }
  // Whole-batch validation before any mutation, mirroring the WriteBatch
  // contract: a bad row cannot leave a half-applied batch behind.
  for (float v : points) {
    if (!(v >= 0.0f && v <= 1.0f)) {
      return Status::InvalidArgument(
          "point outside the normalized feature space [0,1]^dim");
    }
  }
  const Box cube = Box::UnitCube(options_.dim);
  std::vector<uint32_t> remaining(ids.size());
  std::iota(remaining.begin(), remaining.end(), 0u);
  // Every descent places at least one row before any split bubbles rows
  // back up, so this loop makes progress and terminates.
  while (!remaining.empty()) {
    HT_ASSIGN_OR_RETURN(
        BatchOutcome out,
        InsertBatchRec(root_, cube, points, ids, std::move(remaining)));
    if (out.split.split) {
      HT_RETURN_NOT_OK(GrowRoot(out.split));
    }
    remaining = std::move(out.leftovers);
  }
  DebugValidate();
  return Status::OK();
}

Result<HybridTree::BatchOutcome> HybridTree::InsertBatchRec(
    PageId page, const Box& br, std::span<const float> points,
    std::span<const uint64_t> ids, std::vector<uint32_t> idxs) {
  const auto row = [&](uint32_t i) {
    return points.subspan(static_cast<size_t>(i) * options_.dim,
                          options_.dim);
  };
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    // One deserialize + one serialize for the whole group, instead of one
    // round trip through the codec per point.
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    BatchOutcome out;
    for (size_t k = 0; k < idxs.size(); ++k) {
      const auto p = row(idxs[k]);
      node.entries.push_back(
          DataEntry{ids[idxs[k]], std::vector<float>(p.begin(), p.end())});
      if (node.entries.size() > data_capacity_) {
        // Overflow at exactly the same occupancy as a serial Insert. The
        // not-yet-placed rows re-route through the caller against the two
        // new halves.
        HT_ASSIGN_OR_RETURN(out.split, SplitDataNode(page, node, br));
        count_ += k + 1;
        out.leftovers.assign(idxs.begin() + static_cast<ptrdiff_t>(k) + 1,
                             idxs.end());
        return out;
      }
    }
    HT_RETURN_NOT_OK(WriteDataNode(page, node));
    count_ += idxs.size();
    return out;
  }

  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  // `dirtied`: the page image changed. `els_grown`: only ELS codes did,
  // which rewrites the page only when the codes live in it.
  bool dirtied = false;
  bool els_grown = false;
  BatchOutcome out;
  std::vector<uint32_t> pending = std::move(idxs);
  while (!pending.empty()) {
    // One routing pass buckets every pending row by its target kd leaf, so
    // each child page is read and re-serialized once per ROUND instead of
    // once per row. A child split replaces only its own bucket's leaf —
    // the other buckets' leaf pointers stay valid — so re-routing is
    // needed only for rows a split bounced back (the next round).
    std::vector<ChildRef> targets;
    std::vector<std::vector<uint32_t>> buckets;
    std::unordered_map<const KdNode*, size_t> bucket_of;
    for (uint32_t idx : pending) {
      const auto p = row(idx);
      ChildRef t = FindLeafForInsert(node, p, br, &dirtied);
      if (els_enabled()) {
        ElsCode grown = codec_.ExtendToInclude(t.leaf->els, t.kd_br, p);
        if (grown != t.leaf->els) {
          t.leaf->els = std::move(grown);
          els_grown = true;
        }
      }
      auto [it, fresh] = bucket_of.try_emplace(t.leaf, buckets.size());
      if (fresh) {
        targets.push_back(t);
        buckets.emplace_back();
      }
      buckets[it->second].push_back(idx);
    }
    std::vector<uint32_t> bounced;
    // A kd_br captured during routing can go stale: a later row's
    // gap-widening moves boundaries (and re-encodes ELS against the new
    // regions). Recompute each leaf's current region when its bucket is
    // processed, so split replacement clips against live geometry.
    auto kd_br_of = [&](const KdNode* leaf) -> Box {
      Box result = br;
      std::function<bool(const KdNode*, const Box&)> walk =
          [&](const KdNode* n, const Box& b) -> bool {
        if (n == leaf) {
          result = b;
          return true;
        }
        if (n->IsLeaf()) return false;
        return walk(n->left.get(), KdLeftBr(b, *n)) ||
               walk(n->right.get(), KdRightBr(b, *n));
      };
      walk(node.root.get(), br);
      return result;
    };
    for (size_t b = 0; b < buckets.size(); ++b) {
      KdNode* const target_leaf = targets[b].leaf;
      const Box target_br = kd_br_of(target_leaf);
      const PageId child_page = target_leaf->child;
      // Children interpret their own kd trees relative to the unit cube
      // (see InsertRec): node-local ELS reference regions cannot go stale.
      HT_ASSIGN_OR_RETURN(
          BatchOutcome cs,
          InsertBatchRec(child_page, Box::UnitCube(options_.dim), points, ids,
                         std::move(buckets[b])));
      if (cs.split.split) {
        // Replace the kd leaf by an internal node over the two halves.
        Box left_br = target_br;
        if (cs.split.lsp < left_br.hi(cs.split.dim)) {
          left_br.set_hi(cs.split.dim, cs.split.lsp);
        }
        Box right_br = target_br;
        if (cs.split.rsp > right_br.lo(cs.split.dim)) {
          right_br.set_lo(cs.split.dim, cs.split.rsp);
        }
        KdNode* leaf = target_leaf;
        leaf->left = KdNode::MakeLeaf(
            child_page,
            els_enabled() ? codec_.Encode(cs.split.left_live, left_br)
                          : ElsCode{});
        leaf->right = KdNode::MakeLeaf(
            cs.split.right_page,
            els_enabled() ? codec_.Encode(cs.split.right_live, right_br)
                          : ElsCode{});
        leaf->split_dim = cs.split.dim;
        leaf->lsp = cs.split.lsp;
        leaf->rsp = cs.split.rsp;
        leaf->child = kInvalidPageId;
        leaf->els.clear();
        dirtied = true;
      }
      bounced.insert(bounced.end(), cs.leftovers.begin(), cs.leftovers.end());
      if (node.SerializedSize(els_in_page()) > options_.page_size) {
        // This node must split; every not-yet-placed row — bounced ones
        // and whole unprocessed buckets — bubbles up and re-routes from
        // the caller once the split is applied there.
        HT_ASSIGN_OR_RETURN(out.split, SplitIndexNode(page, node, br));
        for (size_t rest = b + 1; rest < buckets.size(); ++rest) {
          bounced.insert(bounced.end(), buckets[rest].begin(),
                         buckets[rest].end());
        }
        out.leftovers = std::move(bounced);
        return out;
      }
    }
    pending = std::move(bounced);
  }
  if (dirtied || (els_grown && els_in_page())) {
    HT_RETURN_NOT_OK(WriteIndexNode(page, node));
  } else if (els_grown) {
    StoreElsCodes(page, node);
  }
  return out;
}

namespace {
/// Margin-based enlargement: total increase of side lengths needed for
/// `box` to cover `p`. Volume-based enlargement underflows to 0 beyond a
/// few dozen dimensions, margins stay informative at any dimensionality.
double MarginEnlargement(const Box& box, std::span<const float> p) {
  double grow = 0.0;
  for (uint32_t d = 0; d < box.dim(); ++d) {
    if (p[d] < box.lo(d)) grow += box.lo(d) - p[d];
    if (p[d] > box.hi(d)) grow += p[d] - box.hi(d);
  }
  return grow;
}
}  // namespace

ChildRef HybridTree::FindLeafForInsert(IndexNode& node,
                                       std::span<const float> p,
                                       const Box& node_br, bool* dirtied) {
  // §3.5: indexed subspaces are treated as BRs; the insertion target is the
  // child needing minimum enlargement, ties broken by BR size. Collect
  // every leaf whose kd region contains the point (overlaps can yield
  // several) and rank them by live-region enlargement. The candidates
  // buffer is a member reused across the insert descent (cleared, capacity
  // retained) instead of reallocating per visited node.
  std::vector<ChildRef>& candidates = insert_candidates_;
  candidates.clear();
  std::function<void(KdNode*, const Box&)> walk = [&](KdNode* n,
                                                      const Box& br) {
    if (n->IsLeaf()) {
      candidates.push_back(ChildRef{n, br});
      return;
    }
    const float v = p[n->split_dim];
    if (v <= n->lsp) walk(n->left.get(), KdLeftBr(br, *n));
    if (v >= n->rsp) walk(n->right.get(), KdRightBr(br, *n));
  };
  walk(node.root.get(), node_br);

  if (!candidates.empty()) {
    size_t best = 0;
    double best_grow = std::numeric_limits<double>::max();
    double best_margin = std::numeric_limits<double>::max();
    for (size_t i = 0; i < candidates.size(); ++i) {
      const Box live = els_enabled()
                           ? codec_.Decode(candidates[i].leaf->els,
                                           candidates[i].kd_br)
                           : candidates[i].kd_br;
      const double grow = MarginEnlargement(live, p);
      const double margin = live.Margin();
      if (std::tie(grow, margin) < std::tie(best_grow, best_margin)) {
        best_grow = grow;
        best_margin = margin;
        best = i;
      }
    }
    return candidates[best];
  }

  // The point fell into a kd gap (lsp < v < rsp) on every path: admit it by
  // minimally enlarging the nearer boundary — the 1-d specialization of the
  // minimum-enlargement rule. The widened subtree's kd regions change, so
  // its ELS codes are re-encoded against the new reference regions.
  KdNode* n = node.root.get();
  Box br = node_br;
  while (!n->IsLeaf()) {
    const uint32_t d = n->split_dim;
    const float v = p[d];
    const bool can_left = v <= n->lsp;
    const bool can_right = v >= n->rsp;
    if (!can_left && !can_right) {
      if (v - n->lsp <= n->rsp - v) {
        const Box old_br = KdLeftBr(br, *n);
        n->lsp = v;
        ReencodeSubtree(n->left.get(), old_br, KdLeftBr(br, *n));
      } else {
        const Box old_br = KdRightBr(br, *n);
        n->rsp = v;
        ReencodeSubtree(n->right.get(), old_br, KdRightBr(br, *n));
      }
      *dirtied = true;
      continue;  // re-evaluate with the widened boundary
    }
    bool go_left;
    if (can_left && can_right) {
      go_left = (n->lsp - v) >= (v - n->rsp);
    } else {
      go_left = can_left;
    }
    if (go_left) {
      br = KdLeftBr(br, *n);
      n = n->left.get();
    } else {
      br = KdRightBr(br, *n);
      n = n->right.get();
    }
  }
  return ChildRef{n, br};
}

Result<HybridTree::SplitResult> HybridTree::InsertRec(
    PageId page, const Box& br, std::span<const float> point, uint64_t id) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    node.entries.push_back(
        DataEntry{id, std::vector<float>(point.begin(), point.end())});
    if (node.entries.size() <= data_capacity_) {
      HT_RETURN_NOT_OK(WriteDataNode(page, node));
      return SplitResult{};
    }
    return SplitDataNode(page, node, br);
  }

  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  // `dirtied`: the page image changed. `els_grown`: only ELS codes did,
  // which rewrites the page only when the codes live in it.
  bool dirtied = false;
  bool els_grown = false;
  ChildRef target = FindLeafForInsert(node, point, br, &dirtied);
  if (els_enabled()) {
    ElsCode grown =
        codec_.ExtendToInclude(target.leaf->els, target.kd_br, point);
    if (grown != target.leaf->els) {
      target.leaf->els = std::move(grown);
      els_grown = true;
    }
  }
  const PageId child_page = target.leaf->child;
  // Children interpret their own kd trees relative to the unit cube:
  // every page's ELS reference regions are node-local (see the class
  // comment), so ancestor boundary changes can never stale them.
  HT_ASSIGN_OR_RETURN(SplitResult cs,
                      InsertRec(child_page, Box::UnitCube(options_.dim),
                                point, id));
  if (cs.split) {
    // Replace the kd leaf by an internal node over the two halves.
    Box left_br = target.kd_br;
    if (cs.lsp < left_br.hi(cs.dim)) left_br.set_hi(cs.dim, cs.lsp);
    Box right_br = target.kd_br;
    if (cs.rsp > right_br.lo(cs.dim)) right_br.set_lo(cs.dim, cs.rsp);
    KdNode* leaf = target.leaf;
    leaf->left = KdNode::MakeLeaf(
        child_page,
        els_enabled() ? codec_.Encode(cs.left_live, left_br) : ElsCode{});
    leaf->right = KdNode::MakeLeaf(
        cs.right_page,
        els_enabled() ? codec_.Encode(cs.right_live, right_br) : ElsCode{});
    leaf->split_dim = cs.dim;
    leaf->lsp = cs.lsp;
    leaf->rsp = cs.rsp;
    leaf->child = kInvalidPageId;
    leaf->els.clear();
    dirtied = true;
  }
  if (node.SerializedSize(els_in_page()) > options_.page_size) {
    return SplitIndexNode(page, node, br);
  }
  if (dirtied || (els_grown && els_in_page())) {
    HT_RETURN_NOT_OK(WriteIndexNode(page, node));
  } else if (els_grown) {
    StoreElsCodes(page, node);
  }
  return SplitResult{};
}

Result<HybridTree::SplitResult> HybridTree::SplitDataNode(PageId page,
                                                          DataNode& node,
                                                          const Box& br) {
  // The EDA-optimal dimension is the one along which the node's bounding
  // region is widest (§3.2). The *live* BR (tight box over the stored
  // entries) is the operative region: the kd region also covers dead space
  // whose extent says nothing about where a split can separate data.
  (void)br;
  const Box live = node.ComputeLiveBr(options_.dim);
  DataSplit ds = ChooseDataSplit(live, node.entries, data_min_count_,
                                 options_.split_policy);
  DataNode left, right;
  left.entries.reserve(ds.left.size());
  right.entries.reserve(ds.right.size());
  for (uint32_t i : ds.left) left.entries.push_back(std::move(node.entries[i]));
  for (uint32_t i : ds.right) {
    right.entries.push_back(std::move(node.entries[i]));
  }
  HT_RETURN_NOT_OK(WriteDataNode(page, left));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  const PageId right_page = rh.id();
  WriteDataNode(rh, right);
  rh.Release();

  SplitResult out;
  out.split = true;
  out.dim = ds.dim;
  out.lsp = ds.pos;
  out.rsp = ds.pos;
  out.right_page = right_page;
  out.left_live = left.ComputeLiveBr(options_.dim);
  out.right_live = right.ComputeLiveBr(options_.dim);
  return out;
}

std::unique_ptr<KdNode> HybridTree::BuildKdTree(std::vector<ChildItem> items,
                                                const Box& region) {
  HT_CHECK(!items.empty());
  if (items.size() == 1) {
    return KdNode::MakeLeaf(items[0].page,
                            els_enabled() ? codec_.Encode(items[0].live, region)
                                          : ElsCode{});
  }
  // Partition by the children's live regions: dead space contributes
  // nothing to the expected accesses, and live boxes give tighter (often
  // overlap-free) split positions. When ELS is off, live == kd region.
  std::vector<Box> live_brs;
  live_brs.reserve(items.size());
  for (const auto& it : items) live_brs.push_back(it.live);
  // Internal kd rebuild aims at balance (1/3 per side) and may use any
  // dimension; unused dimensions price themselves out via full overlap.
  std::vector<uint32_t> all_dims(options_.dim);
  for (uint32_t d = 0; d < options_.dim; ++d) all_dims[d] = d;
  const size_t min_count = std::max<size_t>(1, items.size() / 3);
  IndexSplit is = ChooseIndexSplit(region, live_brs, min_count, all_dims,
                                   options_.split_policy,
                                   options_.query_size_model,
                                   options_.expected_query_side);
  Box left_region = region;
  if (is.parts.lsp < left_region.hi(is.dim)) {
    left_region.set_hi(is.dim, is.parts.lsp);
  }
  Box right_region = region;
  if (is.parts.rsp > right_region.lo(is.dim)) {
    right_region.set_lo(is.dim, is.parts.rsp);
  }
  std::vector<ChildItem> left_items, right_items;
  left_items.reserve(is.parts.left.size());
  right_items.reserve(is.parts.right.size());
  for (uint32_t i : is.parts.left) left_items.push_back(std::move(items[i]));
  for (uint32_t i : is.parts.right) right_items.push_back(std::move(items[i]));
  auto l = BuildKdTree(std::move(left_items), left_region);
  auto r = BuildKdTree(std::move(right_items), right_region);
  return KdNode::MakeInternal(is.dim, is.parts.lsp, is.parts.rsp, std::move(l),
                              std::move(r));
}

Result<HybridTree::SplitResult> HybridTree::SplitIndexNode(PageId page,
                                                           IndexNode& node,
                                                           const Box& br) {
  std::vector<ChildRef> kids;
  kids.reserve(node.NumChildren());
  node.CollectChildren(br, &kids);
  HT_CHECK(kids.size() >= 2);
  std::vector<Box> live_brs;
  std::vector<ChildItem> items;
  live_brs.reserve(kids.size());
  items.reserve(kids.size());
  for (const auto& kid : kids) {
    Box live = els_enabled() ? codec_.Decode(kid.leaf->els, kid.kd_br)
                             : kid.kd_br;
    live_brs.push_back(live);
    items.push_back(ChildItem{kid.leaf->child, kid.kd_br, std::move(live)});
  }
  const size_t min_count = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(options_.index_node_min_util *
                                       static_cast<double>(kids.size()))));
  // Lemma 1: restrict the split dimension to the dimensions already used
  // inside this node; the choice remains EDA-optimal and guarantees that
  // non-discriminating dimensions are never introduced. Children are
  // bipartitioned by their live regions (dead space has no access cost).
  const std::vector<uint32_t> candidates = node.UsedDims(options_.dim);
  IndexSplit is = ChooseIndexSplit(br, live_brs, min_count, candidates,
                                   options_.split_policy,
                                   options_.query_size_model,
                                   options_.expected_query_side);
  HT_CHECK(is.valid);

  // The two new nodes are separate pages; their kd trees are interpreted
  // relative to the unit cube (node-local ELS references), so the parent's
  // (lsp, rsp) clip must NOT be baked into the rebuilt regions.
  const Box local_base = Box::UnitCube(options_.dim);

  std::vector<ChildItem> left_items, right_items;
  Box left_live = Box::Empty(options_.dim);
  Box right_live = Box::Empty(options_.dim);
  for (uint32_t i : is.parts.left) {
    left_live.ExtendToInclude(items[i].live);
    left_items.push_back(std::move(items[i]));
  }
  for (uint32_t i : is.parts.right) {
    right_live.ExtendToInclude(items[i].live);
    right_items.push_back(std::move(items[i]));
  }

  IndexNode left;
  left.level = node.level;
  left.root = BuildKdTree(std::move(left_items), local_base);
  IndexNode right;
  right.level = node.level;
  right.root = BuildKdTree(std::move(right_items), local_base);
  HT_CHECK(left.SerializedSize(els_in_page()) <= options_.page_size);
  HT_CHECK(right.SerializedSize(els_in_page()) <= options_.page_size);

  HT_RETURN_NOT_OK(WriteIndexNode(page, left));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  const PageId right_page = rh.id();
  rh.Release();
  HT_RETURN_NOT_OK(WriteIndexNode(right_page, right));

  SplitResult out;
  out.split = true;
  out.dim = is.dim;
  out.lsp = is.parts.lsp;
  out.rsp = is.parts.rsp;
  out.right_page = right_page;
  out.left_live = std::move(left_live);
  out.right_live = std::move(right_live);
  return out;
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

Result<std::vector<uint64_t>> HybridTree::SearchBox(const Box& query) const {
  std::vector<uint64_t> out;
  HT_RETURN_NOT_OK(SearchBoxInto(query, /*scratch=*/nullptr, &out));
  return out;
}

Status HybridTree::SearchBoxInto(const Box& query, SearchScratch* scratch,
                                 std::vector<uint64_t>* out) const {
  SharedRole role(&rw_contract_);
  if (query.dim() != options_.dim) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  out->clear();
  SearchScratch local;
  if (scratch == nullptr) scratch = &local;
  scratch->stack.clear();
  scratch->descents.clear();
  return SearchBoxRec(root_, query, /*contained=*/false, scratch, out);
}

Status HybridTree::SearchBoxRec(PageId page, const Box& query, bool contained,
                                SearchScratch* scratch,
                                std::vector<uint64_t>* out) const {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  const NodeKind kind = PeekNodeKind(h.data());
  if (kind == NodeKind::kData) {
    DataPageScan scan(h.data(), h.size(), options_.dim);
    if (!scan.ok()) return Status::Corruption("expected data node page");
    const size_t n = scan.count();
    if (contained) {
      // Scan-level pruning: an ancestor's live box was fully inside the
      // query, so every entry qualifies — collect ids without per-point
      // containment tests.
      for (size_t i = 0; i < n; ++i) out->push_back(scan.id(i));
      return Status::OK();
    }
    for (size_t i = 0; i < n; ++i) {
      if (query.ContainsPoint(scan.vec(i))) out->push_back(scan.id(i));
    }
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(std::shared_ptr<const IndexNode> node,
                      ReadIndexNodeCached(page, h.data(), h.size()));
  h.Release();

  // Intra-node search is 1-d interval tests on the kd tree (the paper's
  // CPU advantage: lsp/rsp prune whole kd subtrees of a box query); the
  // §3.4 two-step check reads the leaf's decoded live box from the node's
  // leaf table. Iterative preorder (left first, matching the
  // recursive formulation) over the shared scratch stack: this level only
  // pops entries above its own base, so nested page descents can reuse the
  // same stack. Qualifying children are collected first and descended
  // second, so the whole batch can be prefetched in one round trip; the
  // descent order is the walk's preorder, keeping results byte-identical
  // with prefetch on or off.
  const LeafTable& leaves = node->leaves;
  auto& stack = scratch->stack;
  auto& descents = scratch->descents;
  const size_t base = stack.size();
  const size_t dbase = descents.size();
  stack.push_back(node->root.get());
  while (stack.size() > base) {
    const KdNode* n = stack.back();
    stack.pop_back();
    if (n->IsLeaf()) {
      bool child_contained = contained;
      if (!contained) {
        if (els_enabled() && !leaves.QueryIntersects(query, n->row)) continue;
        // The table row is the decoded live box (ELS on) or the kd region
        // (ELS off); either way all data below lies inside it, so full
        // containment lets the whole subtree skip per-point tests.
        child_contained = !options_.disable_batch_kernels &&
                          leaves.QueryContains(query, n->row);
      }
      descents.push_back(SearchScratch::Descent{n->child, child_contained});
      continue;
    }
    const uint32_t d = n->split_dim;
    // Push right before left so the left subtree is processed first.
    if (contained || query.hi(d) >= n->rsp) stack.push_back(n->right.get());
    if (contained || query.lo(d) <= n->lsp) stack.push_back(n->left.get());
  }
  if (options_.prefetch_depth > 0 && descents.size() - dbase > 1) {
    auto& ids = scratch->prefetch_ids;
    ids.clear();
    for (size_t i = dbase; i < descents.size(); ++i) {
      ids.push_back(descents[i].page);
    }
    pool_->Prefetch(ids);
  }
  for (size_t i = dbase; i < descents.size(); ++i) {
    const Status st = SearchBoxRec(descents[i].page, query,
                                   descents[i].contained, scratch, out);
    if (!st.ok()) {
      descents.resize(dbase);  // drop this level's pending entries
      return st;
    }
  }
  descents.resize(dbase);
  return Status::OK();
}

Result<std::vector<uint64_t>> HybridTree::SearchPoint(
    std::span<const float> point) const {
  if (point.size() != options_.dim) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  return SearchBox(Box::FromPoint(point));
}

Result<uint64_t> HybridTree::CountBox(const Box& query) const {
  HT_ASSIGN_OR_RETURN(auto ids, SearchBox(query));
  return static_cast<uint64_t>(ids.size());
}

Status HybridTree::ScanAll(
    const std::function<void(uint64_t, std::span<const float>)>& visit) const {
  SharedRole role(&rw_contract_);
  // A full sweep is the canonical one-touch stream: tag it kScan so the
  // SLRU pool admits its pages to the probationary segment only and the
  // query working set survives (see storage/buffer_pool.h).
  AccessClassScope ac(AccessClass::kScan);
  return ScanAllRec(root_, visit);
}

Status HybridTree::ScanAllRec(
    PageId page,
    const std::function<void(uint64_t, std::span<const float>)>& visit) const {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  const NodeKind kind = PeekNodeKind(h.data());
  if (kind == NodeKind::kData) {
    DataPageScan scan(h.data(), h.size(), options_.dim);
    if (!scan.ok()) return Status::Corruption("expected data node page");
    for (size_t i = 0; i < scan.count(); ++i) {
      visit(scan.id(i), scan.vec(i));
    }
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(std::shared_ptr<const IndexNode> node,
                      ReadIndexNodeCached(page, h.data(), h.size()));
  h.Release();
  // Read-ahead: an index node commits to visiting every child, so batch
  // the whole fanout into one prefetch round trip before descending
  // (bulk-loaded trees allocate children contiguously, so this coalesces
  // into sequential vectored reads).
  const std::vector<PageId>& children = node->leaves.child;
  if (options_.prefetch_depth > 0 && children.size() > 1) {
    pool_->Prefetch(children);
  }
  for (PageId child : children) HT_RETURN_NOT_OK(ScanAllRec(child, visit));
  return Status::OK();
}

Result<std::vector<uint64_t>> HybridTree::SearchRange(
    std::span<const float> center, double radius,
    const DistanceMetric& metric) const {
  std::vector<uint64_t> out;
  HT_RETURN_NOT_OK(
      SearchRangeInto(center, radius, metric, /*scratch=*/nullptr, &out));
  return out;
}

Status HybridTree::SearchRangeInto(std::span<const float> center,
                                   double radius,
                                   const DistanceMetric& metric,
                                   SearchScratch* scratch,
                                   std::vector<uint64_t>* out) const {
  SharedRole role(&rw_contract_);
  if (center.size() != options_.dim) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  out->clear();
  SearchScratch local;
  if (scratch == nullptr) scratch = &local;
  scratch->descents.clear();
  return SearchRangeRec(root_, center, radius, metric, scratch, out);
}

namespace {

// Bounded distances for all `n` rows of a data page into `dist`. Prefers
// the sidecar's transposed float mirror (one contiguous load per dimension
// per block instead of a per-row gather); the count % kTBlock tail rows
// stay on the page block and are computed exactly. The mirror holds the
// same float values the page does and the kernels replay the same
// accumulation order, so the two paths agree bit-for-bit wherever the
// bound does not abandon a row — and an abandoned row's output (+inf) and
// its exact distance compare identically against any threshold <= bound.
void BatchPageDistances(const DistanceMetric& metric,
                        std::span<const float> center, const QuantizedPage* qp,
                        const float* blk, size_t stride, size_t n,
                        double bound, double* dist) {
  const size_t nblocks = qp != nullptr ? qp->full_blocks() : 0;
  if (nblocks > 0 && metric.BatchDistanceTransposedWithBound(
                         center, qp->tfloats(), nblocks, bound, dist)) {
    for (size_t i = nblocks * kernels::kTBlock; i < n; ++i) {
      dist[i] = metric.Distance(
          center, std::span<const float>(blk + i * stride, center.size()));
    }
    return;
  }
  metric.BatchDistanceWithBound(center, blk, stride, n, bound, dist);
}

}  // namespace

const double* HybridTree::LeafMinDists(const LeafTable& leaves,
                                       std::span<const float> center,
                                       const DistanceMetric& metric,
                                       SearchScratch* scratch) {
  const size_t n = leaves.size();
  if (scratch->mindist.size() < n) scratch->mindist.resize(n);
  metric.BatchMinDistToBoxes(center, leaves.lo.data(), leaves.hi.data(), n,
                             &scratch->box, scratch->mindist.data());
  return scratch->mindist.data();
}

const QuantizedPage* HybridTree::UsableSidecar(
    PageId page, const DistanceMetric& metric) const {
  // At the scalar dispatch tier the sidecars are pure overhead: the scalar
  // code pass costs more per row than the early-abandoning exact scan it
  // would save, and the transposed float mirror only accelerates SIMD
  // loads. So a scalar-tier scan (no SIMD on this host, or HT_SIMD=scalar)
  // runs exactly the pre-sidecar hot path and reads every page it visits.
  // A metric with no code-space machinery (SupportsCodeFilter false, e.g.
  // the QuadraticForm fallback) takes the same exit.
  if (!options_.quant_sidecars || options_.disable_batch_kernels ||
      !metric.SupportsCodeFilter() ||
      kernels::ActiveTier() == kernels::SimdTier::kScalar) {
    return nullptr;
  }
  return quant_store_.Lookup(page);
}

size_t HybridTree::CodeMasks(const QuantizedPage& qp,
                             std::span<const float> center,
                             const DistanceMetric& metric, double bound,
                             SearchScratch* scratch) {
  // Code filtering is pointless when the bound prunes nothing (k-NN heap
  // not yet full): every row would survive.
  if (bound >= std::numeric_limits<double>::max()) return 0;
  const size_t nmask = (qp.count() + kernels::kTBlock - 1) / kernels::kTBlock;
  if (scratch->masks.size() < nmask) scratch->masks.resize(nmask);
  // The fused mask kernels decide survival in-register and hand back one
  // bit per row — on a 99%-pruned scan the decode touches one mostly-zero
  // byte per 8 rows instead of 8 double bounds.
  return metric.CodeFilterMasks(center, qp.view(), bound, &scratch->quant,
                                scratch->masks.data())
             ? nmask
             : 0;
}

bool HybridTree::SidecarRulesOut(PageId page, std::span<const float> center,
                                 const DistanceMetric& metric, double bound,
                                 SearchScratch* scratch) const {
  const QuantizedPage* qp = UsableSidecar(page, metric);
  const size_t nmask =
      qp != nullptr ? CodeMasks(*qp, center, metric, bound, scratch) : 0;
  return nmask > 0 &&
         std::all_of(scratch->masks.begin(),
                     scratch->masks.begin() + static_cast<ptrdiff_t>(nmask),
                     [](uint8_t m) { return m == 0; });
}

template <typename Visit>
Status HybridTree::ScanDataPage(PageId page, const QuantizedPage* qp,
                                PageHandle h, std::span<const float> center,
                                const DistanceMetric& metric, double bound,
                                std::span<const PageId> readahead,
                                SearchScratch* scratch, bool cursor_path,
                                Visit&& visit) const {
  // Survivors in ascending row order, so refinement replays the exact
  // per-row decision sequence of the unfiltered scan.
  auto& surv = scratch->survivors;
  const size_t nmask =
      qp != nullptr ? CodeMasks(*qp, center, metric, bound, scratch) : 0;
  const bool filtered = nmask > 0;
  if (filtered) {
    surv.clear();
    for (size_t b = 0; b < nmask; ++b) {
      unsigned m = scratch->masks[b];
      while (m != 0) {
        surv.push_back(static_cast<uint32_t>(
            b * kernels::kTBlock + static_cast<size_t>(std::countr_zero(m))));
        m &= m - 1;
      }
    }
    pool_->CountScan(page, qp->count(), surv.size(), /*filtered=*/true,
                     cursor_path);
    // The sidecar rules out every row: the page itself is never read.
    if (surv.empty()) return Status::OK();
  }
  if (!h.valid()) {
    if (!readahead.empty()) pool_->Prefetch(readahead);
    HT_ASSIGN_OR_RETURN(h, pool_->Fetch(page));
  }
  DataPageScan scan(h.data(), h.size(), options_.dim);
  if (!scan.ok()) return Status::Corruption("expected data node page");
  const size_t n = scan.count();
  const float* blk = options_.disable_batch_kernels ? nullptr : scan.block();
  if (qp != nullptr && (n != qp->count() || blk == nullptr)) {
    return Status::Corruption("quantized sidecar does not match its page");
  }
  if (!filtered) pool_->CountScan(page, n, n, /*filtered=*/false, cursor_path);
  if (filtered && surv.size() * 4 <= n) {
    // Sparse survivor sets refine row by row (Distance() accumulates
    // exactly like an unabandoned kernel row).
    for (const uint32_t i : surv) {
      visit(metric.Distance(center, scan.vec(i)), scan.id(i));
    }
    return Status::OK();
  }
  if (blk == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      visit(metric.Distance(center, scan.vec(i)), scan.id(i));
    }
    return Status::OK();
  }
  // One batch kernel call for the whole page (dense survivor sets too:
  // cheaper than many strided scalar rows). Rows whose partial sum
  // exceeds `bound` are abandoned; their output is above `bound`, which
  // is all a visitor may look at for them.
  if (scratch->dist.size() < n) scratch->dist.resize(n);
  BatchPageDistances(metric, center, qp, blk, scan.stride_floats(), n, bound,
                     scratch->dist.data());
  const double* dist = scratch->dist.data();
  if (filtered) {
    for (const uint32_t i : surv) visit(dist[i], scan.id(i));
  } else {
    for (size_t i = 0; i < n; ++i) visit(dist[i], scan.id(i));
  }
  return Status::OK();
}

Status HybridTree::SearchRangeRec(PageId page, std::span<const float> center,
                                  double radius, const DistanceMetric& metric,
                                  SearchScratch* scratch,
                                  std::vector<uint64_t>* out) const {
  // Rows the code filter prunes lie beyond the radius and could not have
  // been reported; survivors are tested exactly like the unfiltered scan,
  // so `out` is byte-identical either way.
  const auto report = [out, radius](double d, uint64_t id) {
    if (d <= radius) out->push_back(id);
  };
  if (const QuantizedPage* qp = UsableSidecar(page, metric)) {
    return ScanDataPage(page, qp, PageHandle(), center, metric, radius, {},
                        scratch, /*cursor_path=*/false, report);
  }
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  if (PeekNodeKind(h.data()) == NodeKind::kData) {
    return ScanDataPage(page, nullptr, std::move(h), center, metric, radius,
                        {}, scratch, /*cursor_path=*/false, report);
  }
  HT_ASSIGN_OR_RETURN(std::shared_ptr<const IndexNode> node,
                      ReadIndexNodeCached(page, h.data(), h.size()));
  h.Release();

  // Pruning happens only at the leaves' live boxes (MINDIST > radius):
  // internal kd nodes would merely route a walk to every leaf, so one
  // batched MINDIST call over the leaf table replaces it. As in
  // SearchBoxRec, children are collected in preorder (the table's row
  // order), batch-prefetched, then descended.
  const LeafTable& leaves = node->leaves;
  const double* mindist = LeafMinDists(leaves, center, metric, scratch);
  auto& descents = scratch->descents;
  const size_t dbase = descents.size();
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (mindist[i] > radius) continue;
    descents.push_back(SearchScratch::Descent{leaves.child[i], false});
  }
  if (options_.prefetch_depth > 0 && descents.size() - dbase > 1) {
    // Data pages whose sidecar rules out every row will not be read, so
    // they are not prefetched either.
    auto& ids = scratch->prefetch_ids;
    ids.clear();
    for (size_t i = dbase; i < descents.size(); ++i) {
      if (!SidecarRulesOut(descents[i].page, center, metric, radius,
                           scratch)) {
        ids.push_back(descents[i].page);
      }
    }
    if (ids.size() > 1) pool_->Prefetch(ids);
  }
  for (size_t i = dbase; i < descents.size(); ++i) {
    const Status st = SearchRangeRec(descents[i].page, center, radius, metric,
                                     scratch, out);
    if (!st.ok()) {
      descents.resize(dbase);
      return st;
    }
  }
  descents.resize(dbase);
  return Status::OK();
}

Result<std::vector<std::pair<double, uint64_t>>> HybridTree::SearchKnn(
    std::span<const float> center, size_t k,
    const DistanceMetric& metric) const {
  return SearchKnnApprox(center, k, metric, /*epsilon=*/0.0);
}

Result<std::vector<std::pair<double, uint64_t>>> HybridTree::SearchKnnApprox(
    std::span<const float> center, size_t k, const DistanceMetric& metric,
    double epsilon) const {
  std::vector<std::pair<double, uint64_t>> out;
  HT_RETURN_NOT_OK(
      SearchKnnApproxInto(center, k, metric, epsilon, /*scratch=*/nullptr,
                          &out));
  return out;
}

Status HybridTree::SearchKnnInto(
    std::span<const float> center, size_t k, const DistanceMetric& metric,
    SearchScratch* scratch,
    std::vector<std::pair<double, uint64_t>>* out) const {
  return SearchKnnBoundedInto(center, k, metric, KnnSearchLimits{}, scratch,
                              out);
}

Status HybridTree::SearchKnnApproxInto(
    std::span<const float> center, size_t k, const DistanceMetric& metric,
    double epsilon, SearchScratch* scratch,
    std::vector<std::pair<double, uint64_t>>* out) const {
  KnnSearchLimits limits;
  limits.epsilon = epsilon;
  return SearchKnnBoundedInto(center, k, metric, limits, scratch, out);
}

Status HybridTree::SearchKnnBoundedInto(
    std::span<const float> center, size_t k, const DistanceMetric& metric,
    const KnnSearchLimits& limits, SearchScratch* scratch,
    std::vector<std::pair<double, uint64_t>>* out,
    KnnSearchInfo* info) const {
  SharedRole role(&rw_contract_);
  if (info != nullptr) *info = KnnSearchInfo{};
  if (center.size() != options_.dim) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (limits.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be non-negative");
  }
  out->clear();
  if (k == 0 || count_ == 0) return Status::OK();
  SearchScratch local;
  if (scratch == nullptr) scratch = &local;
  const double epsilon = limits.epsilon;
  const double prune_factor = 1.0 + epsilon;
  const bool eps_active = epsilon > 0.0;
  // 0 = unlimited maps to a budget the visit counter can never reach, so
  // the exact path executes the identical instruction sequence with one
  // never-taken branch per leaf.
  const size_t max_leaves = limits.max_leaf_visits == 0
                                ? std::numeric_limits<size_t>::max()
                                : limits.max_leaf_visits;
  uint64_t leaf_visits = 0;
  bool early_terminated = false;

  // Best-first branch-and-bound (Hjaltason–Samet): a min-heap of pending
  // subtrees ordered by MINDIST to their live region, and a bounded
  // max-heap of the best k candidates seen so far. Both heaps live in the
  // scratch (vector-backed push_heap/pop_heap — operation-for-operation
  // identical to std::priority_queue, but the backing stores are reused
  // across queries).
  auto& frontier = scratch->frontier;
  frontier.clear();
  frontier.push_back(SearchScratch::PageRef{0.0, root_});
  const auto frontier_gt = [](const SearchScratch::PageRef& a,
                              const SearchScratch::PageRef& b) {
    return a.dist > b.dist;
  };

  auto& best = scratch->best;
  best.clear();
  auto kth = [&]() {
    return best.size() < k ? std::numeric_limits<double>::max()
                           : best.front().first;
  };
  auto offer = [&](double d, uint64_t id) {
    if (best.size() < k) {
      best.emplace_back(d, id);
      std::push_heap(best.begin(), best.end());
    } else if (d < best.front().first ||
               (d == best.front().first && id < best.front().second)) {
      std::pop_heap(best.begin(), best.end());
      best.back() = std::make_pair(d, id);
      std::push_heap(best.begin(), best.end());
    }
  };

  const size_t prefetch_depth = options_.prefetch_depth;
  const auto frontier_lt = [](const SearchScratch::PageRef& a,
                              const SearchScratch::PageRef& b) {
    return a.dist < b.dist;
  };

  while (!frontier.empty() && frontier.front().dist * prune_factor <= kth()) {
    std::pop_heap(frontier.begin(), frontier.end(), frontier_gt);
    const SearchScratch::PageRef item = frontier.back();
    frontier.pop_back();
    // The bound at page entry is the k-th distance before this page; it
    // can only shrink while scanning, so a row the filter prunes or the
    // kernel abandons against it could never have entered the heap (and
    // while the heap is not full the bound is +max: nothing is filtered or
    // abandoned). A pruned row's true distance is strictly above every
    // bound the heap holds during this page, so its offer would have been
    // a no-op — the replacement test is a strict `<`, and the id
    // tie-break needs d == kth, excluded by strictness. Offering only the
    // survivors (ascending) therefore replays the exact heap evolution.
    const QuantizedPage* qp = UsableSidecar(item.page, metric);
    auto& ids = scratch->prefetch_ids;
    ids.clear();
    if (prefetch_depth > 0 && !pool_->Cached(item.page)) {
      // Frontier-driven prefetch: batch the popped page with the next-best
      // prefetch_depth frontier pages that survive the current prune bound
      // (they are the pages the traversal will pop next unless the bound
      // tightens) and that their sidecars do not rule out. Gated on the
      // popped page missing the pool: while the traversal pops pages a
      // previous batch brought in, no I/O is issued at all, so blocking
      // round trips collapse to roughly pops / (depth + 1) instead of one
      // per pop. The batch is issued only if the popped page is read.
      ids.push_back(item.page);
      auto& top = scratch->prefetch_top;
      const size_t b = std::min(prefetch_depth, frontier.size());
      if (b > 0) {
        top.resize(b);
        std::partial_sort_copy(frontier.begin(), frontier.end(), top.begin(),
                               top.end(), frontier_lt);
        const double bound = kth();
        for (const auto& r : top) {
          if (r.dist * prune_factor <= bound &&
              !SidecarRulesOut(r.page, center, metric, bound, scratch)) {
            ids.push_back(r.page);
          }
        }
      }
    }
    PageHandle h;
    if (qp == nullptr) {
      // Not known to be a data page: read it to find out.
      if (!ids.empty()) pool_->Prefetch(ids);
      ids.clear();
      HT_ASSIGN_OR_RETURN(h, pool_->Fetch(item.page));
    }
    if (qp != nullptr || PeekNodeKind(h.data()) == NodeKind::kData) {
      HT_RETURN_NOT_OK(ScanDataPage(item.page, qp, std::move(h), center,
                                    metric, kth(), ids, scratch,
                                    /*cursor_path=*/false, offer));
      ++leaf_visits;
      if (leaf_visits >= max_leaves) {
        // Budget exhausted: stop with the best candidates so far. It
        // counts as early termination only if the frontier still holds a
        // subtree the exact traversal would have visited.
        early_terminated = !frontier.empty() && frontier.front().dist <= kth();
        break;
      }
      continue;
    }
    HT_ASSIGN_OR_RETURN(std::shared_ptr<const IndexNode> node,
                        ReadIndexNodeCached(item.page, h.data(), h.size()));
    h.Release();
    // One batched MINDIST call covers every leaf of the node. Rows are in
    // kd preorder (left first), so the frontier receives its pushes in the
    // order the recursive formulation makes them; kth() cannot move here
    // (only page scans offer candidates).
    const LeafTable& leaves = node->leaves;
    const double* mindist = LeafMinDists(leaves, center, metric, scratch);
    const double bound = kth();
    for (size_t i = 0; i < leaves.size(); ++i) {
      const double d = mindist[i];
      if (d * prune_factor <= bound) {
        frontier.push_back(SearchScratch::PageRef{d, leaves.child[i]});
        std::push_heap(frontier.begin(), frontier.end(), frontier_gt);
      } else if (eps_active && d <= bound) {
        // The epsilon rule skipped a subtree the exact gate would have
        // admitted — the result is now (1+epsilon)-approximate.
        early_terminated = true;
      }
    }
  }
  // Natural loop exit under epsilon: if the frontier's best subtree passes
  // the exact gate but failed the epsilon gate, the stop was approximate.
  if (eps_active && !frontier.empty() && frontier.front().dist <= kth()) {
    early_terminated = true;
  }
  if (info != nullptr) {
    info->leaf_visits = leaf_visits;
    info->early_terminated = early_terminated;
  }

  out->resize(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    (*out)[i] = best.front();
    std::pop_heap(best.begin(), best.end());
    best.pop_back();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

Status HybridTree::Delete(std::span<const float> point, uint64_t id) {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kIngest);
  if (point.size() != options_.dim) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  HT_ASSIGN_OR_RETURN(
      DeleteOutcome outcome,
      DeleteRec(root_, Box::UnitCube(options_.dim), point, id));
  if (!outcome.found) {
    return Status::NotFound("no entry matches (point, id)");
  }
  --count_;

  if (outcome.eliminate_me) {
    // The root itself collapsed. Reset it to an empty data node and
    // reinsert the orphans below.
    DataNode empty;
    HT_RETURN_NOT_OK(WriteDataNode(root_, empty));
    els_sidecar_.erase(root_);
    InvalidateCachedNode(root_);
    height_ = 0;
  } else {
    // Shrink the tree while the root is an index node with one child.
    for (;;) {
      HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(root_));
      if (kind != NodeKind::kIndex) break;
      HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(root_));
      if (!node.root->IsLeaf()) break;
      const PageId child = node.root->child;
      els_sidecar_.erase(root_);
      InvalidateCachedNode(root_);
      HT_RETURN_NOT_OK(pool_->Free(root_));
      root_ = child;
      --height_;
    }
  }

  // Reinsert orphans from eliminated nodes (eliminate-and-reinsert, §3.5).
  count_ -= outcome.orphans.size();
  for (auto& e : outcome.orphans) {
    HT_RETURN_NOT_OK(Insert(e.vec, e.id));
  }
  DebugValidate();
  return Status::OK();
}

Result<HybridTree::DeleteOutcome> HybridTree::DeleteRec(
    PageId page, const Box& br, std::span<const float> point, uint64_t id) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  DeleteOutcome out;
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const auto& e = node.entries[i];
      if (e.id == id && std::equal(e.vec.begin(), e.vec.end(), point.begin(),
                                   point.end())) {
        node.entries.erase(node.entries.begin() + static_cast<long>(i));
        out.found = true;
        break;
      }
    }
    if (!out.found) return out;
    const bool is_root = (page == root_);
    if (!is_root && node.entries.size() < data_min_count_) {
      out.eliminate_me = true;
      out.orphans = std::move(node.entries);
    } else {
      HT_RETURN_NOT_OK(WriteDataNode(page, node));
    }
    return out;
  }

  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  std::vector<ChildRef> kids;
  kids.reserve(node.NumChildren());
  node.CollectChildren(br, &kids);
  for (const auto& kid : kids) {
    if (!kid.kd_br.ContainsPoint(point)) continue;
    if (els_enabled()) {
      const Box live = codec_.Decode(kid.leaf->els, kid.kd_br);
      if (!live.ContainsPoint(point)) continue;
    }
    HT_ASSIGN_OR_RETURN(
        DeleteOutcome child,
        DeleteRec(kid.leaf->child, Box::UnitCube(options_.dim), point, id));
    if (!child.found) continue;
    out.found = true;
    out.orphans = std::move(child.orphans);
    if (child.eliminate_me) {
      els_sidecar_.erase(kid.leaf->child);
      InvalidateCachedNode(kid.leaf->child);
      quant_store_.Put(kid.leaf->child, nullptr);
      HT_RETURN_NOT_OK(pool_->Free(kid.leaf->child));
      if (kid.leaf == node.root.get()) {
        // Last child gone: eliminate this node too (parent frees the page).
        out.eliminate_me = true;
        return out;
      }
      HT_CHECK(RemoveKdLeaf(node, br, kid.leaf));
      HT_RETURN_NOT_OK(WriteIndexNode(page, node));
    }
    // A delete that eliminates no child leaves this node as it was: ELS
    // codes never shrink on delete (RebuildEls re-tightens them).
    return out;
  }
  return out;
}

bool HybridTree::RemoveKdLeaf(IndexNode& node, const Box& node_br,
                              KdNode* target) {
  std::function<bool(std::unique_ptr<KdNode>&, const Box&)> rec =
      [&](std::unique_ptr<KdNode>& n, const Box& br) -> bool {
    if (n->IsLeaf()) return false;
    if (n->left.get() == target) {
      // The sibling subtree inherits the whole parent region (its leaf
      // regions widen); re-map its ELS codes.
      const Box old_br = KdRightBr(br, *n);
      auto sib = std::move(n->right);
      ReencodeSubtree(sib.get(), old_br, br);
      n = std::move(sib);
      return true;
    }
    if (n->right.get() == target) {
      const Box old_br = KdLeftBr(br, *n);
      auto sib = std::move(n->left);
      ReencodeSubtree(sib.get(), old_br, br);
      n = std::move(sib);
      return true;
    }
    return rec(n->left, KdLeftBr(br, *n)) || rec(n->right, KdRightBr(br, *n));
  };
  if (node.root.get() == target) return false;
  return rec(node.root, node_br);
}

// ---------------------------------------------------------------------------
// Maintenance: ELS rebuild, stats, invariants
// ---------------------------------------------------------------------------

Status HybridTree::RebuildEls() {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kScan);
  if (!els_enabled()) return Status::OK();
  HT_RETURN_NOT_OK(RebuildDirectoryRec(root_, height_, /*els=*/true).status());
  DebugValidate();
  return Status::OK();
}

Status HybridTree::LoadDirectory() {
  // Neither the sidecars nor in-memory ELS codes are persisted.
  const bool els = els_enabled() && !els_in_page();
  if (!els && !options_.quant_sidecars) return Status::OK();
  AccessClassScope ac(AccessClass::kScan);
  return RebuildDirectoryRec(root_, height_, els).status();
}

Result<Box> HybridTree::RebuildDirectoryRec(PageId page, uint32_t level,
                                            bool els) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  const NodeKind kind = PeekNodeKind(h.data());
  if (kind == NodeKind::kMeta) {
    return Status::Corruption("page " + std::to_string(page) +
                              ": meta page inside the tree");
  }
  if ((kind == NodeKind::kData) != (level == 0)) {
    return Status::Corruption("page " + std::to_string(page) +
                              ": node kind does not match level " +
                              std::to_string(level));
  }
  if (kind == NodeKind::kData) {
    const uint32_t dim = options_.dim;
    DataPageScan scan(h.data(), h.size(), dim);
    if (!scan.ok()) return Status::Corruption("expected data node page");
    std::unique_ptr<const QuantizedPage> qp;
    if (options_.quant_sidecars) {
      qp = BuildDataPageSidecar(h.data(), h.size(), dim);
    }
    Box live = Box::Empty(dim);
    if (qp != nullptr) {
      // The sidecar's grid is the page's exact live box.
      live = Box::FromBounds(qp->grid_lo(), qp->grid_hi());
    } else {
      for (size_t i = 0; i < scan.count(); ++i) {
        live.ExtendToInclude(scan.vec(i));
      }
    }
    quant_store_.Put(page, std::move(qp));
    return live;
  }
  h.Release();
  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  Box node_live = Box::Empty(options_.dim);
  // Read-ahead for the Open()-path DFS: every child will be visited, so
  // batch the fanout into one round trip before recursing.
  if (options_.prefetch_depth > 0) {
    std::vector<PageId> children;
    std::function<void(const KdNode*)> collect = [&](const KdNode* n) {
      if (n->IsLeaf()) {
        children.push_back(n->child);
        return;
      }
      collect(n->left.get());
      collect(n->right.get());
    };
    collect(node.root.get());
    if (children.size() > 1) pool_->Prefetch(children);
  }
  bool changed = false;
  HT_RETURN_NOT_OK(RebuildDirectoryKd(node.root.get(),
                                      Box::UnitCube(options_.dim), level, els,
                                      &node_live, &changed));
  // Only codes can have changed. In memory they are recorded without
  // touching the page; in the page they need a rewrite.
  if (changed && els_in_page()) {
    HT_RETURN_NOT_OK(WriteIndexNode(page, node));
  } else if (changed) {
    StoreElsCodes(page, node);
  }
  return node_live;
}

Status HybridTree::RebuildDirectoryKd(KdNode* n, const Box& nbr,
                                      uint32_t level, bool els,
                                      Box* node_live, bool* changed) {
  if (n->IsLeaf()) {
    HT_ASSIGN_OR_RETURN(Box child_live,
                        RebuildDirectoryRec(n->child, level - 1, els));
    if (els) {
      ElsCode code = codec_.Encode(child_live, nbr);
      if (code != n->els) {
        n->els = std::move(code);
        *changed = true;
      }
    }
    node_live->ExtendToInclude(child_live);
    return Status::OK();
  }
  HT_RETURN_NOT_OK(RebuildDirectoryKd(n->left.get(), KdLeftBr(nbr, *n), level,
                                      els, node_live, changed));
  return RebuildDirectoryKd(n->right.get(), KdRightBr(nbr, *n), level, els,
                            node_live, changed);
}

Result<TreeStats> HybridTree::ComputeStats() {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kScan);
  TreeStats stats;
  stats.entry_count = count_;
  stats.height = height_;
  double data_util_sum = 0.0;
  HT_RETURN_NOT_OK(ComputeStatsRec(root_, Box::UnitCube(options_.dim), &stats,
                                   &data_util_sum));
  if (stats.data_nodes > 0) {
    stats.avg_data_utilization =
        data_util_sum / static_cast<double>(stats.data_nodes);
  }
  if (stats.index_nodes > 0) {
    stats.avg_index_fanout /= static_cast<double>(stats.index_nodes);
  }
  if (stats.overlapping_kd_splits > 0) {
    stats.avg_overlap_fraction /=
        static_cast<double>(stats.overlapping_kd_splits);
  }
  for (const auto& [pid, blob] : els_sidecar_) {
    stats.els_sidecar_bytes += blob.size();
  }
  std::sort(stats.levels.begin(), stats.levels.end(),
            [](const LevelStats& a, const LevelStats& b) {
              return a.level > b.level;
            });
  for (auto& lv : stats.levels) {
    lv.avg_fanout = lv.nodes
                        ? static_cast<double>(lv.children) /
                              static_cast<double>(lv.nodes)
                        : 0.0;
  }
  return stats;
}

Status HybridTree::ComputeStatsRec(PageId page, const Box& br,
                                   TreeStats* stats, double* data_util_sum) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  auto level_slot = [&](uint32_t level) -> LevelStats& {
    for (auto& lv : stats->levels) {
      if (lv.level == level) return lv;
    }
    stats->levels.push_back(LevelStats{level, 0, 0, 0.0});
    return stats->levels.back();
  };
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    LevelStats& lv = level_slot(0);
    ++lv.nodes;
    lv.children += node.entries.size();
    ++stats->data_nodes;
    const double util = static_cast<double>(node.entries.size()) /
                        static_cast<double>(data_capacity_);
    *data_util_sum += util;
    if (page != root_ && util < stats->min_data_utilization) {
      stats->min_data_utilization = util;
    }
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  ++stats->index_nodes;
  LevelStats& lv = level_slot(node.level);
  ++lv.nodes;
  lv.children += node.NumChildren();
  stats->avg_index_fanout += static_cast<double>(node.NumChildren());
  return ComputeStatsKd(node.root.get(), br, stats, data_util_sum);
}

Status HybridTree::ComputeStatsKd(const KdNode* n, const Box& nbr,
                                  TreeStats* stats, double* data_util_sum) {
  if (n->IsLeaf()) {
    return ComputeStatsRec(n->child, Box::UnitCube(options_.dim), stats,
                           data_util_sum);
  }
  ++stats->kd_internal_nodes;
  if (n->lsp > n->rsp) {
    ++stats->overlapping_kd_splits;
    const double extent = nbr.Extent(n->split_dim);
    if (extent > 0) {
      stats->avg_overlap_fraction +=
          (static_cast<double>(n->lsp) - n->rsp) / extent;
    }
  }
  HT_RETURN_NOT_OK(ComputeStatsKd(n->left.get(), KdLeftBr(nbr, *n), stats,
                                  data_util_sum));
  return ComputeStatsKd(n->right.get(), KdRightBr(nbr, *n), stats,
                        data_util_sum);
}

Status HybridTree::CheckInvariants() {
  AccessClassScope ac(AccessClass::kScan);
  // The checks live in TreeValidator (src/core/validator.h), which is
  // strictly stronger than the old in-class walk: it also verifies ELS
  // conservativeness against exact subtree live boxes, the codec
  // round-trip contract, child-page uniqueness, and pin accounting.
  TreeValidator validator(this);
  return validator.Validate();
}

void HybridTree::DebugValidate() {
#ifdef HT_DEBUG_VALIDATE
  TreeValidator validator(this);
  HT_CHECK_OK(validator.Validate());
#endif
}

Status HybridTree::DebugValidateDirectory() {
#ifdef HT_DEBUG_VALIDATE
  ValidateOptions opts;
  opts.structure = false;
  opts.els = false;
  opts.occupancy = false;
  TreeValidator validator(this, opts);
  return validator.Validate();
#else
  return Status::OK();
#endif
}

HybridTree::KnnCursor::KnnCursor(const HybridTree* tree,
                                 std::span<const float> center,
                                 const DistanceMetric* metric,
                                 const KnnCursorOptions& opts)
    : tree_(tree),
      center_(center.begin(), center.end()),
      metric_(metric),
      opts_(opts) {
  if (opts_.limit > 0) best_.reserve(opts_.limit);
  if (tree_->count_ > 0) {
    queue_.push(Item{0.0, false, 0, tree_->root_});
  }
}

double HybridTree::KnnCursor::SelfBound() const {
  return (opts_.limit > 0 && best_.size() == opts_.limit)
             ? best_.front()
             : std::numeric_limits<double>::max();
}

double HybridTree::KnnCursor::ScanBound() const {
  double b = SelfBound();
  if (opts_.shared_bound != nullptr) {
    // Relaxed: a monotonically tightening pruning hint with no associated
    // data — a stale (too large) radius only weakens pruning, never
    // correctness (the same contract as serve's SharedTopK bound mirror).
    b = std::min(b, opts_.shared_bound->load(std::memory_order_relaxed));
  }
  return b;
}

double HybridTree::KnnCursor::ExpandBound() const {
  // With an approximation knob active, WHICH leaves get scanned decides
  // the result (the budget truncates the stream), so expansion may only
  // consult the deterministic self bound — never the racy cross-shard
  // radius. In fully exact mode any sound bound is fair game: a pruned
  // subtree provably cannot contribute to the declared-limit prefix.
  if (opts_.epsilon == 0.0 && opts_.max_leaf_visits == 0) return ScanBound();
  return SelfBound();
}

void HybridTree::KnnCursor::RecordEntry(double d) {
  if (opts_.limit == 0) return;
  if (best_.size() < opts_.limit) {
    best_.push_back(d);
    std::push_heap(best_.begin(), best_.end());
  } else if (d < best_.front()) {
    std::pop_heap(best_.begin(), best_.end());
    best_.back() = d;
    std::push_heap(best_.begin(), best_.end());
  }
}

HybridTree::KnnCursor HybridTree::OpenKnnCursor(
    std::span<const float> center, const DistanceMetric& metric) const {
  return OpenKnnCursor(center, metric, KnnCursorOptions{});
}

HybridTree::KnnCursor HybridTree::OpenKnnCursor(
    std::span<const float> center, const DistanceMetric& metric,
    const KnnCursorOptions& opts) const {
  HT_CHECK(center.size() == options_.dim);
  HT_CHECK(opts.epsilon >= 0.0);
  return KnnCursor(this, center, &metric, opts);
}

Result<std::optional<std::pair<double, uint64_t>>>
HybridTree::KnnCursor::Next() {
  // The cursor is a read-path client: each pull runs under the tree's
  // shared role (the caller must not mutate the tree between pulls).
  SharedRole role(&tree_->rw_contract_);
  const size_t max_leaves = opts_.max_leaf_visits == 0
                                ? std::numeric_limits<size_t>::max()
                                : opts_.max_leaf_visits;
  // Distance browsing: entries and subtrees share one priority queue keyed
  // by (lower-bound) distance; when an entry surfaces, its distance is
  // exact and no unexpanded subtree can beat it.
  while (!queue_.empty()) {
    const Item item = queue_.top();
    if (item.is_entry) {
      queue_.pop();
      return std::optional<std::pair<double, uint64_t>>(
          std::make_pair(item.dist, item.id));
    }
    if (leaf_visits_ >= max_leaves) {
      // Visit budget exhausted: no further page may be scanned, so every
      // pending subtree is dead — only already-materialized entries flow
      // out. (Unreachable without a budget.)
      queue_.pop();
      if (item.dist <= SelfBound()) early_terminated_ = true;
      continue;
    }
    const double eb = ExpandBound();
    if (item.dist * (1.0 + opts_.epsilon) > eb) {
      // Pruned subtree. In exact mode everything below it lies strictly
      // beyond the running bound (its entries would all be dropped at scan
      // time), so the declared-limit prefix is unchanged; with epsilon > 0
      // this is the (1+epsilon)-approximate skip.
      queue_.pop();
      if (opts_.epsilon > 0.0 && item.dist <= eb) early_terminated_ = true;
      continue;
    }
    queue_.pop();
    const QuantizedPage* qp = tree_->UsableSidecar(item.page, *metric_);
    PageHandle h;
    if (qp == nullptr) {
      HT_ASSIGN_OR_RETURN(h, tree_->pool_->Fetch(item.page));
    }
    if (qp != nullptr || PeekNodeKind(h.data()) == NodeKind::kData) {
      ++leaf_visits_;
      // The running bound at page entry: the cursor's own k-th distance,
      // tightened by the shared cross-shard radius. An entry strictly
      // beyond it can never be used by a consumer honoring the declared
      // limit (there are already `limit` entries at or under the bound,
      // all emitted first), so it is pruned; ties at the bound are kept so
      // downstream id tie-breaking sees every boundary candidate. With no
      // declared bound this is +inf: every entry is enqueued with its
      // exact distance — the legacy cursor scan, bit for bit.
      const double bound = ScanBound();
      const auto enqueue = [&](double d, uint64_t id) {
        if (d <= bound) {
          RecordEntry(d);
          queue_.push(Item{d, true, id, kInvalidPageId});
        }
      };
      HT_RETURN_NOT_OK(tree_->ScanDataPage(item.page, qp, std::move(h), center_,
                                           *metric_, bound, {}, &scratch_,
                                           /*cursor_path=*/true, enqueue));
      continue;
    }
    HT_ASSIGN_OR_RETURN(
        std::shared_ptr<const IndexNode> node,
        tree_->ReadIndexNodeCached(item.page, h.data(), h.size()));
    h.Release();
    // One batched MINDIST call per node; rows in kd preorder, as the batch
    // k-NN expansion.
    const LeafTable& leaves = node->leaves;
    const double* mindist =
        LeafMinDists(leaves, center_, *metric_, &scratch_);
    for (size_t i = 0; i < leaves.size(); ++i) {
      const double d = mindist[i];
      if (d * (1.0 + opts_.epsilon) <= eb) {
        queue_.push(Item{d, false, 0, leaves.child[i]});
      } else if (opts_.epsilon > 0.0 && d <= eb) {
        early_terminated_ = true;
      }
    }
  }
  return std::optional<std::pair<double, uint64_t>>();
}

void HybridTree::DumpTree() {
  // Uses the mutating node readers (exact on-disk view, no cache fill), so
  // it runs under the exclusive role like any other maintenance pass.
  ExclusiveRole role(&rw_contract_);
  DumpTreeRec(root_, Box::UnitCube(options_.dim), 0);
}

void HybridTree::DumpTreeRec(PageId page, const Box& br, int depth) {
  auto kind = PeekKind(page).ValueOrDie();
  if (kind == NodeKind::kData) {
    auto node = ReadDataNode(page).ValueOrDie();
    std::printf("%*sdata page=%u n=%zu live=%s region=%s\n", depth * 2, "",
                page, node.entries.size(),
                node.ComputeLiveBr(options_.dim).ToString().c_str(),
                br.ToString().c_str());
    return;
  }
  auto node = ReadIndexNode(page).ValueOrDie();
  std::printf("%*sindex page=%u level=%d children=%zu region=%s\n",
              depth * 2, "", page, node.level, node.NumChildren(),
              br.ToString().c_str());
  std::vector<ChildRef> kids;
  node.CollectChildren(br, &kids);
  for (auto& kid : kids) {
    Box live = els_enabled() ? codec_.Decode(kid.leaf->els, kid.kd_br)
                             : kid.kd_br;
    std::printf("%*s-> child=%u kd=%s els=%s\n", depth * 2 + 1, "",
                kid.leaf->child, kid.kd_br.ToString().c_str(),
                live.ToString().c_str());
    DumpTreeRec(kid.leaf->child, Box::UnitCube(options_.dim), depth + 1);
  }
}

}  // namespace ht
