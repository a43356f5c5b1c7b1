// Copyright 2026 The HybridTree Authors.
// Per-data-page 8-bit quantized sidecars for the filter-then-refine scan
// path. Each sidecar stores, for every point on a data page, one uint8 code
// per dimension relative to the page's live bounding region (min/max over
// the page's points per dimension). A scan first computes a sound lower
// bound on each point's distance from the codes (geometry/quantize.h,
// kernels code_* entries) and refines only the survivors with exact
// distances — results stay byte-identical to the unfiltered path.
//
// Sidecars are derived data, never persisted. The tree keeps them eagerly
// current as part of its in-memory directory: every write of a data page
// rebuilds that page's sidecar, bulk loading and Open() build one per data
// page, and freeing a page drops it. Because the codes and the grid are all
// the filter needs, a scan can decide from the sidecar alone that no row of
// a page can qualify — and then never read the page.
//
// Each sidecar also carries two transposed mirrors (kernels::kTBlock rows
// per block, dimension-major within a block): the page's float block, so
// the SIMD batch kernels replace their per-dimension row gather with one
// contiguous aligned load (kernels.h, tl1/tl2/tlinf/twl2 entries), and the
// codes, so the code-bound pass runs row-parallel with no per-row
// horizontal reduction (ct_* entries). The float mirror holds the exact
// same values as the page, so distances computed through it are
// bit-identical to the strided path.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/kernels/kernels.h"
#include "geometry/quantize.h"
#include "storage/page.h"

namespace ht {

/// Immutable quantized image of one data page's point block. Rows are
/// padded to quant::PaddedDim(dim) bytes (zero-filled padding) in a
/// 64-byte-aligned buffer so the code kernels can consume full strides
/// with no tail handling.
class QuantizedPage {
 public:
  /// Builds codes for `count` points laid out at `block` with
  /// `stride_floats` floats between consecutive points (DataPageScan
  /// layout: dim coordinates first, trailing slack ignored).
  QuantizedPage(const float* block, size_t stride_floats, size_t count,
                uint32_t dim);

  QuantizedPage(const QuantizedPage&) = delete;
  QuantizedPage& operator=(const QuantizedPage&) = delete;

  quant::PageCodesView view() const {
    return quant::PageCodesView{codes_.get(),    stride_,
                                count_,          dim_,
                                grid_lo_.data(), grid_hi_.data(),
                                tc_.get(),       full_blocks_};
  }
  size_t count() const { return count_; }
  uint32_t dim() const { return dim_; }
  /// The grid, which is the page's live bounding box: per-dimension
  /// min/max over its points.
  const std::vector<float>& grid_lo() const { return grid_lo_; }
  const std::vector<float>& grid_hi() const { return grid_hi_; }

  /// Transposed float mirror covering full_blocks() * kernels::kTBlock
  /// rows (the count % kTBlock tail rows stay on the page's own block).
  const float* tfloats() const { return tf_.get(); }
  size_t full_blocks() const { return full_blocks_; }

  /// True when this sidecar is exactly what (re)building from the given
  /// block would produce — grid, codes, zeroed padding bytes, and the
  /// transposed mirror. Used by the validator to detect stale sidecars.
  bool Matches(const float* block, size_t stride_floats, size_t count,
               uint32_t dim) const;

 private:
  struct AlignedFree {
    void operator()(void* p) const {
      ::operator delete(p, std::align_val_t{Page::kAlignment});
    }
  };

  uint32_t dim_;
  size_t count_;
  size_t stride_;       // bytes per code row, == quant::PaddedDim(dim_)
  size_t full_blocks_;  // count_ / kernels::kTBlock
  std::vector<float> grid_lo_;
  std::vector<float> grid_hi_;
  std::unique_ptr<uint8_t, AlignedFree> codes_;
  std::unique_ptr<float, AlignedFree> tf_;
  std::unique_ptr<uint8_t, AlignedFree> tc_;  // transposed codes (unpadded)
};

/// The sidecars of a tree's data pages, indexed by page id. It holds
/// exactly one sidecar per non-empty data page and none for any other page,
/// so a lookup hit also tells the caller the page is a data page. There is
/// no internal lock: the owner mutates the store only under write
/// exclusivity and reads it under read sharing (HybridTree guards it with
/// its rw_contract_ role), so concurrent readers share it as immutable.
class QuantStore {
 public:
  /// The sidecar of page `id`, or nullptr when it has none.
  const QuantizedPage* Lookup(PageId id) const {
    return id < pages_.size() ? pages_[id].get() : nullptr;
  }

  /// Installs `qp` as the sidecar of page `id`, replacing any previous
  /// one; nullptr drops it (the page was emptied, freed or reused).
  void Put(PageId id, std::unique_ptr<const QuantizedPage> qp);

  /// Number of pages that have a sidecar.
  size_t size() const { return count_; }

  /// Ids of all pages that have a sidecar, ascending (validator: each must
  /// be a live, non-empty data page of the tree).
  std::vector<PageId> Snapshot() const;

 private:
  std::vector<std::unique_ptr<const QuantizedPage>> pages_;
  size_t count_ = 0;
};

}  // namespace ht
