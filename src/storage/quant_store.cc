// Copyright 2026 The HybridTree Authors.

#include "storage/quant_store.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace ht {

QuantizedPage::QuantizedPage(const float* block, size_t stride_floats,
                             size_t count, uint32_t dim)
    : dim_(dim),
      count_(count),
      stride_(quant::PaddedDim(dim)),
      grid_lo_(dim),
      grid_hi_(dim) {
  HT_CHECK(count > 0 && dim > 0);
  // Grid = the page's live bounding region: min/max per dimension over the
  // resident points. Tightest possible uniform grid for this page.
  //
  // Transposed mirrors: kTBlock rows per block, dimension-major, so
  // element d of a block's rows is one contiguous group — 32-byte-aligned
  // floats for the batch kernels, 8 bytes of codes for the ct_* kernels.
  //
  // Everything is filled in one pass per dimension (column), with the
  // running values in registers.
  constexpr size_t kT = kernels::kTBlock;
  full_blocks_ = count / kT;
  const size_t mirrored = full_blocks_ * kT;
  const size_t bytes = count * stride_;
  codes_.reset(static_cast<uint8_t*>(
      ::operator new(bytes, std::align_val_t{Page::kAlignment})));
  std::memset(codes_.get(), 0, bytes);
  if (full_blocks_ > 0) {
    const size_t tf_floats = mirrored * dim;
    tf_.reset(static_cast<float*>(::operator new(
        tf_floats * sizeof(float), std::align_val_t{Page::kAlignment})));
    tc_.reset(static_cast<uint8_t*>(::operator new(
        tf_floats, std::align_val_t{Page::kAlignment})));
  }
  uint8_t* codes = codes_.get();
  float* tf = tf_.get();
  uint8_t* tc = tc_.get();
  for (uint32_t d = 0; d < dim; ++d) {
    float lo = block[d];
    float hi = block[d];
    for (size_t i = 1; i < count; ++i) {
      const float v = block[i * stride_floats + d];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    grid_lo_[d] = lo;
    grid_hi_[d] = hi;
    const double scale = quant::SidecarScale(lo, hi);
    for (size_t i = 0; i < count; ++i) {
      const float v = block[i * stride_floats + d];
      const uint8_t c = quant::EncodeSidecarCell(v, lo, scale);
      codes[i * stride_ + d] = c;
      if (i < mirrored) {
        const size_t t = (i / kT * dim + d) * kT + i % kT;
        tf[t] = v;
        tc[t] = c;
      }
    }
  }
}

bool QuantizedPage::Matches(const float* block, size_t stride_floats,
                            size_t count, uint32_t dim) const {
  if (count != count_ || dim != dim_) return false;
  QuantizedPage fresh(block, stride_floats, count, dim);
  const size_t tf_bytes =
      full_blocks_ * dim * kernels::kTBlock * sizeof(float);
  // tc_ needs no separate check: it is a deterministic re-layout of the
  // codes bytes compared below.
  return fresh.grid_lo_ == grid_lo_ && fresh.grid_hi_ == grid_hi_ &&
         std::memcmp(fresh.codes_.get(), codes_.get(), count * stride_) == 0 &&
         (tf_bytes == 0 ||
          std::memcmp(fresh.tf_.get(), tf_.get(), tf_bytes) == 0);
}

void QuantStore::Put(PageId id, std::unique_ptr<const QuantizedPage> qp) {
  if (id >= pages_.size()) {
    if (qp == nullptr) return;
    pages_.resize(static_cast<size_t>(id) + 1);
  }
  if (pages_[id] != nullptr) --count_;
  if (qp != nullptr) ++count_;
  pages_[id] = std::move(qp);
}

std::vector<PageId> QuantStore::Snapshot() const {
  std::vector<PageId> ids;
  ids.reserve(count_);
  for (size_t id = 0; id < pages_.size(); ++id) {
    if (pages_[id] != nullptr) ids.push_back(static_cast<PageId>(id));
  }
  return ids;
}

}  // namespace ht
