// Brute-force correctness oracle over the benchmark's own copy of the live
// point set. Shares no code with the library: distances are recomputed
// here and every answer is checked against a full scan.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data.h"

namespace pb {

/// Two distances closer than this (absolute, on [0,1]^dim data) are treated
/// as equal: a reported distance must match the recomputed one within it,
/// and points this close to a k-NN or range boundary may fall either way.
inline constexpr double kDistTol = 1e-9;

using Neighbors = std::vector<std::pair<double, uint64_t>>;

/// L2 distance in double precision.
double L2(std::span<const float> a, std::span<const float> b);

/// The live multiset of (id, point) pairs, indexed by id.
class LiveSet {
 public:
  explicit LiveSet(uint32_t dim) : dim_(dim) {}
  void Insert(uint64_t id, std::span<const float> p);
  /// False when `id` is not live.
  bool Erase(uint64_t id);
  bool Contains(uint64_t id) const {
    return id < live_.size() && live_[id];
  }
  std::span<const float> Point(uint64_t id) const {
    return {coords_.data() + id * dim_, dim_};
  }
  size_t size() const { return count_; }
  /// One past the largest id ever inserted.
  uint64_t id_limit() const { return live_.size(); }
  uint32_t dim() const { return dim_; }
  /// Live ids, ascending.
  std::vector<uint64_t> Ids() const;

 private:
  uint32_t dim_;
  std::vector<float> coords_;
  std::vector<char> live_;
  size_t count_ = 0;
};

/// Each check returns "" when the answer is correct, else a reason.
std::string CheckBox(const LiveSet& live, std::span<const float> lo,
                     std::span<const float> hi, std::vector<uint64_t> got);
std::string CheckRange(const LiveSet& live, std::span<const float> center,
                       double radius, std::vector<uint64_t> got);
std::string CheckKnn(const LiveSet& live, std::span<const float> center,
                     size_t k, const Neighbors& got);
/// `got` is the (id, point) content of a full scan, in any order.
std::string CheckContents(const LiveSet& live,
                          std::vector<std::pair<uint64_t, std::vector<float>>> got);

}  // namespace pb
