// Per-operation best-of-passes timing. A fixed operation list is replayed
// in round-robin passes from an identical starting state; an operation's
// latency is its fastest time over the passes. On a shared host the
// fastest of several passes repeats far better than any single pass,
// because interference only ever adds time.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace pb {

class BestOfPasses {
 public:
  explicit BestOfPasses(size_t ops)
      : best_(ops, std::numeric_limits<double>::infinity()) {}
  void Record(size_t op, double seconds) {
    best_[op] = std::min(best_[op], seconds);
  }
  double Best(size_t op) const { return best_[op]; }
  size_t ops() const { return best_.size(); }

 private:
  std::vector<double> best_;
};

/// Linear-interpolated quantile (q in [0,1]) of `v`; NaN when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace pb
