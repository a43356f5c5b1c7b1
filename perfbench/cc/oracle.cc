#include "oracle.h"

#include <algorithm>
#include <cmath>

namespace pb {

double L2(std::span<const float> a, std::span<const float> b) {
  double s = 0.0;
  for (size_t d = 0; d < a.size(); ++d) {
    const double g = static_cast<double>(a[d]) - b[d];
    s += g * g;
  }
  return std::sqrt(s);
}

void LiveSet::Insert(uint64_t id, std::span<const float> p) {
  if (id >= live_.size()) {
    live_.resize(id + 1, 0);
    coords_.resize((id + 1) * dim_, 0.0f);
  }
  std::copy(p.begin(), p.end(), coords_.begin() + id * dim_);
  if (!live_[id]) ++count_;
  live_[id] = 1;
}

bool LiveSet::Erase(uint64_t id) {
  if (!Contains(id)) return false;
  live_[id] = 0;
  --count_;
  return true;
}

std::vector<uint64_t> LiveSet::Ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(count_);
  for (uint64_t id = 0; id < live_.size(); ++id) {
    if (live_[id]) ids.push_back(id);
  }
  return ids;
}

namespace {

std::string Id(const char* what, uint64_t id) {
  return std::string(what) + " id " + std::to_string(id);
}

/// Sorts `got` and reports the first duplicate or non-live id.
std::string SortAndCheckIds(const LiveSet& live, std::vector<uint64_t>& got) {
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && got[i] == got[i - 1]) return Id("duplicate", got[i]);
    if (!live.Contains(got[i])) return Id("not live", got[i]);
  }
  return "";
}

bool Contains(const std::vector<uint64_t>& sorted, uint64_t id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

}  // namespace

std::string CheckBox(const LiveSet& live, std::span<const float> lo,
                     std::span<const float> hi, std::vector<uint64_t> got) {
  if (std::string e = SortAndCheckIds(live, got); !e.empty()) return e;
  size_t expected = 0;
  for (uint64_t id = 0; id < live.id_limit(); ++id) {
    if (!live.Contains(id)) continue;
    const auto p = live.Point(id);
    bool inside = true;
    for (size_t d = 0; d < p.size() && inside; ++d) {
      inside = lo[d] <= p[d] && p[d] <= hi[d];
    }
    if (inside) {
      ++expected;
      if (!Contains(got, id)) return Id("box missed", id);
    }
  }
  if (expected != got.size()) return "box returned a point outside the box";
  return "";
}

std::string CheckRange(const LiveSet& live, std::span<const float> center,
                       double radius, std::vector<uint64_t> got) {
  if (std::string e = SortAndCheckIds(live, got); !e.empty()) return e;
  for (uint64_t id : got) {
    if (L2(center, live.Point(id)) > radius + kDistTol) {
      return Id("range returned outside radius", id);
    }
  }
  for (uint64_t id = 0; id < live.id_limit(); ++id) {
    if (!live.Contains(id)) continue;
    if (L2(center, live.Point(id)) < radius - kDistTol && !Contains(got, id)) {
      return Id("range missed", id);
    }
  }
  return "";
}

std::string CheckKnn(const LiveSet& live, std::span<const float> center,
                     size_t k, const Neighbors& got) {
  if (got.size() != std::min(k, live.size())) {
    return "knn returned " + std::to_string(got.size()) + " of " +
           std::to_string(k);
  }
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto [dist, id] = got[i];
    if (!live.Contains(id)) return Id("knn not live", id);
    if (i > 0 && dist < got[i - 1].first) return "knn not ascending";
    if (std::fabs(dist - L2(center, live.Point(id))) > kDistTol) {
      return Id("knn distance wrong for", id);
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "knn duplicate id";
  }
  if (got.empty()) return "";
  const double kth = got.back().first;
  for (uint64_t id = 0; id < live.id_limit(); ++id) {
    if (!live.Contains(id)) continue;
    if (L2(center, live.Point(id)) < kth - kDistTol && !Contains(ids, id)) {
      return Id("knn missed closer", id);
    }
  }
  return "";
}

std::string CheckContents(
    const LiveSet& live,
    std::vector<std::pair<uint64_t, std::vector<float>>> got) {
  std::sort(got.begin(), got.end());
  const std::vector<uint64_t> ids = live.Ids();
  if (got.size() != ids.size()) {
    return "scan holds " + std::to_string(got.size()) + " entries, expected " +
           std::to_string(ids.size());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (got[i].first != ids[i]) return Id("scan has wrong", got[i].first);
    const auto p = live.Point(ids[i]);
    if (!std::equal(p.begin(), p.end(), got[i].second.begin(),
                    got[i].second.end())) {
      return Id("scan has wrong point for", ids[i]);
    }
  }
  return "";
}

}  // namespace pb
