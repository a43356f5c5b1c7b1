// Seeded input generation for the benchmark. Independent of the library's
// generators in src/data, so the inputs stay fixed while those change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace pb {

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Gaussian();

 private:
  uint64_t s_;
};

/// A dense row-major point set in [0,1]^dim.
struct Points {
  uint32_t dim = 0;
  std::vector<float> v;
  size_t size() const { return dim == 0 ? 0 : v.size() / dim; }
  std::span<const float> Row(size_t i) const {
    return {v.data() + i * dim, dim};
  }
};

/// FOURIER-like shape descriptors: the first dim/2 complex DFT
/// coefficients of a random smooth closed polygon boundary (energy falls
/// off with the coefficient index), not yet normalised.
Points GenFourier(size_t n, uint32_t dim, uint64_t seed);

/// Per-dimension min-max map of a reference set onto [0,1]^dim; points
/// outside the reference range are clamped.
class Normalizer {
 public:
  explicit Normalizer(const Points& reference);
  void Apply(Points* p) const;

 private:
  std::vector<double> lo_, span_;
};

/// Rows [begin, end) of `p` as a new point set.
Points Slice(const Points& p, size_t begin, size_t end);

/// The library's copy of `p`: row i becomes object id i.
ht::Dataset ToDataset(const Points& p);

}  // namespace pb
