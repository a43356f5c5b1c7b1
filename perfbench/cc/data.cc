#include "data.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pb {

double Rng::Gaussian() {
  // Box-Muller; the second variate is dropped to keep the stream simple.
  const double u1 = 1.0 - Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Points GenFourier(size_t n, uint32_t dim, uint64_t seed) {
  constexpr uint32_t kVertices = 32;
  const uint32_t ncoef = dim / 2;
  constexpr uint32_t kMaxHarmonics = 6;
  std::vector<double> cos_t(kVertices), sin_t(kVertices);
  // cos/sin((h + 1) t_j): the harmonics of the boundary radius.
  std::vector<double> cos_h(kMaxHarmonics * kVertices);
  std::vector<double> sin_h(cos_h.size());
  std::vector<double> cos_k(static_cast<size_t>(ncoef) * kVertices);
  std::vector<double> sin_k(cos_k.size());
  for (uint32_t j = 0; j < kVertices; ++j) {
    const double t = 2.0 * M_PI * j / kVertices;
    cos_t[j] = std::cos(t);
    sin_t[j] = std::sin(t);
    for (uint32_t h = 0; h < kMaxHarmonics; ++h) {
      cos_h[h * kVertices + j] = std::cos((h + 1) * t);
      sin_h[h * kVertices + j] = std::sin((h + 1) * t);
    }
    for (uint32_t k = 0; k < ncoef; ++k) {
      const double a = -2.0 * M_PI * (k + 1) * j / kVertices;
      cos_k[k * kVertices + j] = std::cos(a);
      sin_k[k * kVertices + j] = std::sin(a);
    }
  }
  Rng rng(seed);
  Points out{dim, std::vector<float>(n * dim)};
  std::vector<double> re(kVertices), im(kVertices);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t harmonics = 3 + static_cast<uint32_t>(rng.Below(4));
    double amp_cos[kMaxHarmonics], amp_sin[kMaxHarmonics];
    for (uint32_t h = 0; h < harmonics; ++h) {
      const double amp = rng.Uniform(0.0, 0.5) / (1.0 + h);
      const double phase = rng.Uniform(0.0, 2.0 * M_PI);
      amp_cos[h] = amp * std::cos(phase);
      amp_sin[h] = amp * std::sin(phase);
    }
    const double scale = rng.Uniform(0.5, 2.0);
    const double jitter = rng.Uniform(0.0, 0.08);
    for (uint32_t j = 0; j < kVertices; ++j) {
      double r = 1.0;
      for (uint32_t h = 0; h < harmonics; ++h) {
        // amp * cos((h + 1) t + phase)
        r += amp_cos[h] * cos_h[h * kVertices + j] -
             amp_sin[h] * sin_h[h * kVertices + j];
      }
      r = scale * (r + jitter * rng.Gaussian());
      re[j] = r * cos_t[j];
      im[j] = r * sin_t[j];
    }
    float* row = out.v.data() + i * dim;
    for (uint32_t k = 0; k < ncoef; ++k) {
      double cre = 0.0, cim = 0.0;
      for (uint32_t j = 0; j < kVertices; ++j) {
        const double c = cos_k[k * kVertices + j], s = sin_k[k * kVertices + j];
        cre += re[j] * c - im[j] * s;
        cim += re[j] * s + im[j] * c;
      }
      row[2 * k] = static_cast<float>(cre);
      row[2 * k + 1] = static_cast<float>(cim);
    }
  }
  return out;
}

Normalizer::Normalizer(const Points& reference)
    : lo_(reference.dim, std::numeric_limits<double>::max()),
      span_(reference.dim, std::numeric_limits<double>::lowest()) {
  for (size_t i = 0; i < reference.size(); ++i) {
    const auto row = reference.Row(i);
    for (uint32_t d = 0; d < reference.dim; ++d) {
      lo_[d] = std::min<double>(lo_[d], row[d]);
      span_[d] = std::max<double>(span_[d], row[d]);  // the max, for now
    }
  }
  for (uint32_t d = 0; d < reference.dim; ++d) {
    span_[d] = span_[d] > lo_[d] ? span_[d] - lo_[d] : 1.0;
  }
}

void Normalizer::Apply(Points* p) const {
  for (size_t i = 0; i < p->size(); ++i) {
    float* row = p->v.data() + i * p->dim;
    for (uint32_t d = 0; d < p->dim; ++d) {
      row[d] = std::clamp(static_cast<float>((row[d] - lo_[d]) / span_[d]),
                          0.0f, 1.0f);
    }
  }
}

Points Slice(const Points& p, size_t begin, size_t end) {
  return Points{p.dim, std::vector<float>(p.v.begin() + begin * p.dim,
                                          p.v.begin() + end * p.dim)};
}

ht::Dataset ToDataset(const Points& p) {
  ht::Dataset d(p.dim, p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    std::copy(p.Row(i).begin(), p.Row(i).end(), d.MutableRow(i).begin());
  }
  return d;
}

}  // namespace pb
