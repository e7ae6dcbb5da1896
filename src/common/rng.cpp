#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"

namespace sds {
namespace {

// One step of the stateful SplitMix64 generator.
std::uint64_t SplitMix64Next(std::uint64_t& x) {
  const std::uint64_t r = SplitMix64(x);
  x += 0x9e3779b97f4a7c15ull;
  return r;
}

}  // namespace

double Draw01(std::uint64_t seed, std::uint64_t tenant, Tick tick,
              std::uint64_t salt) {
  std::uint64_t h = SplitMix64(seed ^ (salt << 48));
  h = SplitMix64(h ^ (tenant << 24));
  h = SplitMix64(h ^ static_cast<std::uint64_t>(tick));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64Next(sm);
  // Avoid the (astronomically unlikely) all-zero state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  SDS_CHECK(lo <= hi, "UniformInt range is empty");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(UniformInt(span));
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = UniformDouble();
  while (u1 <= 0.0) u1 = UniformDouble();
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

std::int64_t Rng::Poisson(double lambda) {
  SDS_CHECK(lambda >= 0.0, "Poisson lambda must be non-negative");
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    double prod = UniformDouble();
    std::int64_t n = 0;
    while (prod > limit) {
      ++n;
      prod *= UniformDouble();
    }
    return n;
  }
  // Normal approximation with continuity correction; adequate for the
  // intensity modelling this library uses Poisson for.
  const double v = Normal(lambda, std::sqrt(lambda));
  return std::max<std::int64_t>(0, static_cast<std::int64_t>(v + 0.5));
}

double Rng::Exponential(double lambda) {
  SDS_CHECK(lambda > 0.0, "Exponential rate must be positive");
  double u = UniformDouble();
  while (u <= 0.0) u = UniformDouble();
  return -std::log(u) / lambda;
}

Rng Rng::Fork() { return Rng((*this)()); }

ZipfSampler::ZipfSampler(std::size_t n, double exponent) : exponent_(exponent) {
  SDS_CHECK(n > 0, "ZipfSampler needs a non-empty domain");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace sds
