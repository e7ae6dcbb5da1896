// Deterministic random number generation for the simulator.
//
// Every stochastic component in this library takes an explicit Rng (or a seed)
// so that experiment runs are bit-identical across repetitions with the same
// seed. The generator is xoshiro256++, seeded through SplitMix64, which is
// fast, high quality, and trivially reproducible across platforms.
#pragma once

#include <array>
#include <cstdint>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace sds {

// SplitMix64 (Steele, Lea & Flood): the golden-ratio increment followed by
// the finalizer. Stateless, so parallel workers derive the same draw from
// (seed, coordinates) without sharing generator state; Rng seeds
// xoshiro256++ by stepping it.
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Stateless uniform draw in [0, 1) keyed by (seed, tenant, tick, salt):
// three chained SplitMix64 rounds, top 53 bits. `salt` separates the
// independent draws a caller makes at one (tenant, tick).
double Draw01(std::uint64_t seed, std::uint64_t tenant, Tick tick,
              std::uint64_t salt);

// xoshiro256++ by Blackman & Vigna (public domain reference implementation
// re-expressed here). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  // The per-op draws (this, the bounded UniformInt, UniformDouble, Below and
  // Bernoulli) are defined below the class so they inline into the
  // simulator's hot loops.
  result_type operator()();

  // Uniform integer in [0, bound) using Lemire's rejection-free-in-practice
  // multiply-shift reduction. bound must be > 0.
  std::uint64_t UniformInt(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // Standard normal via Box-Muller (cached second variate).
  double Normal();
  double Normal(double mean, double stddev);

  // Poisson-distributed count (Knuth for small lambda, normal approximation
  // for large lambda). Always >= 0.
  std::int64_t Poisson(double lambda);

  // Bernoulli trial with success probability p: Below(Threshold(p)).
  bool Bernoulli(double p);

  // The integer form of the draw `UniformDouble() < p`: UniformDouble() is
  // k * 2^-53 for the top 53 bits k of one draw, and k * 2^-53 < p exactly
  // when k < ceil(p * 2^53). A caller that draws against a fixed p many
  // times computes Threshold(p) once and calls Below, which consumes the
  // same draw and returns the same result with no int-to-double conversion.
  static std::uint64_t Threshold(double p);
  bool Below(std::uint64_t threshold);

  // Exponential with rate lambda (> 0).
  double Exponential(double lambda);

  // Derives an independent child generator; used to give each simulated
  // component its own stream from one experiment seed.
  Rng Fork();

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

inline Rng::result_type Rng::operator()() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

inline std::uint64_t Rng::UniformInt(std::uint64_t bound) {
  SDS_CHECK(bound > 0, "UniformInt bound must be positive");
  // Lemire multiply-shift with rejection of the biased region.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

inline double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

inline std::uint64_t Rng::Threshold(double p) {
  if (!(p > 0.0)) return 0;  // also NaN, which no draw is below
  if (p >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

inline bool Rng::Below(std::uint64_t threshold) {
  return ((*this)() >> 11) < threshold;
}

inline bool Rng::Bernoulli(double p) { return Below(Threshold(p)); }

// Samples from a Zipf(n, s) distribution over {0, ..., n-1} using a
// precomputed inverse-CDF table. Used by the PageRank-style workloads whose
// hyperlink popularity follows a Zipfian distribution (paper Section 3.1).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t Sample(Rng& rng) const;

  std::size_t n() const { return cdf_.size(); }
  double exponent() const { return exponent_; }

 private:
  std::vector<double> cdf_;
  double exponent_;
};

}  // namespace sds
