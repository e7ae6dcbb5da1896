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

  // Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  // Exponential with rate lambda (> 0).
  double Exponential(double lambda);

  // Derives an independent child generator; used to give each simulated
  // component its own stream from one experiment seed.
  Rng Fork();

 private:
  std::array<std::uint64_t, 4> s_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

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
