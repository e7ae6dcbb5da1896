#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

namespace sds {
namespace {

TEST(SplitMix64Test, MatchesReferenceSequence) {
  // The published SplitMix64 outputs for state 0, stepped by the golden
  // ratio increment.
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64(0x3c6ef372fe94f82aULL), 0x06c45d188009454fULL);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

// Pins the exact streams of the draws the simulator's per-op path makes, so
// any change to the generator or to how a draw is derived from it shows up
// here rather than as a silent shift in every seeded experiment.
TEST(RngTest, MatchesRecordedSequence) {
  {
    Rng rng(1);
    EXPECT_EQ(rng(), 0xcfc5d07f6f03c29bULL);
    EXPECT_EQ(rng(), 0xbf424132963fe08dULL);
    EXPECT_EQ(rng(), 0x19a37d5757aaf520ULL);
    EXPECT_EQ(rng(), 0xbf08119f05cd56d6ULL);
  }
  {
    Rng rng(1);
    EXPECT_EQ(rng.UniformDouble(), 0x1.9f8ba0fede078p-1);
    EXPECT_EQ(rng.UniformDouble(), 0x1.7e8482652c7fcp-1);
    EXPECT_EQ(rng.UniformDouble(), 0x1.9a37d5757aafp-4);
    EXPECT_EQ(rng.UniformDouble(), 0x1.7e10233e0b9aap-1);
  }
  {
    Rng rng(1);
    const std::vector<std::uint64_t> want = {1623, 1494, 200,  1492,
                                             369,  1180, 1973, 1046};
    for (const std::uint64_t v : want) EXPECT_EQ(rng.UniformInt(2000ull), v);
  }
  {
    // Indices of the first six successes: the monitor-load draw's rate.
    Rng rng(1);
    std::vector<int> successes;
    for (int i = 0; i < 1000 && successes.size() < 6; ++i) {
      if (rng.Bernoulli(0.012)) successes.push_back(i);
    }
    EXPECT_EQ(successes, (std::vector<int>{165, 345, 581, 673, 696, 834}));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForkIsIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.Fork();
  // Re-derive the same child from an identical parent: same stream.
  Rng parent2(7);
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child(), child2());
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsHalf) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17ull), 17ull);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(10);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[rng.UniformInt(8ull)];
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [v, c] : counts) {
    EXPECT_GT(c, 1000);  // expected 1250 each
    EXPECT_LT(c, 1500);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(12);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(RngTest, PoissonMeanMatchesSmallLambda) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(4.2));
  EXPECT_NEAR(sum / n, 4.2, 0.1);
}

TEST(RngTest, PoissonMeanMatchesLargeLambda) {
  Rng rng(14);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(500.0));
  EXPECT_NEAR(sum / n, 500.0, 2.0);
}

TEST(RngTest, PoissonZeroLambdaIsZero) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(16);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// Below(Threshold(p)) is the draw UniformDouble() < p in integer form: one
// generator step each, and the same outcome draw for draw.
TEST(RngTest, BelowThresholdMatchesUniformDoubleDraw) {
  // A multiple of 2^-53 (its last mantissa bit is 0) and the next double up,
  // which is not: the two thresholds straddle ceil's exact case.
  const double exact = 0x1.23456789abcdep-2;
  const double above = std::nextafter(exact, 1.0);
  for (const double p : {0.0, 0.012, 0.75, 1.0, exact, above}) {
    SCOPED_TRACE(p);
    const std::uint64_t threshold = Rng::Threshold(p);
    Rng a(21);
    Rng b(21);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(a.Below(threshold), b.UniformDouble() < p) << "draw " << i;
    }
    EXPECT_EQ(a(), b());
    // The threshold sits exactly on the boundary: the largest passing 53-bit
    // draw is below p and the smallest failing one is not.
    if (threshold > 0) {
      EXPECT_LT(static_cast<double>(threshold - 1) * 0x1.0p-53, p);
    }
    EXPECT_GE(static_cast<double>(threshold) * 0x1.0p-53, p);
  }
  EXPECT_EQ(Rng::Threshold(0.0), 0u);
  EXPECT_EQ(Rng::Threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::Threshold(exact) + 1, Rng::Threshold(above));
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(ZipfSamplerTest, SingleElementAlwaysZero) {
  ZipfSampler z(1, 1.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.Sample(rng), 0u);
}

TEST(ZipfSamplerTest, RankFrequenciesDecrease) {
  ZipfSampler z(100, 1.0);
  Rng rng(2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 200000; ++i) ++counts[z.Sample(rng)];
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[49]);
  // Rank-0 over rank-9 frequency ratio should be roughly 10 for s=1.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0, 3.0);
}

TEST(ZipfSamplerTest, SamplesStayInDomain) {
  ZipfSampler z(13, 0.8);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Sample(rng), 13u);
}

// Property sweep: Poisson variance ~= mean for a grid of lambdas.
class PoissonPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonPropertyTest, VarianceMatchesMean) {
  const double lambda = GetParam();
  Rng rng(static_cast<std::uint64_t>(lambda * 1000) + 1);
  const int n = 40000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto v = static_cast<double>(rng.Poisson(lambda));
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, lambda, 0.05 * lambda + 0.05);
  EXPECT_NEAR(var, lambda, 0.10 * lambda + 0.2);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonPropertyTest,
                         ::testing::Values(0.5, 2.0, 8.0, 25.0, 60.0, 200.0));

}  // namespace
}  // namespace sds
