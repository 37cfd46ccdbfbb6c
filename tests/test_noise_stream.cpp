// Keyed normal streams: the counter-based definition, and the ziggurat's
// distribution on 2^20 draws laid out the way the engine draws them (one
// stream per pixel, a few dozen draws each).
//
// Every bound is a fixed multiple of the statistic's standard error at the
// fixed seed; the measured values sit far inside them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/normal_stream.hpp"
#include "common/rng.hpp"

namespace {

using pcnna::NormalStream;
using pcnna::ZigguratTables;

constexpr std::size_t kPixels = std::size_t{1} << 15;
constexpr std::size_t kDraws = 32; ///< per pixel; kPixels * kDraws = 2^20

/// z[p * kDraws + j]: draw j of pixel p of one sweep keyed from `seed`.
std::vector<double> sweep_draws(std::uint64_t seed) {
  const std::uint64_t key = pcnna::Rng(seed).next_u64();
  std::vector<double> z(kPixels * kDraws);
  for (std::size_t p = 0; p < kPixels; ++p) {
    NormalStream s(NormalStream::element_key(key, p));
    for (std::size_t j = 0; j < kDraws; ++j) z[p * kDraws + j] = s.next();
  }
  return z;
}

const std::vector<double>& draws() {
  static const std::vector<double> z = sweep_draws(2026);
  return z;
}

/// Pearson correlation of the pairs (z[a(i)], z[b(i)]), i < n.
template <typename A, typename B>
double correlation(const std::vector<double>& z, std::size_t n, A a, B b) {
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = z[a(i)], y = z[b(i)];
    sa += x;
    sb += y;
    saa += x * x;
    sbb += y * y;
    sab += x * y;
  }
  const double m = static_cast<double>(n);
  const double cov = sab / m - (sa / m) * (sb / m);
  const double va = saa / m - (sa / m) * (sa / m);
  const double vb = sbb / m - (sb / m) * (sb / m);
  return cov / std::sqrt(va * vb);
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(NormalStream, ValueJIsTheMixedWeylCounter) {
  const std::uint64_t key = 0x0123456789ABCDEFull;
  NormalStream s(key);
  for (std::uint64_t j = 0; j < 16; ++j)
    EXPECT_EQ(pcnna::mix64(key + (j + 1) * NormalStream::kGamma), s.next_u64());
}

TEST(NormalStream, SameKeySameDrawsAndElementKeysDiffer) {
  const std::uint64_t key = 99;
  NormalStream a(NormalStream::element_key(key, 7));
  NormalStream b(NormalStream::element_key(key, 7));
  for (int j = 0; j < 1000; ++j) ASSERT_EQ(a.next(), b.next());
  EXPECT_EQ(pcnna::mix64(key ^ pcnna::mix64(8)),
            NormalStream::element_key(key, 7));
  EXPECT_NE(NormalStream::element_key(key, 0),
            NormalStream::element_key(key, 1));
  EXPECT_NE(NormalStream::element_key(key, 0),
            NormalStream::element_key(key + 1, 0));
}

TEST(NormalStream, ZigguratTablesAreOrdered) {
  const ZigguratTables& t = pcnna::ziggurat_tables();
  EXPECT_EQ(&t, &pcnna::ziggurat_tables()); // built once
  EXPECT_EQ(ZigguratTables::kR, t.x[1]);
  EXPECT_EQ(0.0, t.x[ZigguratTables::kLayers]);
  EXPECT_GT(t.x[0], t.x[1]);
  for (std::size_t i = 1; i < ZigguratTables::kLayers; ++i) {
    EXPECT_GT(t.x[i], t.x[i + 1]) << i;
    EXPECT_GE(t.ratio[i], 0.0) << i; // 0 for the top layer: always a wedge
    EXPECT_LT(t.ratio[i], 1.0) << i;
  }
  // Every layer i >= 1 has area V: x[i] * (f(x[i + 1]) - f(x[i])), the
  // top layer's cap included (f(x[128]) = 1). R and V are given to 13
  // digits, so the cap closes to ~1e-9 of V.
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  for (std::size_t i = 1; i < ZigguratTables::kLayers; ++i)
    EXPECT_NEAR(ZigguratTables::kV, t.x[i] * (f(t.x[i + 1]) - f(t.x[i])),
                1e-10)
        << i;
}

TEST(NormalStream, FirstTestAcceptsSumOfRatiosOver128) {
  // A draw returns from next()'s first test when |u| < ratio[i], u
  // uniform on [-1, 1) and i uniform over the layers: probability
  // sum(ratio) / 128.
  const ZigguratTables& t = pcnna::ziggurat_tables();
  double sum = 0.0;
  for (const double r : t.ratio) sum += r;
  const double p = sum / static_cast<double>(ZigguratTables::kLayers);
  EXPECT_NEAR(0.97244, p, 1e-5);

  // Every other path draws at least one more word, so a draw took the
  // first test exactly when it consumed one word of the stream.
  constexpr std::size_t kCount = std::size_t{1} << 20;
  NormalStream s(pcnna::Rng(2026).next_u64());
  std::size_t first = 0;
  for (std::size_t k = 0; k < kCount; ++k) {
    NormalStream one_word = s;
    one_word.next_u64();
    s.next();
    NormalStream after = s;
    first += after.next_u64() == one_word.next_u64() ? 1 : 0;
  }
  const double n = static_cast<double>(kCount);
  const double sd = std::sqrt(n * p * (1.0 - p));
  EXPECT_LT(std::abs(static_cast<double>(first) - n * p), 5.0 * sd)
      << first << " of " << kCount << " draws took the first test";
}

TEST(NormalStream, MomentsMatchTheStandardNormal) {
  const std::vector<double>& z = draws();
  const double n = static_cast<double>(z.size());
  double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
  for (const double v : z) {
    s1 += v;
    s2 += v * v;
  }
  const double mean = s1 / n;
  for (const double v : z) {
    const double d = v - mean;
    s3 += d * d * d;
    s4 += d * d * d * d;
  }
  const double var = s2 / n - mean * mean;
  const double skew = s3 / n / std::pow(var, 1.5);
  const double excess_kurtosis = s4 / n / (var * var) - 3.0;
  // Standard errors: 1/sqrt(n), sqrt(2/n), sqrt(6/n), sqrt(24/n).
  EXPECT_LT(std::abs(mean), 5.0 / std::sqrt(n));
  EXPECT_LT(std::abs(var - 1.0), 5.0 * std::sqrt(2.0 / n));
  EXPECT_LT(std::abs(skew), 5.0 * std::sqrt(6.0 / n));
  EXPECT_LT(std::abs(excess_kurtosis), 5.0 * std::sqrt(24.0 / n));
}

TEST(NormalStream, KolmogorovSmirnovAgainstPhi) {
  std::vector<double> z = draws();
  std::sort(z.begin(), z.end());
  const double n = static_cast<double>(z.size());
  double d = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double cdf = normal_cdf(z[i]);
    d = std::max({d, static_cast<double>(i + 1) / n - cdf,
                  cdf - static_cast<double>(i) / n});
  }
  // sqrt(n) * D exceeds 1.95 with probability 0.001 under the null.
  EXPECT_LT(std::sqrt(n) * d, 1.95) << "D = " << d;
}

TEST(NormalStream, TailRatesBeyondTheZigguratBase) {
  // |z| > 3 is mostly, and |z| > 4 entirely, drawn by the tail sampler
  // beyond R = 3.44 or the base layer's wedge.
  const std::vector<double>& z = draws();
  const double n = static_cast<double>(z.size());
  for (const double cut : {3.0, 4.0}) {
    SCOPED_TRACE(cut);
    const double p = std::erfc(cut / std::sqrt(2.0));
    const auto count = std::count_if(z.begin(), z.end(), [&](double v) {
      return std::abs(v) > cut;
    });
    const double expected = n * p;
    const double sd = std::sqrt(n * p * (1.0 - p));
    EXPECT_LT(std::abs(static_cast<double>(count) - expected), 5.0 * sd)
        << count << " draws vs " << expected << " expected";
  }
  // Both signs of the tail are drawn.
  EXPECT_GT(std::count_if(z.begin(), z.end(), [](double v) { return v > 3.5; }),
            0);
  EXPECT_GT(std::count_if(z.begin(), z.end(), [](double v) { return v < -3.5; }),
            0);
}

TEST(NormalStream, DrawsAreUncorrelatedWithinAndAcrossPixels) {
  const std::vector<double>& z = draws();
  // Lag 1 within a pixel: (draw j, draw j + 1).
  const std::size_t within = kPixels * (kDraws - 1);
  const double lag1 = correlation(
      z, within,
      [](std::size_t i) { return i / (kDraws - 1) * kDraws + i % (kDraws - 1); },
      [](std::size_t i) {
        return i / (kDraws - 1) * kDraws + i % (kDraws - 1) + 1;
      });
  EXPECT_LT(std::abs(lag1), 4.0 / std::sqrt(static_cast<double>(within)));
  // Draw j of adjacent pixels: (pixel p, pixel p + 1).
  const std::size_t across = (kPixels - 1) * kDraws;
  const double adjacent = correlation(
      z, across, [](std::size_t i) { return i; },
      [](std::size_t i) { return i + kDraws; });
  EXPECT_LT(std::abs(adjacent), 4.0 / std::sqrt(static_cast<double>(across)));
}

} // namespace
