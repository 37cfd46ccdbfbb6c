// Data converters: quantization, rate, energy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "electronics/adc.hpp"
#include "electronics/dac.hpp"

namespace {

using namespace pcnna;
namespace u = units;

TEST(Dac, LevelsFromBits) {
  elec::DacConfig cfg;
  cfg.bits = 8;
  elec::Dac dac(cfg);
  EXPECT_EQ(256u, dac.levels());
}

TEST(Dac, QuantizesToGrid) {
  elec::DacConfig cfg;
  cfg.bits = 2; // levels at 0, 1/3, 2/3, 1
  elec::Dac dac(cfg);
  EXPECT_DOUBLE_EQ(0.0, dac.convert(0.0));
  EXPECT_DOUBLE_EQ(1.0, dac.convert(1.0));
  EXPECT_NEAR(1.0 / 3.0, dac.convert(0.3), 1e-12);
  EXPECT_NEAR(2.0 / 3.0, dac.convert(0.6), 1e-12);
}

TEST(Dac, ClipsOutOfRange) {
  elec::Dac dac{elec::DacConfig{}};
  EXPECT_DOUBLE_EQ(0.0, dac.convert(-0.5));
  EXPECT_DOUBLE_EQ(1.0, dac.convert(1.5));
}

TEST(Dac, QuantizationErrorBoundedByHalfLsb) {
  elec::DacConfig cfg;
  cfg.bits = 6;
  elec::Dac dac(cfg);
  for (int i = 0; i <= 1000; ++i) {
    const double x = i / 1000.0;
    EXPECT_LE(std::abs(dac.convert(x) - x), dac.lsb() / 2.0 + 1e-15);
  }
}

TEST(Dac, SixteenBitIsTransparentAtDoublePrecisionTolerances) {
  elec::Dac dac{elec::DacConfig{}}; // paper's 16 b DAC
  EXPECT_LT(dac.lsb(), 2e-5);
}

TEST(Dac, ConversionTimeAtPaperRate) {
  elec::Dac dac{elec::DacConfig{}}; // 6 GSa/s
  // Eq. (8) worked example: ~116 conversions take ~19.3 ns.
  EXPECT_NEAR(116.0 / (6.0 * u::GSa), dac.conversion_time(116), 1e-12);
}

TEST(Dac, ConversionEnergy) {
  elec::DacConfig cfg;
  cfg.power = 300.0 * u::mW;
  cfg.sample_rate = 6.0 * u::GSa;
  elec::Dac dac(cfg);
  EXPECT_NEAR(0.3 * 1000.0 / 6e9, dac.conversion_energy(1000), 1e-15);
}

TEST(Dac, FullScaleScalesOutput) {
  elec::DacConfig cfg;
  cfg.full_scale = 2.5;
  elec::Dac dac(cfg);
  EXPECT_NEAR(2.5, dac.convert(1.0), 1e-12);
  EXPECT_NEAR(1.25, dac.convert(0.5), 1e-4);
}

TEST(Adc, SignedQuantization) {
  elec::AdcConfig cfg;
  cfg.bits = 8;
  elec::Adc adc(cfg);
  EXPECT_NEAR(0.0, adc.convert(0.0), adc.lsb());
  EXPECT_NEAR(0.5, adc.convert(0.5), adc.lsb());
  EXPECT_NEAR(-0.5, adc.convert(-0.5), adc.lsb());
  EXPECT_DOUBLE_EQ(1.0, adc.convert(1.0));
  EXPECT_DOUBLE_EQ(-1.0, adc.convert(-1.0));
}

TEST(Adc, ClipsBeyondFullScale) {
  elec::Adc adc{elec::AdcConfig{}};
  EXPECT_DOUBLE_EQ(1.0, adc.convert(3.0));
  EXPECT_DOUBLE_EQ(-1.0, adc.convert(-3.0));
}

TEST(Adc, ErrorBoundedByHalfLsb) {
  elec::AdcConfig cfg;
  cfg.bits = 8;
  elec::Adc adc(cfg);
  for (int i = -100; i <= 100; ++i) {
    const double x = i / 100.0;
    EXPECT_LE(std::abs(adc.convert(x) - x), adc.lsb() / 2.0 + 1e-15);
  }
}

TEST(Adc, PaperRateTiming) {
  elec::Adc adc{elec::AdcConfig{}}; // 2.8 GSa/s [17]
  // Digitizing 384 kernel outputs (conv4) takes ~137 ns on one ADC.
  EXPECT_NEAR(384.0 / 2.8e9, adc.conversion_time(384), 1e-12);
}

TEST(Adc, PaperPowerSpec) {
  elec::Adc adc{elec::AdcConfig{}};
  EXPECT_NEAR(44.6 * u::mW, adc.config().power, 1e-6);
}

// --- the inline converters against the std::round formulas ---------------
// Adc::convert and Dac::convert round half away from zero without libm
// (round_half_away). They must return the bits of the std::round formulas
// they replaced, -0.0 and NaN included.

double adc_formula(const elec::Adc& adc, double analog) {
  const double fs = adc.config().full_scale;
  const double x = clamp(analog, -fs, fs);
  const double steps = static_cast<double>(adc.levels() - 1);
  const double code = std::round((x + fs) / (2.0 * fs) * steps);
  return code / steps * 2.0 * fs - fs;
}

double dac_formula(const elec::Dac& dac, double normalized) {
  const double x = clamp(normalized, 0.0, 1.0);
  const double steps = static_cast<double>(dac.levels() - 1);
  return std::round(x * steps) / steps * dac.config().full_scale;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

constexpr int kBitWidths[] = {1, 2, 5, 8, 12, 16, 24};

/// Inputs at and next to every half-code tie of a converter with `bits`
/// (all of them up to 16 bits, an even sample above), plus the clamp edges.
std::vector<double> tie_and_edge_inputs(int bits, double lo, double hi) {
  const std::uint64_t steps = (std::uint64_t{1} << bits) - 1;
  const std::uint64_t stride = bits <= 16 ? 1 : 97;
  std::vector<double> xs;
  for (std::uint64_t j = 0; j < steps; j += stride) {
    const double t = lo + (hi - lo) * ((static_cast<double>(j) + 0.5) /
                                       static_cast<double>(steps));
    xs.push_back(t);
    xs.push_back(std::nextafter(t, -HUGE_VAL));
    xs.push_back(std::nextafter(t, HUGE_VAL));
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double e :
       {lo, hi, 0.0, -0.0, std::nextafter(lo, -inf), std::nextafter(lo, inf),
        std::nextafter(hi, -inf), std::nextafter(hi, inf), 2.0 * lo - 1.0,
        2.0 * hi + 1.0, 1e300, -1e300, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()})
    xs.push_back(e);
  return xs;
}

TEST(RoundHalfAway, MatchesStdRound) {
  // Every exact tie j + 0.5 up to 2^16, a sample up to 2^24, the float
  // boundary 2^52 and the fallback values.
  for (std::uint64_t j = 0; j < (std::uint64_t{1} << 24);
       j += j < (1u << 16) ? 1 : 251) {
    const double tie = static_cast<double>(j) + 0.5;
    for (const double y : {tie, std::nextafter(tie, 0.0),
                           std::nextafter(tie, HUGE_VAL),
                           static_cast<double>(j)}) {
      ASSERT_TRUE(same_bits(std::round(y), round_half_away(y))) << y;
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double y :
       {0.0, -0.0, 0.49999999999999994, 0x1p52 - 0.5, 0x1p52, 0x1p52 + 1.0,
        0x1p53, 1e300, -0.5, -1.5, -2.5, -1e300, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()})
    EXPECT_TRUE(same_bits(std::round(y), round_half_away(y))) << y;
}

TEST(Adc, ConvertMatchesTheStdRoundFormula) {
  Rng rng(2024);
  for (const int bits : kBitWidths) {
    for (const double fs : {1.0, 0.37}) {
      elec::AdcConfig cfg;
      cfg.bits = bits;
      cfg.full_scale = fs;
      const elec::Adc adc(cfg);
      for (const double x : tie_and_edge_inputs(bits, -fs, fs))
        ASSERT_TRUE(same_bits(adc_formula(adc, x), adc.convert(x)))
            << "bits=" << bits << " fs=" << fs << " x=" << x;
      for (int n = 0; n < 100'000; ++n) {
        const double x = rng.uniform(-1.25 * fs, 1.25 * fs);
        ASSERT_TRUE(same_bits(adc_formula(adc, x), adc.convert(x)))
            << "bits=" << bits << " fs=" << fs << " x=" << x;
      }
    }
  }
}

TEST(Dac, ConvertMatchesTheStdRoundFormula) {
  Rng rng(2025);
  for (const int bits : kBitWidths) {
    for (const double fs : {1.0, 2.5}) {
      elec::DacConfig cfg;
      cfg.bits = bits;
      cfg.full_scale = fs;
      const elec::Dac dac(cfg);
      for (const double x : tie_and_edge_inputs(bits, 0.0, 1.0))
        ASSERT_TRUE(same_bits(dac_formula(dac, x), dac.convert(x)))
            << "bits=" << bits << " fs=" << fs << " x=" << x;
      for (int n = 0; n < 100'000; ++n) {
        const double x = rng.uniform(-0.25, 1.25);
        ASSERT_TRUE(same_bits(dac_formula(dac, x), dac.convert(x)))
            << "bits=" << bits << " fs=" << fs << " x=" << x;
      }
    }
  }
}

TEST(Converters, RejectBadConfigs) {
  elec::DacConfig d;
  d.bits = 0;
  EXPECT_THROW(elec::Dac{d}, Error);
  d = {};
  d.sample_rate = 0.0;
  EXPECT_THROW(elec::Dac{d}, Error);
  elec::AdcConfig a;
  a.bits = 30;
  EXPECT_THROW(elec::Adc{a}, Error);
  a = {};
  a.full_scale = 0.0;
  EXPECT_THROW(elec::Adc{a}, Error);
}

} // namespace
