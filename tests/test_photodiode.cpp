// Photodiode and balanced detection: responsivity, shot/thermal noise.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "photonics/photodiode.hpp"

namespace {

using namespace pcnna;
namespace u = units;

TEST(Photodiode, IdealCurrentIsResponsivityTimesPower) {
  phot::PhotodiodeConfig cfg;
  cfg.responsivity = 0.8;
  cfg.dark_current = 0.0;
  phot::Photodiode pd(cfg);
  EXPECT_NEAR(0.8e-3, pd.ideal_current(1e-3), 1e-15);
}

TEST(Photodiode, DarkCurrentAdds) {
  phot::PhotodiodeConfig cfg;
  cfg.dark_current = 5e-9;
  phot::Photodiode pd(cfg);
  EXPECT_NEAR(5e-9, pd.ideal_current(0.0), 1e-18);
}

TEST(Photodiode, ZeroBandwidthDeterministic) {
  phot::Photodiode pd{phot::PhotodiodeConfig{}};
  Rng rng(1);
  EXPECT_DOUBLE_EQ(pd.ideal_current(1e-3), pd.detect(1e-3, 0.0, rng));
}

TEST(Photodiode, ShotNoiseScalesWithSqrtCurrent) {
  phot::PhotodiodeConfig cfg;
  cfg.enable_thermal_noise = false;
  cfg.dark_current = 0.0;
  phot::Photodiode pd(cfg);
  const double bw = 5.0 * u::GHz;
  const double i1 = pd.noise_sigma(1e-3, bw);
  const double i4 = pd.noise_sigma(4e-3, bw);
  EXPECT_NEAR(2.0, i4 / i1, 1e-9);
  // Absolute value: sqrt(2 q I B).
  EXPECT_NEAR(std::sqrt(2.0 * u::q_e * 1e-3 * bw), i1, 1e-12);
}

TEST(Photodiode, ThermalNoiseIndependentOfCurrent) {
  phot::PhotodiodeConfig cfg;
  cfg.enable_shot_noise = false;
  phot::Photodiode pd(cfg);
  const double bw = 5.0 * u::GHz;
  EXPECT_DOUBLE_EQ(pd.noise_sigma(1e-3, bw), pd.noise_sigma(9e-3, bw));
  EXPECT_NEAR(std::sqrt(4.0 * u::k_B * cfg.temperature * bw / cfg.load_resistance),
              pd.noise_sigma(1e-3, bw), 1e-12);
}

TEST(Photodiode, MeasuredNoiseMatchesSigma) {
  phot::Photodiode pd{phot::PhotodiodeConfig{}};
  Rng rng(3);
  const double bw = 5.0 * u::GHz;
  const double power = 1e-3;
  std::vector<double> samples(20'000);
  for (double& s : samples) s = pd.detect(power, bw, rng);
  const double expect_mean = pd.ideal_current(power);
  const double expect_sigma = pd.noise_sigma(expect_mean, bw);
  EXPECT_NEAR(expect_mean, mean(samples), 5e-2 * expect_mean);
  EXPECT_NEAR(expect_sigma, stddev(samples), 0.05 * expect_sigma);
}

TEST(Balanced, SubtractsBranches) {
  phot::PhotodiodeConfig cfg;
  cfg.dark_current = 7e-9; // must cancel
  phot::BalancedPhotodiode pd(cfg);
  EXPECT_NEAR(cfg.responsivity * (2e-3 - 0.5e-3), pd.ideal_current(2e-3, 0.5e-3),
              1e-15);
}

TEST(Balanced, SignedOutput) {
  phot::BalancedPhotodiode pd{phot::PhotodiodeConfig{}};
  EXPECT_LT(pd.ideal_current(0.0, 1e-3), 0.0);
  EXPECT_GT(pd.ideal_current(1e-3, 0.0), 0.0);
}

TEST(Balanced, NoiseAccumulatesFromBothBranches) {
  phot::PhotodiodeConfig cfg;
  cfg.enable_shot_noise = false; // thermal only: each branch equal sigma
  phot::BalancedPhotodiode pd(cfg);
  Rng rng(5);
  const double bw = 5.0 * u::GHz;
  std::vector<double> samples(20'000);
  for (double& s : samples) s = pd.detect(1e-3, 1e-3, bw, rng);
  const double one_branch = pd.plus_branch().noise_sigma(0.0, bw);
  EXPECT_NEAR(std::sqrt(2.0) * one_branch, stddev(samples), 0.05 * one_branch);
}

// The plus branch draws its normal first. The powers differ, so the two
// branches' shot-noise sigmas differ and the minus-first order gives other
// bits; repeated detections also cross the Box–Muller spare cache.
TEST(Balanced, PlusBranchDrawsFirst) {
  const phot::PhotodiodeConfig cfg; // shot and thermal noise on
  ASSERT_TRUE(cfg.enable_shot_noise);
  phot::BalancedPhotodiode pd(cfg);
  const double bw = 5.0 * u::GHz;
  const double p_plus = 2e-3, p_minus = 0.25e-3;
  Rng rng(17);
  for (int rep = 0; rep < 3; ++rep) {
    Rng plus_first = rng;
    Rng minus_first = rng;
    const double plus = pd.plus_branch().detect(p_plus, bw, plus_first);
    const double minus = pd.minus_branch().detect(p_minus, bw, plus_first);
    const double m_first = pd.minus_branch().detect(p_minus, bw, minus_first);
    const double p_second = pd.plus_branch().detect(p_plus, bw, minus_first);

    const double got = pd.detect(p_plus, p_minus, bw, rng);
    EXPECT_EQ(plus - minus, got) << "rep " << rep;
    EXPECT_NE(p_second - m_first, got) << "rep " << rep;
    // Both orders draw two normals; the streams stay in step.
    Rng after = rng;
    EXPECT_EQ(plus_first.next_u64(), after.next_u64()) << "rep " << rep;
  }
}

TEST(Photodiode, NegativePowerThrows) {
  phot::Photodiode pd{phot::PhotodiodeConfig{}};
  Rng rng(1);
  EXPECT_THROW(pd.detect(-1e-3, 0.0, rng), Error);
}

} // namespace
