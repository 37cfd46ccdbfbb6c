// The engine's keyed ziggurat noise against the old sampler.
//
// Noisy engine bits no longer match the frozen reference engine, which still
// draws every sample from one serial xoshiro + Box–Muller stream. What must
// still match is the noise itself: over many request seeds, the per-output
// mean and standard deviation of (noisy - noise-free) must agree between the
// two engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/engine_reference.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/conv_params.hpp"
#include "nn/synth.hpp"
#include "nn/tensor.hpp"

namespace {

using namespace pcnna;
using core::OpticalConvEngine;
using core::PcnnaConfig;
using core::ReferenceConvEngine;

constexpr std::size_t kSeeds = 240;

/// Per-output sample moments of the error d = noisy - quiet over seeds: the
/// mean of d and of d^2, and the sample variance of each.
struct ErrorMoments {
  std::vector<double> mean, var, mean_sq, var_sq;

  double sd(std::size_t o) const {
    return std::sqrt(std::max(0.0, mean_sq[o] - mean[o] * mean[o]));
  }
};

template <typename Engine>
ErrorMoments error_moments(Engine& engine, const nn::Tensor& quiet,
                           const nn::Tensor& input, const nn::Tensor& weights,
                           const nn::Tensor& bias,
                           const nn::ConvLayerParams& layer) {
  const std::size_t n = quiet.size();
  std::vector<std::vector<double>> d(n);
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    engine.reseed_rng(1000 + seed);
    const nn::Tensor noisy =
        engine.conv2d(input, weights, bias, layer.s, layer.p);
    for (std::size_t o = 0; o < n; ++o) d[o].push_back(noisy[o] - quiet[o]);
  }
  const double k = static_cast<double>(kSeeds);
  const auto moments = [k](const std::vector<double>& v, double& mean,
                           double& var) {
    double s1 = 0.0, s2 = 0.0;
    for (const double x : v) {
      s1 += x;
      s2 += x * x;
    }
    mean = s1 / k;
    var = std::max(0.0, (s2 / k - mean * mean) * k / (k - 1.0));
  };
  ErrorMoments m;
  for (std::size_t o = 0; o < n; ++o) {
    std::vector<double> sq;
    for (const double x : d[o]) sq.push_back(x * x);
    double mean, var, mean_sq, var_sq;
    moments(d[o], mean, var);
    moments(sq, mean_sq, var_sq);
    m.mean.push_back(mean);
    m.var.push_back(var);
    m.mean_sq.push_back(mean_sq);
    m.var_sq.push_back(var_sq);
  }
  return m;
}

/// Welch z-score of the difference of two sample means; 0 when both samples
/// are constant and equal, infinite when constant and different.
double welch_z(double mean_a, double var_a, double mean_b, double var_b) {
  const double se =
      std::sqrt((var_a + var_b) / static_cast<double>(kSeeds));
  if (se == 0.0) return mean_a == mean_b ? 0.0 : INFINITY;
  return (mean_a - mean_b) / se;
}

/// Compare the error moments of the engine and the frozen reference on one
/// layer under `cfg`.
///
/// Per output, the Welch z-scores of the mean of d and of d^2 (the mean
/// and standard deviation together) stay within 5. Under ADC quantization
/// d takes a few LSB-sized values, so a z-score on counts is the form that
/// holds for rare flips as well as for continuous noise. Pooled over all
/// outputs, the mean z-score of d stays within 0.5 and the RMS standard
/// deviation ratio within 5 %. At these seeds the largest of the 640
/// per-output |z| is ~3.1, the pooled mean z-score under 0.07 and the RMS
/// ratio within 1 % of 1.
void expect_noise_matches_reference(const PcnnaConfig& cfg) {
  const nn::ConvLayerParams layer{"noise", 8, 3, 1, 1, 3, 5};
  Rng rng(42);
  const nn::Tensor input = nn::make_input(layer, rng);
  const nn::Tensor weights = nn::make_conv_weights(layer, rng);
  const nn::Tensor bias = nn::make_conv_bias(layer, rng);

  PcnnaConfig quiet_cfg = cfg;
  quiet_cfg.enable_noise = false;
  const nn::Tensor quiet = OpticalConvEngine(quiet_cfg).conv2d(
      input, weights, bias, layer.s, layer.p);

  OpticalConvEngine engine(cfg);
  ReferenceConvEngine reference(cfg);
  const ErrorMoments got =
      error_moments(engine, quiet, input, weights, bias, layer);
  const ErrorMoments want =
      error_moments(reference, quiet, input, weights, bias, layer);

  const std::size_t n = quiet.size();
  double sum_z = 0.0, got_var = 0.0, want_var = 0.0;
  for (std::size_t o = 0; o < n; ++o) {
    SCOPED_TRACE(o);
    const double z_mean =
        welch_z(got.mean[o], got.var[o], want.mean[o], want.var[o]);
    const double z_sq =
        welch_z(got.mean_sq[o], got.var_sq[o], want.mean_sq[o], want.var_sq[o]);
    EXPECT_LT(std::abs(z_mean), 5.0);
    EXPECT_LT(std::abs(z_sq), 5.0);
    sum_z += z_mean;
    got_var += got.sd(o) * got.sd(o);
    want_var += want.sd(o) * want.sd(o);
  }
  ASSERT_GT(want_var, 0.0) << "the reference drew no visible noise";
  EXPECT_LT(std::abs(sum_z / static_cast<double>(n)), 0.5);
  EXPECT_LT(std::abs(std::sqrt(got_var / want_var) - 1.0), 0.05);
}

TEST(EngineNoise, ErrorMomentsMatchTheOldSamplerPaperDefaults) {
  expect_noise_matches_reference(PcnnaConfig::paper_defaults());
}

// Without ADC quantization d is the analog noise itself, continuous at
// every output.
TEST(EngineNoise, ErrorMomentsMatchTheOldSamplerUnquantized) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_quantization = false;
  expect_noise_matches_reference(cfg);
}

} // namespace
