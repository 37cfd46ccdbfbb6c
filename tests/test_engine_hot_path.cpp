// The engine hot path: A/B bit-identity against the frozen reference engine
// (the ideal-path oracle: every noise-free case, EngineStats included),
// thread-count bit-identity of the keyed per-pixel noise, scratch-buffer
// reuse, and the pinned RNG draw-order contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/engine_reference.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/conv_params.hpp"
#include "nn/conv_ref.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "nn/tensor.hpp"
#include "runtime/batch_runner.hpp"

namespace {

using namespace pcnna;
using core::EngineStats;
using core::OpticalConvEngine;
using core::PcnnaConfig;
using core::ReferenceConvEngine;
using core::RingAllocation;

const nn::ConvLayerParams kLayerA{"hotA", 8, 3, 1, 1, 3, 5};
const nn::ConvLayerParams kLayerB{"hotB", 12, 5, 2, 2, 2, 4};

struct LayerData {
  nn::Tensor input, weights, bias;
};

LayerData make_data(const nn::ConvLayerParams& layer, std::uint64_t seed = 42,
                    bool signed_input = false) {
  Rng rng(seed);
  LayerData d;
  d.input = nn::make_input(layer, rng);
  if (signed_input) {
    for (std::size_t i = 0; i < d.input.size(); ++i)
      d.input[i] = rng.uniform(-1.0, 1.0);
  }
  d.weights = nn::make_conv_weights(layer, rng);
  d.bias = nn::make_conv_bias(layer, rng);
  return d;
}

void expect_stats_equal(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.locations, b.locations);
  EXPECT_EQ(a.optical_passes, b.optical_passes);
  EXPECT_EQ(a.dac_conversions, b.dac_conversions);
  EXPECT_EQ(a.adc_conversions, b.adc_conversions);
  EXPECT_EQ(a.weight_dac_conversions, b.weight_dac_conversions);
  EXPECT_EQ(a.recalibrations, b.recalibrations);
  EXPECT_EQ(a.banks_built, b.banks_built);
  EXPECT_EQ(a.rings_used, b.rings_used);
  EXPECT_EQ(a.wavelengths_used, b.wavelengths_used);
  EXPECT_EQ(a.stuck_rings, b.stuck_rings);
  EXPECT_EQ(a.mean_calibration_error, b.mean_calibration_error);
  EXPECT_EQ(a.max_calibration_error, b.max_calibration_error);
  EXPECT_EQ(a.total_heater_power, b.total_heater_power);
  EXPECT_EQ(a.total_ring_area, b.total_ring_area);
}

/// Run the frozen reference and the rewritten engine on the same layer with
/// engine_threads in {1, 2, 4}; every variant must be bit-identical.
void expect_ab_identity(PcnnaConfig cfg, const nn::ConvLayerParams& layer,
                        bool signed_input = false) {
  ASSERT_FALSE(cfg.enable_noise) << "noisy bits differ from the reference";
  const LayerData d = make_data(layer, 42, signed_input);
  ReferenceConvEngine reference(cfg);
  EngineStats ref_stats;
  const nn::Tensor expected =
      reference.conv2d(d.input, d.weights, d.bias, layer.s, layer.p, &ref_stats);

  for (std::size_t threads : {1u, 2u, 4u}) {
    PcnnaConfig tcfg = cfg;
    tcfg.engine_threads = threads;
    OpticalConvEngine engine(tcfg);
    EngineStats stats;
    const nn::Tensor got =
        engine.conv2d(d.input, d.weights, d.bias, layer.s, layer.p, &stats);
    EXPECT_TRUE(expected == got)
        << "threads=" << threads
        << " max|diff|=" << nn::max_abs_diff(expected, got);
    expect_stats_equal(ref_stats, stats);
  }
}

/// A noisy config keeps two oracles. Its noise-free twin (enable_noise =
/// false, every other knob kept) must match the frozen reference bitwise,
/// EngineStats included. With noise on, the output and EngineStats must be
/// bitwise equal at engine_threads 1, 2 and 4, set-up stats must still match
/// the reference, and the noise must reach the output.
void expect_noisy_contract(const PcnnaConfig& cfg,
                           const nn::ConvLayerParams& layer,
                           bool signed_input = false) {
  ASSERT_TRUE(cfg.enable_noise);
  PcnnaConfig quiet_cfg = cfg;
  quiet_cfg.enable_noise = false;
  {
    SCOPED_TRACE("noise off vs the frozen reference");
    expect_ab_identity(quiet_cfg, layer, signed_input);
  }

  const LayerData d = make_data(layer, 42, signed_input);
  ReferenceConvEngine reference(cfg);
  EngineStats ref_stats;
  reference.conv2d(d.input, d.weights, d.bias, layer.s, layer.p, &ref_stats);
  OpticalConvEngine quiet(quiet_cfg);
  const nn::Tensor silent =
      quiet.conv2d(d.input, d.weights, d.bias, layer.s, layer.p);

  nn::Tensor t1;
  EngineStats t1_stats;
  for (std::size_t threads : {1u, 2u, 4u}) {
    PcnnaConfig tcfg = cfg;
    tcfg.engine_threads = threads;
    OpticalConvEngine engine(tcfg);
    EngineStats stats;
    const nn::Tensor got =
        engine.conv2d(d.input, d.weights, d.bias, layer.s, layer.p, &stats);
    expect_stats_equal(ref_stats, stats);
    if (threads == 1) {
      t1 = got;
      t1_stats = stats;
      EXPECT_FALSE(got == silent) << "noise did not reach the output";
      EXPECT_GT(stats.noise_draws, 0u);
      continue;
    }
    EXPECT_TRUE(t1 == got) << "threads=" << threads
                           << " max|diff|=" << nn::max_abs_diff(t1, got);
    EXPECT_EQ(t1_stats.noise_draws, stats.noise_draws);
    EXPECT_EQ(t1_stats.patches_streamed, stats.patches_streamed);
  }
}

TEST(EngineAbIdentity, IdealConfig) {
  expect_ab_identity(PcnnaConfig::ideal(), kLayerA);
}

TEST(EngineAbIdentity, PaperDefaultsNoiseAndQuantization) {
  expect_noisy_contract(PcnnaConfig::paper_defaults(), kLayerA);
}

TEST(EngineAbIdentity, SecondLayerShape) {
  expect_noisy_contract(PcnnaConfig::paper_defaults(), kLayerB);
}

TEST(EngineAbIdentity, QuantizationOnly) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_noise = false;
  expect_ab_identity(cfg, kLayerA);
}

TEST(EngineAbIdentity, NoiseOnly) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_quantization = false;
  expect_noisy_contract(cfg, kLayerA);
}

TEST(EngineAbIdentity, StuckRingFaults) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.stuck_ring_rate = 0.1;
  expect_noisy_contract(cfg, kLayerA);
}

TEST(EngineAbIdentity, PerChannelAllocation) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.allocation = RingAllocation::kPerChannel;
  expect_noisy_contract(cfg, kLayerA);
}

TEST(EngineAbIdentity, PerChannelIdeal) {
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.allocation = RingAllocation::kPerChannel;
  expect_ab_identity(cfg, kLayerA);
}

TEST(EngineAbIdentity, DualRailSignedInputs) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.dual_rail_inputs = true;
  expect_noisy_contract(cfg, kLayerA, /*signed_input=*/true);
}

TEST(EngineAbIdentity, WideReceptiveFieldSplitsIntoGroups) {
  // nc * m * m = 128 > max_wavelengths forces multiple group slices.
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.max_wavelengths = 48;
  const nn::ConvLayerParams wide{"wide", 6, 4, 1, 1, 8, 3};
  expect_noisy_contract(cfg, wide);
}

// Shot noise with zero dark current makes a pixel's draw count depend on
// its data (a branch with zero current draws nothing). Each pixel owns its
// noise stream, so this config runs in parallel like any other and stays
// bit-identical across thread counts.
TEST(EngineAbIdentity, ShotOnlyZeroDarkThreadsBitIdentical) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.photodiode.enable_thermal_noise = false;
  cfg.bank.photodiode.dark_current = 0.0;
  expect_noisy_contract(cfg, kLayerA);
}

// The MAC kernel runs K in panels of eight kernels plus one narrower tail
// panel. Every panel width and tail (K = 1, 2, 3, 7, 8, 9, 16, 17, 120)
// over receptive fields split into several WDM groups, on the ideal and the
// quantization-only config, must match the frozen reference bitwise.
TEST(EngineAbIdentity, KernelPanelWidthsAcrossGroups) {
  PcnnaConfig quant = PcnnaConfig::paper_defaults();
  quant.enable_noise = false;
  for (PcnnaConfig cfg : {PcnnaConfig::ideal(), quant}) {
    // nc * m * m = 45 over at most 20 wavelengths: three groups.
    cfg.max_wavelengths = 20;
    for (const std::uint64_t K : {1u, 2u, 3u, 7u, 8u, 9u, 16u, 17u, 120u}) {
      SCOPED_TRACE(testing::Message() << "quantization="
                                      << cfg.enable_quantization
                                      << " K=" << K);
      expect_ab_identity(cfg, {"panels", 5, 3, 1, 1, 5, K});
    }
  }
}

// Per-channel passes read the padded plane from channel c's offsets; with
// padding 2 and stride 2 the border and the strided bases are exercised.
TEST(EngineAbIdentity, PerChannelPaddedStrided) {
  PcnnaConfig quant = PcnnaConfig::paper_defaults();
  quant.enable_noise = false;
  for (PcnnaConfig cfg : {PcnnaConfig::ideal(), quant}) {
    cfg.allocation = RingAllocation::kPerChannel;
    cfg.max_wavelengths = 16; // 25-element channel fields split in two
    SCOPED_TRACE(testing::Message()
                 << "quantization=" << cfg.enable_quantization);
    expect_ab_identity(cfg, {"pc_strided", 11, 5, 2, 2, 3, 9});
  }
}

// --- scratch-buffer reuse -------------------------------------------------
// One engine instance serving different layers (and the same layer twice)
// must produce outputs bit-identical to a fresh engine per call. The RNG is
// reset between calls (the serving runtime's per-request reseed pattern) so
// the only thing that could differ is stale scratch state.
TEST(EngineScratchReuse, AcrossLayersAndRepeatsBitIdentical) {
  for (std::size_t threads : {1u, 4u}) {
    PcnnaConfig cfg = PcnnaConfig::paper_defaults();
    cfg.engine_threads = threads;

    const LayerData a = make_data(kLayerA);
    const LayerData b = make_data(kLayerB, 7);

    OpticalConvEngine shared(cfg);
    const nn::Tensor out_a1 =
        shared.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
    shared.reset_rng();
    const nn::Tensor out_b =
        shared.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p);
    shared.reset_rng();
    const nn::Tensor out_a2 =
        shared.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);

    OpticalConvEngine fresh_a(cfg);
    const nn::Tensor want_a =
        fresh_a.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
    OpticalConvEngine fresh_b(cfg);
    const nn::Tensor want_b =
        fresh_b.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p);

    EXPECT_TRUE(want_a == out_a1) << "threads=" << threads;
    EXPECT_TRUE(want_b == out_b) << "threads=" << threads;
    EXPECT_TRUE(want_a == out_a2)
        << "threads=" << threads << " (same layer twice through one engine)";
  }
}

TEST(EngineScratchReuse, PerChannelAllocationAcrossLayers) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.allocation = RingAllocation::kPerChannel;
  cfg.engine_threads = 4;

  const LayerData a = make_data(kLayerA);
  const LayerData b = make_data(kLayerB, 7);

  OpticalConvEngine shared(cfg);
  const nn::Tensor out_a =
      shared.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
  shared.reset_rng();
  const nn::Tensor out_b =
      shared.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p);

  OpticalConvEngine fresh_a(cfg), fresh_b(cfg);
  EXPECT_TRUE(out_a ==
              fresh_a.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p));
  EXPECT_TRUE(out_b ==
              fresh_b.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p));
}

// After a threaded noisy conv, the noise RNG must sit at exactly the same
// state as after a sequential one — each sweep takes one noise key from the
// generator at every thread count. Proven by running a second conv
// afterwards.
TEST(EngineScratchReuse, RngStateUnperturbedByThreads) {
  const LayerData a = make_data(kLayerA);

  PcnnaConfig seq = PcnnaConfig::paper_defaults();
  OpticalConvEngine sequential(seq);
  const nn::Tensor s1 =
      sequential.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
  const nn::Tensor s2 =
      sequential.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);

  PcnnaConfig par = seq;
  par.engine_threads = 4;
  OpticalConvEngine threaded(par);
  const nn::Tensor t1 =
      threaded.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
  const nn::Tensor t2 =
      threaded.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);

  EXPECT_TRUE(s1 == t1);
  EXPECT_TRUE(s2 == t2); // second conv continues from identical RNG state
  EXPECT_FALSE(s1 == s2); // noise: consecutive runs differ without reseed
}

// BatchRunnerOptions::engine_threads threads intra-image parallelism
// through the serving fleet; served outputs must stay bit-identical to the
// single-threaded fleet.
TEST(EngineScratchReuse, BatchRunnerEngineThreadsBitIdentical) {
  const nn::Network net = nn::tiny_cnn();
  Rng rng(19);
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  std::vector<nn::Tensor> inputs;
  for (std::size_t i = 0; i < 3; ++i)
    inputs.push_back(nn::make_network_input(net, rng));

  runtime::BatchRunnerOptions base;
  base.num_pcus = 2;
  base.seed = 3;
  runtime::BatchRunner plain(PcnnaConfig::paper_defaults(), net, weights,
                             base);
  const auto expected = plain.run(inputs);

  runtime::BatchRunnerOptions threaded = base;
  threaded.engine_threads = 2;
  runtime::BatchRunner fleet(PcnnaConfig::paper_defaults(), net, weights,
                             threaded);
  const auto got = fleet.run(inputs);

  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_TRUE(expected[i].output == got[i].output) << "request " << i;
}

// --- pinned RNG draw-order contracts ---------------------------------------
// inject_stuck_faults: exactly one uniform per ring, ascending ring index,
// regardless of outcome. A manual replica driven by a second RNG at the
// same seed must reproduce the stuck pattern and leave its generator at the
// identical state.
TEST(EngineRngContract, InjectStuckFaultsDrawOrderPinned) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.stuck_ring_rate = 0.4;
  const std::size_t channels = 9;

  Rng bank_rng(5);
  phot::WeightBank bank(phot::WdmGrid(channels), cfg.bank, bank_rng);

  Rng draw(11);
  Rng replica = draw; // value copy: identical stream
  EngineStats st;
  core::inject_stuck_faults(cfg, bank, draw, st);

  std::size_t expected_stuck = 0;
  for (std::size_t i = 0; i < channels; ++i) {
    const bool stuck = replica.uniform() < cfg.stuck_ring_rate;
    if (stuck) ++expected_stuck;
    EXPECT_EQ(stuck, bank.ring(i).stuck()) << "ring " << i;
  }
  EXPECT_EQ(expected_stuck, st.stuck_rings);
  EXPECT_EQ(expected_stuck, bank.stuck_rings());
  // Both generators consumed exactly `channels` uniforms.
  EXPECT_EQ(replica.next_u64(), draw.next_u64());
}

TEST(EngineRngContract, InjectStuckFaultsZeroRateDrawsNothing) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.stuck_ring_rate = 0.0;
  Rng bank_rng(5);
  phot::WeightBank bank(phot::WdmGrid(4), cfg.bank, bank_rng);
  Rng draw(11);
  Rng replica = draw;
  EngineStats st;
  core::inject_stuck_faults(cfg, bank, draw, st);
  EXPECT_EQ(0u, st.stuck_rings);
  EXPECT_EQ(replica.next_u64(), draw.next_u64());
}

// measured_usable_range: consumes exactly the fabrication draws of one
// bank construction (one normal per ring when fab_sigma > 0); the probe
// calibrations draw nothing.
TEST(EngineRngContract, MeasuredUsableRangeDrawOrderPinned) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.ring.fab_sigma = 0.05e-9; // enable fabrication disorder draws
  const std::size_t channels = 7;

  Rng draw(21);
  Rng replica = draw;
  const double usable = core::measured_usable_range(cfg, channels, draw);
  EXPECT_GT(usable, 0.0);

  // Replica: construct the same bank (fab draws only), no calibration.
  phot::WeightBank bank(phot::WdmGrid(channels), cfg.bank, replica);
  EXPECT_EQ(replica.next_u64(), draw.next_u64());
}

TEST(EngineRngContract, MeasuredUsableRangeZeroFabSigmaDrawsNothing) {
  PcnnaConfig cfg = PcnnaConfig::ideal(); // fab_sigma = 0
  ASSERT_EQ(0.0, cfg.bank.ring.fab_sigma);
  Rng draw(33);
  Rng replica = draw;
  core::measured_usable_range(cfg, 5, draw);
  EXPECT_EQ(replica.next_u64(), draw.next_u64());
}

} // namespace
