// The engine's programmed-layer store and the serving-path savings around
// it.
//
// A warm call reads a layer's stored bank program instead of rebuilding and
// recalibrating its banks. That is only sound if it is invisible: a warm
// call must return the bits and the EngineStats a fresh engine returns, a
// changed weight must miss the store, and configs whose bank set-up draws
// from the RNG must never store. The fleet shares one timing slot per
// distinct PCU config, which must equal the slot a lone Pcu computes, and
// per-layer reference errors are computed only when asked for.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/pcu.hpp"
#include "runtime/pcu_pool.hpp"

namespace {

using namespace pcnna;
using core::EngineStats;
using core::OpticalConvEngine;
using core::PcnnaConfig;
using nn::Shape4;
using nn::Tensor;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(same_bits(a[i], b[i])) << "element " << i;
}

void expect_same_stats(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.locations, b.locations);
  EXPECT_EQ(a.optical_passes, b.optical_passes);
  EXPECT_EQ(a.dac_conversions, b.dac_conversions);
  EXPECT_EQ(a.adc_conversions, b.adc_conversions);
  EXPECT_EQ(a.patches_streamed, b.patches_streamed);
  EXPECT_EQ(a.noise_draws, b.noise_draws);
  EXPECT_EQ(a.weight_dac_conversions, b.weight_dac_conversions);
  EXPECT_EQ(a.recalibrations, b.recalibrations);
  EXPECT_EQ(a.banks_built, b.banks_built);
  EXPECT_EQ(a.rings_used, b.rings_used);
  EXPECT_EQ(a.wavelengths_used, b.wavelengths_used);
  EXPECT_EQ(a.stuck_rings, b.stuck_rings);
  EXPECT_TRUE(same_bits(a.mean_calibration_error, b.mean_calibration_error));
  EXPECT_TRUE(same_bits(a.max_calibration_error, b.max_calibration_error));
  EXPECT_TRUE(same_bits(a.total_heater_power, b.total_heater_power));
  EXPECT_TRUE(same_bits(a.total_ring_area, b.total_ring_area));
}

/// One engine call: a conv layer, or an FC layer when `fc` is set.
struct Call {
  Tensor input, weights, bias;
  std::size_t stride = 1, pad = 0;
  bool fc = false;

  Tensor run(OpticalConvEngine& engine, std::uint64_t seed,
             EngineStats* stats) const {
    engine.reseed_rng(seed);
    return fc ? engine.fully_connected(input, weights, bias, stats)
              : engine.conv2d(input, weights, bias, stride, pad, stats);
  }
};

Call conv_call(const nn::ConvLayerParams& layer, std::uint64_t seed) {
  Rng rng(seed);
  return Call{nn::make_input(layer, rng), nn::make_conv_weights(layer, rng),
              nn::make_conv_bias(layer, rng), layer.s, layer.p, false};
}

Call fc_call(std::size_t in, std::size_t out, std::uint64_t seed) {
  Rng rng(seed);
  Call c;
  c.input = Tensor(Shape4{1, in, 1, 1});
  nn::fill_uniform(c.input, rng, 0.0, 1.0);
  c.weights = Tensor(Shape4{out, in, 1, 1});
  nn::fill_gaussian(c.weights, rng, 0.0, 0.3);
  c.bias = Tensor(Shape4{1, out, 1, 1});
  nn::fill_gaussian(c.bias, rng, 0.0, 0.1);
  c.fc = true;
  return c;
}

/// The first and second call on one engine each equal a fresh engine's
/// call, in output bits and every EngineStats field; the first call
/// stores the layer.
void expect_warm_equals_cold(const PcnnaConfig& cfg, const Call& call) {
  constexpr std::uint64_t kSeed = 77;
  OpticalConvEngine fresh(cfg);
  EngineStats cold;
  const Tensor want = call.run(fresh, kSeed, &cold);
  ASSERT_GT(cold.banks_built, 0u);

  OpticalConvEngine engine(cfg);
  for (int rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE(rep == 0 ? "first call" : "second call");
    EngineStats got;
    expect_same_bits(want, call.run(engine, kSeed, &got));
    expect_same_stats(cold, got);
    EXPECT_GT(engine.programmed_bytes(), 0u);
  }
}

TEST(ProgramStore, WarmEqualsColdFullKernel) {
  // 3x3x16 = 144 > 96 wavelengths: two segmented groups per bank.
  expect_warm_equals_cold(PcnnaConfig::paper_defaults(),
                          conv_call({"full", 10, 3, 1, 1, 16, 8}, 1));
}

TEST(ProgramStore, WarmEqualsColdPerChannel) {
  const PcnnaConfig cfg = PcnnaConfig::small_core();
  const Call call = conv_call({"per_channel", 10, 5, 2, 1, 6, 4}, 2);
  expect_warm_equals_cold(cfg, call);
}

TEST(ProgramStore, WarmEqualsColdFullyConnected) {
  // 120 inputs over 96 wavelengths: two input slices.
  expect_warm_equals_cold(PcnnaConfig::paper_defaults(), fc_call(120, 12, 3));
}

TEST(ProgramStore, WarmEqualsColdDualRail) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.dual_rail_inputs = true;
  Call call = conv_call({"dual", 8, 3, 1, 1, 2, 4}, 4);
  Rng rng(5);
  nn::fill_gaussian(call.input, rng, 0.0, 0.5);
  ASSERT_LT(call.input.min(), 0.0);
  expect_warm_equals_cold(cfg, call);
}

TEST(ProgramStore, WarmNetworkRunsEqualAFreshAccelerator) {
  Rng rng(6);
  const nn::Network net = nn::lenet5();
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  const Tensor input = nn::make_network_input(net, rng);
  PcnnaConfig fc = PcnnaConfig::paper_defaults();
  fc.accelerate_fc = true;
  for (const PcnnaConfig& cfg :
       {PcnnaConfig::paper_defaults(), PcnnaConfig::small_core(), fc}) {
    core::Accelerator fresh(cfg);
    fresh.reseed_engine(9);
    const core::NetworkRunReport want =
        fresh.run(net, weights, input, true, false);
    core::Accelerator warm(cfg);
    for (int rep = 0; rep < 2; ++rep) {
      warm.reseed_engine(9);
      const core::NetworkRunReport got =
          warm.run(net, weights, input, true, false);
      expect_same_bits(want.output, got.output);
      ASSERT_EQ(want.conv_layers.size(), got.conv_layers.size());
      for (std::size_t i = 0; i < got.conv_layers.size(); ++i)
        expect_same_stats(want.conv_layers[i].engine, got.conv_layers[i].engine);
      ASSERT_EQ(want.fc_layers.size(), got.fc_layers.size());
      for (std::size_t i = 0; i < got.fc_layers.size(); ++i)
        expect_same_stats(want.fc_layers[i].engine, got.fc_layers[i].engine);
    }
  }
}

TEST(ProgramStore, MutatedWeightMissesTheStore) {
  const PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  for (Call call : {conv_call({"full", 10, 3, 1, 1, 16, 8}, 11),
                    fc_call(120, 12, 12)}) {
    SCOPED_TRACE(call.fc ? "fully_connected" : "conv2d");
    OpticalConvEngine engine(cfg);
    const Tensor before = call.run(engine, 21, nullptr);
    const std::size_t stored = engine.programmed_bytes();
    ASSERT_GT(stored, 0u);

    // Same tensor, same address, one value changed.
    const double* address = call.weights.data().data();
    call.weights[call.weights.size() / 2] += 0.25 * call.weights.abs_max();
    ASSERT_EQ(address, call.weights.data().data());

    OpticalConvEngine fresh(cfg);
    const Tensor want = call.run(fresh, 21, nullptr);
    const Tensor got = call.run(engine, 21, nullptr);
    expect_same_bits(want, got);
    EXPECT_EQ(2 * stored, engine.programmed_bytes());
    bool changed = false;
    for (std::size_t i = 0; i < got.size(); ++i)
      changed = changed || !same_bits(got[i], before[i]);
    EXPECT_TRUE(changed) << "the mutated weight did not reach the output";
  }
}

// All-zero weights return the bias on a warm engine too: they draw nothing,
// store nothing and never read a stored layer's weight statistics.
// The weight digest runs eight lanes; a change at any lane position, or in
// the tail past the last full group of eight, must miss the store.
TEST(ProgramStore, ChangeAtEveryDigestLaneMisses) {
  const PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  // 3 kernels x 2 channels x 3 x 3 = 54 weights: six full groups of eight
  // and a six-weight tail.
  Call call = conv_call({"lanes", 6, 3, 1, 1, 2, 3}, 13);
  ASSERT_EQ(54u, call.weights.size());
  OpticalConvEngine engine(cfg);
  call.run(engine, 21, nullptr);
  const std::size_t stored = engine.programmed_bytes();
  ASSERT_GT(stored, 0u);

  std::size_t expected = stored;
  for (const std::size_t i : {16u, 17u, 18u, 19u, 20u, 21u, 22u, 23u, 50u}) {
    SCOPED_TRACE(i);
    call.weights[i] = -call.weights[i] + 0.125 * call.weights.abs_max();
    OpticalConvEngine fresh(cfg);
    expect_same_bits(call.run(fresh, 21, nullptr),
                     call.run(engine, 21, nullptr));
    expected += stored;
    EXPECT_EQ(expected, engine.programmed_bytes()) << "the call hit the store";
  }
}

TEST(ProgramStore, ZeroWeightsReturnTheBiasAndStoreNothing) {
  const PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  for (Call call : {conv_call({"full", 10, 3, 1, 1, 16, 8}, 18),
                    fc_call(120, 12, 19)}) {
    SCOPED_TRACE(call.fc ? "fully_connected" : "conv2d");
    OpticalConvEngine engine(cfg);
    call.run(engine, 22, nullptr);
    const std::size_t stored = engine.programmed_bytes();
    ASSERT_GT(stored, 0u);

    for (std::size_t i = 0; i < call.weights.size(); ++i) call.weights[i] = 0.0;
    engine.reseed_rng(23);
    const Rng::State before = engine.rng_state();
    const Tensor got = call.fc
        ? engine.fully_connected(call.input, call.weights, call.bias)
        : engine.conv2d(call.input, call.weights, call.bias, call.stride,
                        call.pad);
    const Rng::State after = engine.rng_state();
    for (int w = 0; w < 4; ++w) EXPECT_EQ(before.s[w], after.s[w]);
    EXPECT_EQ(stored, engine.programmed_bytes());

    const std::size_t per_k = got.size() / call.bias.size();
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_TRUE(same_bits(call.bias[i / per_k], got[i])) << "element " << i;
  }
}

TEST(ProgramStore, ImpureSetUpNeverStores) {
  PcnnaConfig disorder = PcnnaConfig::paper_defaults();
  disorder.bank.ring.fab_sigma = 0.05 * units::nm;
  PcnnaConfig stuck = PcnnaConfig::paper_defaults();
  stuck.stuck_ring_rate = 0.02;
  PcnnaConfig stuck_small = PcnnaConfig::small_core();
  stuck_small.stuck_ring_rate = 0.02;
  const Call calls[] = {conv_call({"full", 10, 3, 1, 1, 16, 8}, 13),
                        conv_call({"per_channel", 10, 5, 2, 1, 6, 4}, 14),
                        fc_call(120, 12, 15)};
  for (const PcnnaConfig& cfg : {disorder, stuck, stuck_small}) {
    OpticalConvEngine engine(cfg);
    for (const Call& call : calls) {
      EngineStats first, second;
      const Tensor a = call.run(engine, 31, &first);
      const Tensor b = call.run(engine, 31, &second);
      EXPECT_EQ(0u, engine.programmed_bytes());
      expect_same_bits(a, b);
      expect_same_stats(first, second);
    }
  }
}

TEST(ProgramStore, Lenet5StoreSizeIsPinned) {
  Rng rng(16);
  const nn::Network net = nn::lenet5();
  OpticalConvEngine engine(PcnnaConfig::paper_defaults());
  for (const nn::ConvLayerParams& layer : net.conv_layers()) {
    const Call call = conv_call(layer, rng.next_u64());
    call.run(engine, 1, nullptr);
    call.run(engine, 2, nullptr);
  }
  // Per layer: (2 * Nkernel * K responses + G * K baselines) doubles plus
  // G + 1 group offsets. c1: Nkernel 25, K 6, G 1; c3: 150, 16, 2;
  // c5: 400, 120, 5 (96 wavelengths).
  const std::size_t c1 = (2 * 25 + 1) * 6 * 8 + 2 * 8;
  const std::size_t c3 = (2 * 150 + 2) * 16 * 8 + 3 * 8;
  const std::size_t c5 = (2 * 400 + 5) * 120 * 8 + 6 * 8;
  EXPECT_EQ(813992u, c1 + c3 + c5);
  EXPECT_EQ(c1 + c3 + c5, engine.programmed_bytes());
  EXPECT_LE(engine.programmed_bytes(), OpticalConvEngine::kProgramStoreCap);
}

bool same_slot(const runtime::ModelSlot& a, const runtime::ModelSlot& b) {
  return a.net == b.net && a.weights == b.weights &&
         same_bits(a.request_time_serial, b.request_time_serial) &&
         same_bits(a.request_interval, b.request_interval) &&
         same_bits(a.warmup, b.warmup) && same_bits(a.swap_time, b.swap_time) &&
         same_bits(a.request_energy, b.request_energy) &&
         a.split_passes == b.split_passes;
}

TEST(FleetSlots, EqualALonePcusSlots) {
  Rng rng(17);
  const nn::Network lenet = nn::lenet5();
  const nn::NetWeights lenet_w = nn::make_network_weights(lenet, rng);
  const nn::Network tiny = nn::tiny_cnn();
  const nn::NetWeights tiny_w = nn::make_network_weights(tiny, rng);
  const core::TimingFidelity fidelity = core::TimingFidelity::kPaper;

  std::vector<runtime::PcuSpec> specs;
  for (std::size_t i = 0; i < 6; ++i) {
    runtime::PcuSpec spec;
    spec.config = i % 2 == 0 ? PcnnaConfig::paper_defaults()
                             : PcnnaConfig::small_core();
    // An engine-thread override makes a distinct effective config too.
    spec.engine_threads = i == 4 ? 2 : 0;
    specs.push_back(spec);
  }
  runtime::PcuPool pool(specs, fidelity, lenet, lenet_w);
  ASSERT_EQ(1u, pool.register_model(tiny, tiny_w));

  for (std::size_t p = 0; p < pool.size(); ++p) {
    SCOPED_TRACE("PCU " + std::to_string(p));
    const runtime::Pcu& pcu = pool.pcu(p);
    runtime::Pcu alone(p, pcu.config(), fidelity, lenet, lenet_w);
    alone.add_model(tiny, tiny_w);
    EXPECT_TRUE(same_slot(alone.model_slot(0), pcu.model_slot(0)));
    EXPECT_TRUE(same_slot(alone.model_slot(1), pcu.model_slot(1)));
  }
  // The two base configs really do price the model differently.
  EXPECT_FALSE(same_slot(pool.pcu(0).model_slot(0), pool.pcu(1).model_slot(0)));
}

TEST(LayerErrors, OnlyWhenComparingReference) {
  Rng rng(18);
  const nn::Network net = nn::lenet5();
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  const Tensor input = nn::make_network_input(net, rng);
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.accelerate_fc = true;

  core::Accelerator with(cfg), without(cfg);
  with.reseed_engine(3);
  without.reseed_engine(3);
  const core::NetworkRunReport compared = with.run(net, weights, input, true, true);
  const core::NetworkRunReport bare =
      without.run(net, weights, input, true, false);
  expect_same_bits(compared.output, bare.output);

  ASSERT_EQ(3u, bare.conv_layers.size());
  ASSERT_EQ(2u, bare.fc_layers.size());
  for (const auto* layers : {&bare.conv_layers, &bare.fc_layers}) {
    for (const core::LayerRunReport& l : *layers) {
      EXPECT_EQ(0.0, l.max_abs_err_vs_reference) << l.layer_name;
      EXPECT_EQ(0.0, l.rmse_vs_reference) << l.layer_name;
    }
  }
  for (const auto* layers : {&compared.conv_layers, &compared.fc_layers})
    for (const core::LayerRunReport& l : *layers)
      EXPECT_GT(l.max_abs_err_vs_reference, 0.0) << l.layer_name;

  // A pipeline stage carries no reference metrics either.
  without.reseed_engine(3);
  const core::NetworkRunReport stage =
      without.run_range(net, weights, input, 0, 3, true);
  ASSERT_EQ(1u, stage.conv_layers.size());
  EXPECT_EQ(0.0, stage.conv_layers[0].max_abs_err_vs_reference);
  EXPECT_EQ(0.0, stage.conv_layers[0].rmse_vs_reference);
}

} // namespace
