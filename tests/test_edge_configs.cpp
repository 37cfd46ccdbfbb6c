// Pathological and boundary hardware configurations: the simulator must
// stay correct (or fail loudly) at the edges of the design space.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/optical_conv_engine.hpp"
#include "core/scheduler.hpp"
#include "core/timing_model.hpp"
#include "core/trace.hpp"
#include "nn/conv_ref.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/synth.hpp"
#include "runtime/pcu_pool.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::Scheduler;
using core::TimingFidelity;
using core::TimingModel;

TEST(EdgeConfigs, SingleWavelengthSerializesEverything) {
  // max_wavelengths = 1: every receptive-field value is its own pass.
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.max_wavelengths = 1;
  core::OpticalConvEngine engine(cfg);
  Rng rng(91);
  nn::ConvLayerParams layer{"t", 6, 3, 0, 1, 2, 2};
  const auto input = nn::make_input(layer, rng);
  const auto weights = nn::make_conv_weights(layer, rng);
  core::EngineStats stats;
  const auto out = engine.conv2d(input, weights, {}, 1, 0, &stats);
  const auto ref = nn::conv2d_direct(input, weights, {}, 1, 0);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-6);
  EXPECT_EQ(16u * 18u, stats.optical_passes); // locations * Nkernel
}

TEST(EdgeConfigs, SingleDacSingleAdcStillPlans) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.num_input_dacs = 1;
  cfg.num_adcs = 1;
  const TimingModel model(cfg, TimingFidelity::kFull);
  for (const auto& layer : nn::alexnet_conv_layers()) {
    const auto t = model.layer_time(layer);
    EXPECT_GT(t.full_system_time, 0.0) << layer.name;
    EXPECT_GE(t.full_system_time, t.optical_core_time) << layer.name;
  }
}

TEST(EdgeConfigs, OneByOneKernelLayer) {
  // 1x1 convs (network-in-network style): Nkernel = nc, one value per
  // spatial location per channel.
  core::OpticalConvEngine engine(PcnnaConfig::ideal());
  Rng rng(92);
  nn::ConvLayerParams layer{"pointwise", 6, 1, 0, 1, 8, 4};
  const auto input = nn::make_input(layer, rng);
  const auto weights = nn::make_conv_weights(layer, rng);
  const auto out = engine.conv2d(input, weights, {}, 1, 0);
  const auto ref = nn::conv2d_direct(input, weights, {}, 1, 0);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-6);
}

TEST(EdgeConfigs, KernelCoversWholeInput) {
  // m == n: exactly one location — the conv degenerates to a dot product.
  core::OpticalConvEngine engine(PcnnaConfig::ideal());
  Rng rng(93);
  nn::ConvLayerParams layer{"global", 5, 5, 0, 1, 3, 4};
  const auto input = nn::make_input(layer, rng);
  const auto weights = nn::make_conv_weights(layer, rng);
  core::EngineStats stats;
  const auto out = engine.conv2d(input, weights, {}, 1, 0, &stats);
  const auto ref = nn::conv2d_direct(input, weights, {}, 1, 0);
  EXPECT_EQ(1u, stats.locations);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-6);
}

TEST(EdgeConfigs, SingleKernelLayer) {
  core::OpticalConvEngine engine(PcnnaConfig::ideal());
  Rng rng(94);
  nn::ConvLayerParams layer{"k1", 8, 3, 1, 1, 2, 1};
  const auto input = nn::make_input(layer, rng);
  const auto weights = nn::make_conv_weights(layer, rng);
  const auto out = engine.conv2d(input, weights, {}, 1, 1);
  const auto ref = nn::conv2d_direct(input, weights, {}, 1, 1);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-6);
}

TEST(EdgeConfigs, SlowClockMakesOpticsTheBottleneck) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.fast_clock = 1e6; // 1 MHz "optical" clock
  const TimingModel model(cfg, TimingFidelity::kPaper);
  const auto t = model.layer_time(nn::alexnet_conv_layers()[3]);
  EXPECT_EQ("optical-clock", t.bottleneck);
}

TEST(EdgeConfigs, TinySramRejectsBigLayers) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.sram.capacity_bits = 16.0 * 100; // 100 words
  const Scheduler sched(cfg);
  EXPECT_THROW(sched.plan(nn::alexnet_conv_layers()[1]), Error);
  // conv1's 363-word receptive field also fails at 100 words.
  EXPECT_THROW(sched.plan(nn::alexnet_conv_layers()[0]), Error);
  // A small enough layer still plans.
  nn::ConvLayerParams small{"s", 8, 3, 0, 1, 4, 2}; // 36 words
  EXPECT_NO_THROW(sched.plan(small));
}

TEST(EdgeConfigs, ValidateCatchesNonsense) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.num_input_dacs = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = PcnnaConfig::paper_defaults();
  cfg.stuck_ring_rate = 1.5;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = PcnnaConfig::paper_defaults();
  cfg.max_wavelengths = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(EdgeConfigs, HopelesslyBroadRingsFailLoudly) {
  // Q = 2000 makes the linewidth comparable to the channel spacing: no
  // signed weight range exists, and the engine must refuse (not silently
  // produce garbage).
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_noise = false;
  cfg.bank.ring.q_factor = 2'000.0;
  core::OpticalConvEngine engine(cfg);
  Rng rng(95);
  nn::ConvLayerParams layer{"lowq", 6, 3, 0, 1, 2, 2};
  const auto input = nn::make_input(layer, rng);
  const auto weights = nn::make_conv_weights(layer, rng);
  EXPECT_THROW(engine.conv2d(input, weights, {}, 1, 0), Error);
}

TEST(EdgeConfigs, ModeratelyLowQStillCalibrates) {
  // Q = 8000 is lossy but workable: the range shrinks, calibration copes.
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_noise = false;
  cfg.bank.ring.q_factor = 8'000.0;
  core::OpticalConvEngine engine(cfg);
  Rng rng(95);
  nn::ConvLayerParams layer{"lowq", 6, 3, 0, 1, 2, 2};
  const auto input = nn::make_input(layer, rng);
  const auto weights = nn::make_conv_weights(layer, rng);
  const auto out = engine.conv2d(input, weights, {}, 1, 0);
  const auto ref = nn::conv2d_direct(input, weights, {}, 1, 0);
  EXPECT_LT(nn::max_abs_diff(out, ref), 0.2 * ref.abs_max());
}

TEST(EnumNames, OutOfRangeValuesThrow) {
  // Every enumerator has a name (-Werror=switch); a value cast from outside
  // the enum is a caller bug and fails loudly instead of printing "?".
  EXPECT_STREQ("per-channel",
               core::ring_allocation_name(core::RingAllocation::kPerChannel));
  EXPECT_STREQ("full", core::timing_fidelity_name(TimingFidelity::kFull));
  EXPECT_STREQ("adc", core::trace_event_name(core::TraceEventKind::kAdcSample));
  EXPECT_THROW(core::ring_allocation_name(static_cast<core::RingAllocation>(7)),
               Error);
  EXPECT_THROW(core::timing_fidelity_name(static_cast<TimingFidelity>(-1)),
               Error);
  EXPECT_THROW(nn::op_kind_name(static_cast<nn::OpKind>(99)), Error);
  EXPECT_THROW(core::trace_event_name(static_cast<core::TraceEventKind>(42)),
               Error);
  EXPECT_THROW(
      runtime::dispatch_policy_name(static_cast<runtime::DispatchPolicy>(6)),
      Error);
}

} // namespace
