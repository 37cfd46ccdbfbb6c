#include "runtime/pcu.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "core/energy_model.hpp"
#include "core/scheduler.hpp"
#include "core/timing_model.hpp"

namespace pcnna::runtime {

const char* warmup_policy_name(WarmupPolicy policy) {
  switch (policy) {
    case WarmupPolicy::kRechargeAfterIdle: return "recharge-after-idle";
    case WarmupPolicy::kPinnedAfterFirst: return "pinned-after-first";
    case WarmupPolicy::kAlwaysCold: return "always-cold";
  }
  // -Werror=switch makes the switch exhaustive at build time; reaching
  // here means an out-of-range cast, not a missing case.
  throw Error("invalid WarmupPolicy");
}

namespace {

/// Serving constants of a run of conv layers on one config — a whole model
/// (make_model_slot) or one pipeline stage's range (Pcu::stage_timings) —
/// plus the plain sum of their recalibrations (a model's swap cost).
struct LayerPricing {
  StageTimings timings;
  double recal_sum = 0.0;
};

LayerPricing price_layers(const core::PcnnaConfig& config,
                          core::TimingFidelity fidelity,
                          const std::vector<nn::ConvLayerParams>& layers) {
  const core::TimingModel timing(config, fidelity);
  const core::EnergyModel energy(config);
  const core::Scheduler scheduler(config);

  LayerPricing price;
  StageTimings& st = price.timings;
  // Per-layer split into recalibration (hideable behind the previous
  // layer's compute via the shadow bank set) and everything else (floored
  // by the layer's concurrent DRAM stream, which stays exposed).
  std::vector<double> recal(layers.size(), 0.0);
  std::vector<double> nonrecal(layers.size(), 0.0);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const core::LayerTiming t = timing.layer_time(layers[i]);
    recal[i] = t.weight_load_time;
    nonrecal[i] =
        std::max(t.full_system_time - t.weight_load_time, t.dram_time);
    st.serial += t.full_system_time;
    // Capability metric: sequential bank passes per kernel location this
    // config needs for the layer (1 when the receptive field fits a
    // full-kernel bank; channel-group segments x per-channel passes
    // otherwise).
    st.split_passes += scheduler.plan(layers[i]).cycles_per_location;
  }

  // Steady-state interval: layer i's optical pass of image r overlaps the
  // recalibration for layer i+1 — wrapping to the run's first layer for
  // image r+1 at the end, which is what lifts the Fig. 4 overlap from one
  // layer to the whole request stream.
  for (std::size_t i = 0; i < layers.size(); ++i) {
    st.interval += std::max(nonrecal[i], recal[(i + 1) % layers.size()]);
    // Switching the programmed model reprograms every bank with nothing to
    // hide behind: the swap is the plain sum of the recalibrations.
    price.recal_sum += recal[i];
  }
  // A recalibration that was already hidden under its own layer's DRAM
  // stream in the serial schedule can make the sum above exceed the serial
  // time; double buffering can always fall back to the serial schedule, so
  // the interval is capped there.
  st.interval = std::min(st.interval, st.serial);
  st.pin = layers.empty() ? 0.0 : recal.front();

  for (const core::EnergyReport& e : energy.network_energy(layers, fidelity))
    st.energy += e.total();
  return price;
}

} // namespace

ModelSlot make_model_slot(const core::PcnnaConfig& config,
                          core::TimingFidelity fidelity,
                          const nn::Network& net,
                          const nn::NetWeights& weights) {
  const LayerPricing price = price_layers(config, fidelity, net.conv_layers());
  ModelSlot slot;
  slot.net = &net;
  slot.weights = &weights;
  slot.request_time_serial = price.timings.serial;
  slot.request_interval = price.timings.interval;
  slot.warmup = price.timings.pin;
  slot.swap_time = price.recal_sum;
  slot.request_energy = price.timings.energy;
  slot.split_passes = price.timings.split_passes;
  return slot;
}

Pcu::Pcu(std::size_t index, const core::PcnnaConfig& config,
         core::TimingFidelity fidelity, const nn::Network& net,
         const nn::NetWeights& weights, WarmupPolicy warmup, std::string tag)
    : Pcu(index, config, fidelity,
          make_model_slot(config, fidelity, net, weights), warmup,
          std::move(tag)) {}

Pcu::Pcu(std::size_t index, const core::PcnnaConfig& config,
         core::TimingFidelity fidelity, ModelSlot primary, WarmupPolicy warmup,
         std::string tag)
    : index_(index),
      config_(config),
      fidelity_(fidelity),
      accelerator_(config, fidelity),
      warmup_policy_(warmup),
      tag_(std::move(tag)) {
  add_model(primary);
}

std::uint32_t Pcu::add_model(const nn::Network& net,
                             const nn::NetWeights& weights) {
  return add_model(make_model_slot(config_, fidelity_, net, weights));
}

std::uint32_t Pcu::add_model(ModelSlot slot) {
  models_.push_back(slot);
  return static_cast<std::uint32_t>(models_.size() - 1);
}

void Pcu::throw_no_model(std::uint32_t model) const {
  PCNNA_CHECK_MSG(model < models_.size(),
                  "PCU " << index_ << " has " << models_.size()
                         << " registered models, no model " << model);
  std::abort(); // unreachable: model_slot calls this only when the check fails
}

StageTimings Pcu::stage_timings(std::uint32_t model, std::size_t op_begin,
                                std::size_t op_end) const {
  const ModelSlot& slot = model_slot(model);
  const std::vector<nn::LayerOp>& ops = slot.net->ops();
  PCNNA_CHECK_MSG(op_begin <= op_end && op_end <= ops.size(),
                  "stage range [" << op_begin << ", " << op_end
                                  << ") out of bounds for model " << model);
  std::vector<nn::ConvLayerParams> layers;
  for (std::size_t i = op_begin; i < op_end; ++i)
    if (ops[i].kind == nn::OpKind::kConv) layers.push_back(ops[i].conv);

  return price_layers(config_, fidelity_, layers).timings;
}

StageHandoff Pcu::serve_stage(std::uint32_t model, std::size_t op_begin,
                              std::size_t op_end, const nn::Tensor& input,
                              std::uint64_t seed, bool simulate_values) {
  const ModelSlot& slot = model_slot(model);
  accelerator_.reseed_engine(seed);
  core::NetworkRunReport run = accelerator_.run_range(
      *slot.net, *slot.weights, input, op_begin, op_end, simulate_values);

  StageHandoff handoff;
  handoff.activation = std::move(run.output);
  handoff.energy = run.total_energy;
  for (const core::LayerRunReport& l : run.conv_layers)
    handoff.work.add(l.engine);
  for (const core::LayerRunReport& l : run.fc_layers)
    handoff.work.add(l.engine);
  return handoff;
}

} // namespace pcnna::runtime
