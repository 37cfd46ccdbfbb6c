// Full-system PCNNA accelerator simulator.
//
// Runs a whole CNN the way the paper's architecture does (SS IV): conv
// layers execute on the (virtually reused) optical core, layer by layer,
// with feature maps round-tripping through off-chip DRAM; everything else
// (ReLU, pooling, LRN, FC, softmax) runs in the electronic domain. Produces
// per-layer timing, energy, and engine statistics, plus numerical-fidelity
// metrics against the golden CPU reference.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/energy_model.hpp"
#include "core/optical_conv_engine.hpp"
#include "core/scheduler.hpp"
#include "core/timing_model.hpp"
#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace pcnna::core {

/// Results for one conv layer of a network run.
struct LayerRunReport {
  std::string layer_name;
  LayerTiming timing;      ///< at the accelerator's configured fidelity
  EnergyReport energy;
  EngineStats engine;      ///< zeros when values were not simulated
  /// Engine output vs golden conv on the same layer input (functional runs).
  double rmse_vs_reference = 0.0;
  double max_abs_err_vs_reference = 0.0;
};

/// Results for a whole network run.
struct NetworkRunReport {
  std::vector<LayerRunReport> conv_layers;
  /// Filled when PcnnaConfig::accelerate_fc is set: FC layers offloaded to
  /// the optical core (modeled as 1x1 convs on a 1x1 feature map).
  std::vector<LayerRunReport> fc_layers;
  nn::Tensor output;          ///< network output (simulated path)
  nn::Tensor reference_output;///< golden CPU output (when compared)
  double total_optical_core_time = 0.0;
  double total_full_system_time = 0.0;
  double total_energy = 0.0;
  /// Final-output fidelity (cumulative error through the whole net).
  double output_rmse = 0.0;
  double output_max_abs_err = 0.0;
  /// True when simulated and reference argmax agree (classification nets).
  bool argmax_match = true;
};

class Accelerator {
 public:
  explicit Accelerator(PcnnaConfig config,
                       TimingFidelity fidelity = TimingFidelity::kPaper);

  const PcnnaConfig& config() const { return config_; }

  /// Set the request seed the engine's noise is keyed from (config.seed
  /// until the first call). Before offloaded op i, run() and run_range()
  /// reseed the engine's noise RNG to
  /// NormalStream::element_key(seed, i), so op i's noise depends only on
  /// (seed, i): not on the PCU, on what ran before, or on where a pipeline
  /// split the network. Bank set-up draws from the chip's own stream and
  /// never reads this seed.
  void reseed_engine(std::uint64_t seed) { request_seed_ = seed; }

  /// Run one conv layer functionally on the optical core.
  nn::Tensor run_conv(const nn::Tensor& input, const nn::Tensor& weights,
                      const nn::Tensor& bias, std::size_t stride,
                      std::size_t pad, LayerRunReport* report = nullptr);

  /// Run a network end to end.
  ///
  /// `simulate_values == true` pushes every conv through the photonic
  /// functional model (slow, exact error accounting); `false` computes conv
  /// values with the golden CPU path but still produces the full timing /
  /// energy / plan reports (fast, for large nets).
  /// `compare_reference` additionally runs the pure CPU reference and fills
  /// the fidelity metrics: the whole-network output_* fields and
  /// argmax_match, and each offloaded layer's *_vs_reference fields (a
  /// golden conv or FC per layer). With it off those fields stay 0 and
  /// the output bits are unchanged.
  NetworkRunReport run(const nn::Network& net, const nn::NetWeights& weights,
                       const nn::Tensor& input, bool simulate_values = true,
                       bool compare_reference = true);

  /// Run the contiguous op range [op_begin, op_end) — one pipeline stage.
  /// `input` must match net.shape_before(op_begin); the report's output is
  /// the activation leaving op_end - 1. run() with compare_reference off
  /// is exactly run_range(0, ops.size()); ranges carry no reference
  /// metrics (no golden layer is run when values are simulated).
  NetworkRunReport run_range(const nn::Network& net,
                             const nn::NetWeights& weights,
                             const nn::Tensor& input, std::size_t op_begin,
                             std::size_t op_end, bool simulate_values = true);

  // Batch timing lives in runtime::BatchRunner / FleetReport: the old
  // Accelerator::run_batch / BatchReport pair was deprecated in PR 3 and
  // deleted in PR 4 (ROADMAP deprecation plan step 3). Field mapping:
  // images -> FleetReport::requests, time_per_image -> request_time_serial,
  // total_time -> makespan_sequential, images_per_second -> sequential_rps,
  // energy_per_image -> energy_per_request.

 private:
  /// run_range body; `layer_errors` fills the per-layer *_vs_reference
  /// fields (run()'s compare_reference).
  NetworkRunReport run_ops(const nn::Network& net,
                           const nn::NetWeights& weights,
                           const nn::Tensor& input, std::size_t op_begin,
                           std::size_t op_end, bool simulate_values,
                           bool layer_errors);

  PcnnaConfig config_;
  TimingFidelity fidelity_;
  Scheduler scheduler_;
  TimingModel timing_;
  EnergyModel energy_;
  OpticalConvEngine engine_;
  std::uint64_t request_seed_;
};

} // namespace pcnna::core
