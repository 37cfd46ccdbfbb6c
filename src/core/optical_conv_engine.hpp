// Functional simulation of the PCNNA optical core.
//
// Computes a convolution by actually pushing values through the photonic
// component models: inputs are DAC-quantized, imprinted on WDM laser
// channels by MZMs, weighted by calibrated microring banks, summed on
// balanced photodiodes (with RIN/shot/thermal noise), digitized by the ADC,
// and rescaled electronically. Under PcnnaConfig::ideal() the result matches
// the golden CPU convolution to near machine precision; under
// paper_defaults() it quantifies the analog error budget.
//
// Execution follows the paper SS IV exactly: all K kernels are evaluated in
// parallel for one receptive-field location, locations run sequentially,
// and receptive fields wider than the WDM budget are split into segmented
// bank passes whose balanced-photodiode currents wire-sum in analog
// (full-kernel allocation) or into per-channel passes with electronic
// partial-sum accumulation (per-channel allocation).
//
// Hot-path organization (PR 3 rewrite; docs/architecture.md "Engine hot
// path" has the full argument):
//
//  * patch streaming — the DAC quantization and MZM transfer of every input
//    element are evaluated once per layer into a padded transfer plane
//    (zero-padding transfer in the border), and a pixel's receptive field
//    is a gather plane[base(oy, ox) + offsets[r]] through one per-layer
//    table of kernel_size() offsets; nothing per-pixel re-derives
//    per-element values and nothing per pixel is precomputed per call;
//  * layer-lifetime scratch — every buffer the per-pixel loop touches lives
//    in an EngineScratch owned by the engine and reused across pixels,
//    layers, and conv2d calls; the oy/ox loops allocate nothing;
//  * K-panel bank programs and one register-blocked MAC kernel —
//    calibrated drop/through responses are laid out per group in panels of
//    eight kernels, channel-major within a panel, and the MAC keeps a
//    panel's 8 drop and 8 through accumulators in SSE2 registers across the
//    group's channels (narrower kernels take the K % 8 tail panel);
//  * a per-chip set-up stream and a programmed-layer store — fabrication
//    disorder and stuck heaters are drawn from Rng(config.seed), restarted
//    at every programming call, so a layer's program depends only on
//    (config, layer); it is kept per engine and read in place by later
//    calls with the same weights, bit-identical to reprogramming it (see
//    programmed_bytes());
//  * keyed per-pixel noise — each noisy sweep pass takes one key from the
//    engine's noise RNG, and pixel p draws its laser RIN and photodiode
//    noise from its own NormalStream (common/normal_stream.hpp) keyed by
//    (that key, p), so a pixel's noise depends only on (noise seed, sweep,
//    pixel, draw index);
//  * optional deterministic intra-image parallelism — kernel locations are
//    partitioned into fixed tiles across PcnnaConfig::engine_threads
//    workers, noisy or not. Outputs are bit-identical for every thread
//    count: per-pixel accumulation order is unchanged and per-pixel noise
//    does not depend on the tiling. With noise off, outputs are also
//    bit-identical to the frozen pre-rewrite engine in engine_reference.hpp
//    (tests/test_engine_hot_path.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "nn/tensor.hpp"

namespace pcnna::core {

/// Bookkeeping from one engine convolution.
struct EngineStats {
  std::uint64_t locations = 0;
  std::uint64_t optical_passes = 0;    ///< bank passes (fast-clock events)
  std::uint64_t dac_conversions = 0;   ///< input-DAC samples (plan-level)
  std::uint64_t adc_conversions = 0;   ///< output samples digitized
  /// Kernel-location patches streamed through the engine pixel sweep, one
  /// per sweep_pixels location (the per-channel path streams every patch
  /// once per input channel). Filled by the streaming engine only; the
  /// frozen reference engine leaves it zero.
  std::uint64_t patches_streamed = 0;
  /// Standard normals the pixel sweep draws (laser RIN and photodiode
  /// branch noise): pixels * draws_per_pixel when noise is enabled, zero on
  /// the ideal config. A pure function of the layer plan, independent of
  /// engine_threads. Shot-only noise with zero dark current draws nothing
  /// for an exactly-zero branch current; the count stays nominal.
  std::uint64_t noise_draws = 0;
  std::uint64_t weight_dac_conversions = 0;
  std::uint64_t recalibrations = 0;    ///< bank retuning episodes
  std::uint64_t banks_built = 0;
  std::uint64_t rings_used = 0;        ///< total rings in the mapping
  std::uint64_t wavelengths_used = 0;  ///< WDM channels per pass
  std::uint64_t stuck_rings = 0;       ///< injected heater faults
  double mean_calibration_error = 0.0; ///< mean |w_eff - w_target|
  double max_calibration_error = 0.0;
  double total_heater_power = 0.0;     ///< [W] summed over all banks
  double total_ring_area = 0.0;        ///< [m^2]
};

/// Failure injection: freeze each ring's heater at its parked drive with
/// probability PcnnaConfig::stuck_ring_rate.
///
/// Draw-order contract (pinned by EngineRngContract tests): when
/// stuck_ring_rate > 0 this consumes exactly one rng.uniform() per ring, in
/// ascending ring index, regardless of whether the ring ends up stuck; when
/// stuck_ring_rate <= 0 it consumes nothing. The engine calls it only
/// during sequential layer setup (bank construction order) on the chip's
/// set-up stream, never from the pixel loops, so neither intra-image
/// parallelism nor the request seed can perturb fault patterns.
void inject_stuck_faults(const PcnnaConfig& cfg, phot::WeightBank& bank,
                         Rng& rng, EngineStats& st);

/// Empirically measure the symmetric weight range a bank of `channels`
/// rings can represent: program every ring to the positive/negative
/// extreme and probe the middle channel. Accounts for the cumulative
/// through-path insertion loss and crosstalk that the single-ring closed
/// form misses.
///
/// Draw-order contract (pinned by EngineRngContract tests): consumes
/// exactly the fabrication draws of constructing one `channels`-ring bank —
/// one rng.normal() per ring in ascending ring index when
/// bank.ring.fab_sigma > 0, nothing otherwise. The probe calibrations and
/// weight queries draw nothing. The engine calls it first on the chip's
/// set-up stream of every cold programming call, before any layer banks are
/// built.
double measured_usable_range(const PcnnaConfig& cfg, std::size_t channels,
                             Rng& rng);

/// Re-probe variant over an *existing* bank: same hi/lo middle-channel
/// probe as above, but against `bank`'s current physical state — stuck
/// rings (WeightBank::fail_ring, inject_stuck_faults) and accumulated
/// fabrication disorder included — instead of constructing a pristine one.
/// Draws nothing; the probe is two calibrations plus weight queries. The
/// bank's programmed weights are clobbered (it ends at the all-negative
/// extreme); recalibrate afterwards if the bank is still in service.
double measured_usable_range(phot::WeightBank& bank);

/// Layer-lifetime scratch of the engine hot path. Owned by the engine and
/// reused across conv2d calls; per-layer precomputes are rebuilt at the top
/// of each call, per-worker buffers are resized (capacity persists) and
/// nothing inside the per-pixel loops allocates.
struct EngineScratch {
  // --- per-layer precomputes (patch-streaming pipeline) ---
  /// Padded transfer plane: the MZM transmit fraction of every input element
  /// after normalization and (optional) input-DAC quantization, evaluated
  /// once per layer, laid out C x (H + 2p) x (W + 2p) with the transmit
  /// fraction of a zero-padded element in the p-wide border.
  std::vector<double> transfer;
  /// Receptive-field gather offsets into the padded plane: the r-th element
  /// of the field at output (oy, ox) is transfer[base(oy, ox) + offsets[r]]
  /// with base(oy, ox) = (oy * s) * (W + 2p) + ox * s. kernel_size()
  /// entries; receptive-field order matches nn::receptive_field
  /// (channel-major, then ky, then kx).
  std::vector<std::size_t> offsets;
  // The calibrated bank programs the sweep reads are not scratch: they live
  // in the engine's programmed-layer store (or, for a layer the store does
  // not keep, in a program local to the call), read in place.

  // --- calibration staging (layer setup only) ---
  std::vector<double> targets;
  std::vector<phot::WeightBank::ChannelSplit> splits;

  // --- per-worker hot-loop buffers ---
  /// One worker's buffers, carved from one allocation with a cache line of
  /// padding on both sides, so two workers never write to one cache line.
  struct Worker {
    static constexpr std::size_t kPad = 64 / sizeof(double);
    std::vector<double> buf;
    std::size_t group_size = 0;
    std::size_t K = 0;

    void resize(std::size_t group_width, std::size_t kernels) {
      group_size = group_width;
      K = kernels;
      buf.resize(kPad + group_size + 3 * K + kPad);
    }
    /// Modulated powers of one group.
    double* powers() { return buf.data() + kPad; }
    /// Per-kernel drop-bus and through-bus dot products.
    double* drop_acc() { return powers() + group_size; }
    double* thru_acc() { return drop_acc() + K; }
    /// Per-kernel normalized MAC.
    double* acc() { return thru_acc() + K; }
  };
  std::vector<Worker> workers;
};

/// Programmed-layer store of one engine (optical_conv_engine.cpp).
class ProgramStore;

class OpticalConvEngine {
 public:
  /// Byte cap of the programmed-layer store (see programmed_bytes()). The
  /// store never evicts: a layer whose program would take it past the cap
  /// is programmed cold on every call. LeNet-5 takes 0.8 MB and AlexNet's
  /// five conv layers 60.2 MB; AlexNet's FC layers offloaded with
  /// accelerate_fc (~0.9 GB) stay cold.
  static constexpr std::size_t kProgramStoreCap = std::size_t{64} << 20;

  explicit OpticalConvEngine(PcnnaConfig config);
  ~OpticalConvEngine();
  OpticalConvEngine(OpticalConvEngine&&) noexcept;
  OpticalConvEngine& operator=(OpticalConvEngine&&) noexcept;

  const PcnnaConfig& config() const { return config_; }

  /// Photonic convolution with the same contract as nn::conv2d_direct:
  /// `input` [1, C, H, W] (values must be >= 0 — photonic amplitude
  /// encoding; normalize or ReLU first), `weights` [K, C, m, m], optional
  /// `bias` [1, K, 1, 1]. Returns [1, K, Ho, Wo].
  nn::Tensor conv2d(const nn::Tensor& input, const nn::Tensor& weights,
                    const nn::Tensor& bias, std::size_t stride,
                    std::size_t pad, EngineStats* stats = nullptr);

  /// Photonic fully-connected layer (the original broadcast-and-weight use
  /// case, Tait et al.): `weights` [out, in, 1, 1], `bias` [1, out, 1, 1]
  /// (optional), input flattened and non-negative. The input vector maps
  /// onto WDM channel groups; one bank per output neuron; group partial
  /// sums wire-sum in analog before one ADC sample per output.
  nn::Tensor fully_connected(const nn::Tensor& input,
                             const nn::Tensor& weights,
                             const nn::Tensor& bias,
                             EngineStats* stats = nullptr);

  /// Reset the noise RNG, which keys every noisy sweep pass, to the config
  /// seed (makes two runs bit-identical). Bank set-up never reads it.
  void reset_rng() { noise_rng_.reseed(config_.seed); }

  /// Reseed the noise RNG to an explicit seed. The Accelerator reseeds it
  /// before each offloaded op from the request seed and the op index, so an
  /// op's noise is the same no matter which PCU serves it or in what order.
  void reseed_rng(std::uint64_t seed) { noise_rng_.reseed(seed); }

  /// Bytes of calibrated bank programs held by the programmed-layer store:
  /// the transposed drop/through responses, baselines and group offsets of
  /// every stored layer. Zero until a call stores its first layer. Never
  /// exceeds kProgramStoreCap.
  ///
  /// A stored layer is keyed by its weights' shape and bit-pattern digest
  /// and the plan fields programming reads; a later call with the same key
  /// reads the stored program instead of rebuilding and recalibrating its
  /// banks, and reports the same EngineStats as the call that programmed
  /// it. docs/architecture.md "Engine hot path" has the full contract.
  std::size_t programmed_bytes() const;

 private:
  nn::Tensor run_full_kernel(const LayerPlan& plan, const nn::Tensor& input,
                             const nn::Tensor& weights, const nn::Tensor& bias,
                             EngineStats& stats);
  nn::Tensor run_per_channel(const LayerPlan& plan, const nn::Tensor& input,
                             const nn::Tensor& weights, const nn::Tensor& bias,
                             EngineStats& stats);

  /// Decide the worker count for one layer's pixel sweep and make the pool
  /// and per-worker scratch (sized for `group_size` channels and K kernel
  /// accumulators) match it.
  std::size_t prepare_workers(std::size_t pixels, std::size_t group_size,
                              std::size_t K);

  PcnnaConfig config_;
  /// Source of the per-sweep noise keys; bank set-up draws from a local
  /// Rng(config_.seed) instead.
  Rng noise_rng_;
  EngineScratch scratch_;
  std::unique_ptr<ThreadPool> pool_;
  /// Programmed-layer store; null until the first layer is stored.
  std::unique_ptr<ProgramStore> store_;
};

} // namespace pcnna::core
