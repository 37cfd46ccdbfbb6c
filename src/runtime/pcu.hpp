// One photonic conv unit (PCU) of the batch-serving fleet.
//
// A Pcu wraps a core::Accelerator replica that can be programmed with any
// of the fleet's registered models and runs one request (or one pipeline
// stage of one) at a time. Since the fleet became heterogeneous, each Pcu
// carries its *own* PcnnaConfig (ring/WDM budget, DAC counts,
// fidelity-limited usable range), its warmup policy, and a free-form
// capability tag — a fleet can mix big-budget PCUs for wide layers with
// small cheap ones. Besides the functional run it prices each request two
// ways:
//
//  * serial: the paper's single-image schedule — every layer pays its
//    weight-bank reprogramming (MRR retuning + thermal settling) before its
//    optical pass (sum of LayerTiming::full_system_time).
//
//  * double-buffered: the Fig. 4 overlap lifted from one layer to the
//    request stream. With a shadow weight-bank set, layer i+1's slow MRR
//    recalibration is loaded while layer i's fast optical pass computes
//    (wrapping around the layer ring across consecutive requests), so each
//    layer contributes max(non-recal work, next layer's recalibration)
//    instead of their sum. The non-recal work is itself floored by the
//    layer's concurrent DRAM stream, which double buffering cannot hide.
//
// Multi-model serving: a Pcu is built with one primary model (id 0) and
// add_model() registers more. All per-request timing/energy constants are
// precomputed per model; switching the *programmed* model on the
// double-buffered schedule costs a weight-bank swap — the full serial
// reprogram Σ layer recalibrations, because the outgoing model's compute
// stream is gone and nothing remains to hide the retuning behind. The swap
// subsumes the pipeline-fill warmup (which is just the first layer's share
// of that same sum). The serial schedule charges every layer's
// recalibration inline on every request, so it never charges a separate
// swap. Who pays a swap when is the admission loop's business
// (PcuPool::simulate_admission tracks the programmed model per PCU).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "nn/network.hpp"
#include "nn/tensor.hpp"
#include "runtime/request_queue.hpp"

namespace pcnna::runtime {

/// When a PCU must (re)pay the one-time double-buffer pipeline fill — the
/// first layer's weight-bank recalibration, which nothing earlier can hide.
/// Only meaningful on the double-buffered schedule; the serial schedule
/// charges every layer's recalibration inline and never adds a warmup.
enum class WarmupPolicy {
  /// Default, and the only pre-heterogeneous behavior: the warmup is paid
  /// on the PCU's first request and re-charged whenever an idle gap drains
  /// the pipeline (service start > previous free time).
  kRechargeAfterIdle,
  /// Persistent calibration: a background keep-alive holds the shadow
  /// banks programmed across idle gaps, so only the very first request
  /// pays the fill. Models a PCU pinned to one network.
  kPinnedAfterFirst,
  /// Conservative bound: every request pays the fill, as if each one
  /// reprogrammed the pipeline from scratch (no persistence at all).
  kAlwaysCold,
};

const char* warmup_policy_name(WarmupPolicy policy);

/// Deterministic engine-phase work counters for one request, summed over
/// every layer of its network run (core::EngineStats per layer). A pure
/// function of (model, config, request seed) — independent of which PCU
/// served the request on a homogeneous fleet, of engine_threads, and of
/// host scheduling — so fleet totals summed in request-id order are
/// bit-stable. All zeros when values were not simulated (timing-only
/// serving never runs the engine).
struct EngineWork {
  std::uint64_t patches_streamed = 0; ///< pixel-sweep patches
  std::uint64_t bank_passes = 0;      ///< optical weight-bank passes
  std::uint64_t noise_draws = 0;      ///< noise-source draws consumed
  std::uint64_t dac_conversions = 0;  ///< input-DAC samples
  std::uint64_t adc_conversions = 0;  ///< output samples digitized

  void add(const core::EngineStats& stats) {
    patches_streamed += stats.patches_streamed;
    bank_passes += stats.optical_passes;
    noise_draws += stats.noise_draws;
    dac_conversions += stats.dac_conversions;
    adc_conversions += stats.adc_conversions;
  }
  EngineWork& operator+=(const EngineWork& other) {
    patches_streamed += other.patches_streamed;
    bank_passes += other.bank_passes;
    noise_draws += other.noise_draws;
    dac_conversions += other.dac_conversions;
    adc_conversions += other.adc_conversions;
    return *this;
  }
};

/// Completed inference for one request. All times are simulated hardware
/// seconds and all energies simulated joules; nothing here depends on the
/// host clock.
struct RequestResult {
  std::uint64_t id = 0;
  /// Index of the PCU that physically served the request. In a homogeneous
  /// fleet this is a wall-clock scheduling detail (the output itself is
  /// PCU-independent); in a heterogeneous fleet it is the deterministic
  /// virtual-time assignment, and the output was produced by *this* PCU's
  /// device model.
  std::size_t pcu_index = 0;
  nn::Tensor output;
  /// Simulated single-request service time, serial schedule [s].
  double service_time_serial = 0.0;
  /// Simulated service time with double-buffered recalibration [s].
  double service_time_overlapped = 0.0;
  /// Simulated energy for the request [J].
  double energy = 0.0;
  /// True when load shedding rejected the request instead of serving it:
  /// the slot is a placeholder (empty output, zero times/energy) that still
  /// carries id, model_id, and tenant so per-tenant/per-model accounting
  /// stays correct.
  bool shed = false;
  /// True when injected faults permanently destroyed the request: every
  /// retry budgeted for it was lost to crashes/corruption (or the whole
  /// fleet died), so the slot is a placeholder like a shed one — empty
  /// output, zero times/energy, but id/model_id/tenant intact.
  bool failed = false;
  /// Registered model the request targeted (valid on shed placeholders too).
  std::uint32_t model_id = 0;
  /// Owning tenant, carried through from the InferenceRequest (valid on
  /// shed placeholders too).
  std::uint32_t tenant = 0;
  /// Engine-phase work counters of the functional run (zeros when values
  /// were not simulated, and on shed/failed placeholders).
  EngineWork work;
};

/// Serving constants for one contiguous op range of a model — one pipeline
/// stage — computed exactly like the whole-model constants but over the
/// range's conv layers. All simulated seconds / joules.
struct StageTimings {
  /// Serial time of the range (Σ layer full_system_time).
  double serial = 0.0;
  /// Steady-state per-image interval with double-buffered recalibration,
  /// wrapping within the range (the stage streams images back-to-back).
  double interval = 0.0;
  /// One-time bank pin: the first image's exposed recalibration (the
  /// range's first layer; later layers hide behind earlier compute). A
  /// pinned stage never re-pays it — pinning *is* kPinnedAfterFirst — and
  /// never swaps, which is the whole point of pipeline parallelism here.
  double pin = 0.0;
  /// Energy per image for the range's conv layers.
  double energy = 0.0;
  /// Capability metric of the range (Σ LayerPlan::cycles_per_location).
  std::size_t split_passes = 0;
};

/// What one op range of a request hands on: the activation leaving the
/// range, plus its simulated energy and engine work. Pcu::serve_stage
/// fills the range's own; the executor adds the earlier stages' before
/// handing it to the next stage or into the RequestResult. Nothing else
/// crosses a stage boundary: each offloaded op keys its noise from (request
/// seed, op index) and bank set-up comes from the serving chip's own
/// stream, so a split run is bit-identical to a whole-network run.
struct StageHandoff {
  nn::Tensor activation;
  double energy = 0.0; ///< [J]
  EngineWork work;
};

/// Per-model serving constants of one PCU configuration plus the borrowed
/// model. A pure function of (config, fidelity, model): a fleet computes
/// one per distinct PCU configuration (make_model_slot) and hands it to
/// every PCU built with that configuration.
struct ModelSlot {
  const nn::Network* net = nullptr;
  const nn::NetWeights* weights = nullptr;
  double request_time_serial = 0.0;
  double request_interval = 0.0;
  double warmup = 0.0;
  double swap_time = 0.0;
  double request_energy = 0.0;
  std::size_t split_passes = 0;
};

/// Serving constants of `net` on a PCU built from `config` at `fidelity`
/// (see the Pcu accessors for each field's meaning). `net`/`weights` are
/// borrowed into the slot. Throws if `config` cannot map the network
/// (SRAM working-set overflow).
ModelSlot make_model_slot(const core::PcnnaConfig& config,
                          core::TimingFidelity fidelity,
                          const nn::Network& net,
                          const nn::NetWeights& weights);

class Pcu {
 public:
  /// Build one unit: `config`/`fidelity` shape the accelerator model,
  /// `net`/`weights` are the primary served model, id 0 (borrowed; must
  /// outlive the Pcu). `warmup` picks the pipeline-fill accounting of the
  /// admission loop and `tag` is a free-form capability label surfaced in
  /// per-PCU report breakdowns ("big", "edge", ...).
  Pcu(std::size_t index, const core::PcnnaConfig& config,
      core::TimingFidelity fidelity, const nn::Network& net,
      const nn::NetWeights& weights,
      WarmupPolicy warmup = WarmupPolicy::kRechargeAfterIdle,
      std::string tag = {});

  /// Same, with the primary model's slot already computed — it must be
  /// make_model_slot(config, fidelity, ...) of the served model. PcuPool
  /// builds every PCU this way, one slot per distinct configuration.
  Pcu(std::size_t index, const core::PcnnaConfig& config,
      core::TimingFidelity fidelity, ModelSlot primary,
      WarmupPolicy warmup = WarmupPolicy::kRechargeAfterIdle,
      std::string tag = {});

  std::size_t index() const { return index_; }
  WarmupPolicy warmup_policy() const { return warmup_policy_; }
  const std::string& tag() const { return tag_; }
  /// This PCU's hardware model (with any engine-thread override applied).
  /// With fidelity(), identifies the PCU's plan-cache configuration key
  /// (core::plan_config_key) — the fault-tolerant admission loop bumps that
  /// key's recalibration epoch when a repair re-trims this PCU's banks.
  const core::PcnnaConfig& config() const { return config_; }
  core::TimingFidelity fidelity() const { return fidelity_; }

  /// Register another model this PCU can be programmed with (borrowed;
  /// must outlive the Pcu). Returns the new model id (dense, starting at
  /// 1 — id 0 is the constructor's primary model). Throws if this PCU's
  /// config cannot map the network (SRAM working-set overflow).
  std::uint32_t add_model(const nn::Network& net,
                          const nn::NetWeights& weights);

  /// Same, with the slot already computed by make_model_slot on this PCU's
  /// config() and fidelity().
  std::uint32_t add_model(ModelSlot slot);

  /// Number of registered models (>= 1).
  std::size_t num_models() const { return models_.size(); }

  /// Run ops [op_begin, op_end) of `model` from `input`, with the
  /// engine's noise keyed from the request's `seed`: one pipeline stage, or
  /// a whole request when the range is every op of the model. The result
  /// depends only on (config, model, range, input, seed), never on what
  /// this PCU served before. Returns the activation leaving the range and
  /// the range's own energy and engine work. `simulate_values` as in
  /// core::Accelerator::run.
  ///
  /// Preconditions: model < num_models(), the range lies within the
  /// model's ops, and `input` matches the model's shape before op_begin
  /// (throws pcnna::Error otherwise). Not thread-safe per Pcu — each Pcu is
  /// owned by exactly one PcuPool worker thread at a time; distinct Pcus
  /// may serve concurrently. Internally the accelerator engine may
  /// additionally fan one request's pixel sweep across
  /// PcnnaConfig::engine_threads workers (BatchRunnerOptions::engine_threads
  /// sets it fleet-wide); that intra-image parallelism is deterministic and
  /// does not change any output bit.
  StageHandoff serve_stage(std::uint32_t model, std::size_t op_begin,
                           std::size_t op_end, const nn::Tensor& input,
                           std::uint64_t seed, bool simulate_values);

  /// Serving constants for the stage [op_begin, op_end) of `model`,
  /// computed on demand from this PCU's timing/energy/plan models (the
  /// same math as the whole-model constants, restricted to the range's
  /// conv layers).
  StageTimings stage_timings(std::uint32_t model, std::size_t op_begin,
                             std::size_t op_end) const;

  /// The registered network behind `model` (borrowed). The pipeline
  /// builder partitions it and validates stage ranges against it.
  const nn::Network& model_network(std::uint32_t model) const {
    return *model_slot(model).net;
  }

  /// All precomputed serving constants of `model` (throws for an
  /// unregistered id). Inline: the admission loop reads several per-model
  /// constants per request.
  const ModelSlot& model_slot(std::uint32_t model) const {
    if (model >= models_.size()) [[unlikely]] throw_no_model(model);
    return models_[model];
  }

  // The accessors below are precomputed per-model constants (set at
  // registration, immutable after), so they are safe to read from any
  // thread — the virtual-time admission loop reads them while workers
  // serve. `model` indexes the registry; the default is the primary model,
  // keeping every pre-multi-model call site unchanged.

  /// Simulated time for one request [s], serial schedule
  /// (Σ layer full_system_time).
  double request_time_serial(std::uint32_t model = 0) const {
    return model_slot(model).request_time_serial;
  }

  /// Simulated steady-state interval between request completions with
  /// double-buffered recalibration [s].
  double request_interval_overlapped(std::uint32_t model = 0) const {
    return model_slot(model).request_interval;
  }

  /// One-time pipeline fill [s]: the first request's first-layer
  /// recalibration, which nothing earlier can hide. When (and how often)
  /// the admission loop re-charges it is governed by warmup_policy().
  double warmup_time(std::uint32_t model = 0) const {
    return model_slot(model).warmup;
  }

  /// Weight-bank swap cost [s]: the full serial reprogram (Σ layer
  /// recalibrations — MRR retuning + thermal settling) this PCU pays on
  /// the double-buffered schedule when it switches to `model` from a
  /// *different* programmed model. The outgoing model's compute stream is
  /// gone, so none of it can hide behind the Fig. 4 overlap; it subsumes
  /// warmup_time() (the first layer's share of the same sum). Always
  /// <= request_interval_overlapped(model): each recalibration appears in
  /// exactly one max() term of the interval sum.
  double swap_time(std::uint32_t model = 0) const {
    return model_slot(model).swap_time;
  }

  /// Simulated energy per request [J] (analytical layer energies;
  /// value-independent).
  double request_energy(std::uint32_t model = 0) const {
    return model_slot(model).request_energy;
  }

  /// Capability metric for dispatch: sequential weight-bank passes per
  /// kernel location this PCU needs for the given model, summed over
  /// conv layers (LayerPlan::cycles_per_location — WDM channel-group
  /// segmentation times any per-channel allocation passes). A receptive
  /// field wider than PcnnaConfig::max_wavelengths splits into sequential
  /// bank passes whose partial sums add electronically, and the
  /// per-channel ring allocation retunes once per input channel, so a
  /// small-budget PCU pays *extra splits* (and time) that a big one does
  /// not. DispatchPolicy::kCapabilityAware skips PCUs whose count exceeds
  /// the fleet minimum for the request's model.
  std::size_t channel_split_passes(std::uint32_t model = 0) const {
    return model_slot(model).split_passes;
  }

 private:
  [[noreturn]] void throw_no_model(std::uint32_t model) const;

  std::size_t index_;
  core::PcnnaConfig config_;
  core::TimingFidelity fidelity_;
  core::Accelerator accelerator_;
  WarmupPolicy warmup_policy_;
  std::string tag_;
  std::vector<ModelSlot> models_;
};

} // namespace pcnna::runtime
