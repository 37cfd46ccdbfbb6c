// Configurations and generators shared by the workloads and the traced
// per-layer profile, so the profile replays exactly what a workload runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "nn/network.hpp"
#include "nn/tensor.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/fault_plan.hpp"

namespace perfbench {

namespace core = ::pcnna::core;
namespace nn = ::pcnna::nn;
namespace phot = ::pcnna::phot;
namespace runtime = ::pcnna::runtime;
using ::pcnna::Rng;

// Salts of sub_seed(): one independent generator per input kind.
constexpr std::uint64_t kWeightSalt = 1;
constexpr std::uint64_t kSecondaryWeightSalt = 2;
constexpr std::uint64_t kInputSalt = 3;
constexpr std::uint64_t kRunnerSalt = 4;
constexpr std::uint64_t kSampleSalt = 5;
constexpr std::uint64_t kProfileSalt = 50;
constexpr std::uint64_t kStreamSalt = 100;
constexpr std::uint64_t kHeldOutSalt = 0x4E1D0u;

/// Seed for generator `salt` of a run seeded with `seed` (SplitMix64).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt);
/// The held-out seed a run checks correctness on besides its own.
std::uint64_t held_out_seed(std::uint64_t seed);

/// Largest |ideal engine - golden CPU| accepted on AlexNet's output.
constexpr double kAlexnetTolerance = 1e-9;

// admit_fifo_2048
constexpr std::size_t kFifoPcus = 2048;
constexpr std::size_t kFifoRequests = 50000;
constexpr std::size_t kFifoStreams = 2;
constexpr double kFifoLoad = 0.9;

// admit_multimodel_faults
constexpr std::size_t kMmPcus = 64;
constexpr std::size_t kMmRequests = 500;
constexpr std::size_t kMmStreams = 16;
constexpr double kMmLoad = 1.3;

/// `count` inputs of `net`'s input shape from one generator seeded `seed`.
std::vector<nn::Tensor> make_inputs(const nn::Network& net, std::size_t count,
                                    std::uint64_t seed);

nn::NetWeights lenet5_weights(std::uint64_t seed);
nn::NetWeights alexnet_weights(std::uint64_t seed);
nn::NetWeights tiny_weights(std::uint64_t seed);
nn::Tensor alexnet_input(std::uint64_t seed);

/// lenet5_noisy_fleet's runner options: 4 PCUs, one engine thread each.
runtime::BatchRunnerOptions lenet5_fleet_options(std::uint64_t seed);
/// alexnet_ideal_t4's accelerator config at `threads` engine threads.
core::PcnnaConfig alexnet_config(std::size_t threads);

/// Timing-only least-loaded fleet of `pcus` PCUs serving tiny_cnn.
runtime::BatchRunnerOptions fifo_options(
    std::size_t pcus,
    runtime::DispatchPolicy policy = runtime::DispatchPolicy::kLeastLoaded);
/// Poisson arrivals at kFifoLoad x the runner's fleet capacity.
runtime::ArrivalSchedule fifo_arrivals(runtime::BatchRunner& runner,
                                       std::size_t requests,
                                       std::uint64_t seed);

/// The two models of admit_multimodel_faults: LeNet-5 (id 0) and tiny_cnn.
struct MultiModelModels {
  nn::Network primary;
  nn::NetWeights primary_weights;
  nn::Network secondary;
  nn::NetWeights secondary_weights;
};
MultiModelModels multimodel_models(std::uint64_t seed);

/// Service figures read off a fault-free fleet of the two models.
struct MultiModelLoad {
  double interval = 0.0; ///< LeNet-5's overlapped request interval [s]
  double warmup = 0.0;   ///< LeNet-5's warmup charge [s]
  double rate = 0.0;     ///< offered rate: kMmLoad x the 50/50 mix capacity
};
MultiModelLoad multimodel_load(const MultiModelModels& models);

/// One stream: Poisson arrivals, a 50/50 model mix, a two-tenant SLO mix,
/// and crash-heavy Poisson faults over the arrival horizon.
struct MultiModelStream {
  runtime::ArrivalSchedule arrivals;
  runtime::SloSchedule slos;
  runtime::ModelSchedule models;
  runtime::FaultSchedule faults;
};
MultiModelStream multimodel_stream(const MultiModelLoad& load,
                                   std::size_t requests, std::uint64_t seed);

/// A 64-PCU shedding runner with both models registered. `faults` null
/// runs fault-free; otherwise its schedule is injected with health-aware
/// retry and quarantine. `telemetry` is borrowed and may be null.
std::unique_ptr<runtime::BatchRunner> multimodel_runner(
    const MultiModelModels& models, const MultiModelLoad& load,
    const MultiModelStream* faults, runtime::DispatchPolicy policy,
    runtime::Telemetry* telemetry);

} // namespace perfbench
