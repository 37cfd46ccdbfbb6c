#include "scenarios.hpp"

#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/request_queue.hpp"

namespace perfbench {

namespace {

nn::NetWeights weights_for(const nn::Network& net, std::uint64_t seed) {
  Rng rng(seed);
  return nn::make_network_weights(net, rng);
}

} // namespace

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  return runtime::derive_request_seed(seed, salt);
}

std::uint64_t held_out_seed(std::uint64_t seed) {
  return sub_seed(seed, kHeldOutSalt);
}

std::vector<nn::Tensor> make_inputs(const nn::Network& net, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Tensor> inputs;
  for (std::size_t i = 0; i < count; ++i) {
    inputs.push_back(nn::make_network_input(net, rng));
  }
  return inputs;
}

nn::NetWeights lenet5_weights(std::uint64_t seed) {
  return weights_for(nn::lenet5(), sub_seed(seed, kWeightSalt));
}

nn::NetWeights alexnet_weights(std::uint64_t seed) {
  return weights_for(nn::alexnet(), sub_seed(seed, kWeightSalt));
}

nn::NetWeights tiny_weights(std::uint64_t seed) {
  return weights_for(nn::tiny_cnn(), sub_seed(seed, kSecondaryWeightSalt));
}

nn::Tensor alexnet_input(std::uint64_t seed) {
  return make_inputs(nn::alexnet(), 1, sub_seed(seed, kInputSalt)).front();
}

runtime::BatchRunnerOptions lenet5_fleet_options(std::uint64_t seed) {
  runtime::BatchRunnerOptions options;
  options.num_pcus = 4;
  options.engine_threads = 1;
  options.simulate_values = true;
  options.seed = sub_seed(seed, kRunnerSalt);
  return options;
}

core::PcnnaConfig alexnet_config(std::size_t threads) {
  core::PcnnaConfig config = core::PcnnaConfig::ideal();
  config.engine_threads = threads;
  return config;
}

runtime::BatchRunnerOptions fifo_options(std::size_t pcus,
                                         runtime::DispatchPolicy policy) {
  runtime::BatchRunnerOptions options;
  options.num_pcus = pcus;
  options.dispatch = policy;
  options.simulate_values = false;
  return options;
}

runtime::ArrivalSchedule fifo_arrivals(runtime::BatchRunner& runner,
                                       std::size_t requests,
                                       std::uint64_t seed) {
  // Homogeneous fleet: capacity is PCUs / steady-state interval, exactly
  // OpenLoopReport::fleet_capacity_rps.
  const runtime::PcuPool& pool = runner.pool();
  const double capacity = static_cast<double>(pool.size()) /
                          pool.pcu(0).request_interval_overlapped();
  return runtime::poisson_arrivals(requests, kFifoLoad * capacity, seed);
}

MultiModelModels multimodel_models(std::uint64_t seed) {
  MultiModelModels m{nn::lenet5(), lenet5_weights(seed), nn::tiny_cnn(),
                     tiny_weights(seed)};
  return m;
}

MultiModelLoad multimodel_load(const MultiModelModels& models) {
  const auto probe = multimodel_runner(
      models, MultiModelLoad{}, nullptr,
      runtime::DispatchPolicy::kModelAffinity, nullptr);
  const runtime::Pcu& pcu = probe->pool().pcu(0);
  MultiModelLoad load;
  load.interval = pcu.request_interval_overlapped(0);
  load.warmup = pcu.warmup_time(0);
  const double mix_interval =
      0.5 * (pcu.request_interval_overlapped(0) +
             pcu.request_interval_overlapped(1));
  load.rate = kMmLoad * static_cast<double>(kMmPcus) / mix_interval;
  return load;
}

MultiModelStream multimodel_stream(const MultiModelLoad& load,
                                   std::size_t requests, std::uint64_t seed) {
  MultiModelStream st;
  st.arrivals =
      runtime::poisson_arrivals(requests, load.rate, sub_seed(seed, 1));

  st.models.resize(requests);
  Rng pick(sub_seed(seed, 2));
  for (std::uint32_t& m : st.models) m = pick.uniform() < 0.5 ? 0u : 1u;

  std::vector<runtime::TenantClass> mix(2);
  mix[0].tenant = 0;
  mix[0].priority = runtime::PriorityClass::kInteractive;
  mix[0].weight = 0.2;
  mix[0].slo_budget = load.warmup + 6.0 * load.interval;
  mix[1].tenant = 1;
  mix[1].priority = runtime::PriorityClass::kBestEffort;
  mix[1].weight = 0.8;
  mix[1].slo_budget = load.warmup + 60.0 * load.interval;
  st.slos = runtime::assign_tenants(st.arrivals, mix, sub_seed(seed, 3));

  runtime::FaultModel hazard;
  hazard.horizon = st.arrivals.back();
  hazard.mtbf = 0.25 * hazard.horizon;
  hazard.transient_weight = 1.0;
  hazard.degrade_weight = 1.0;
  hazard.crash_weight = 2.0;
  hazard.degrade_severity = 1.5;
  hazard.mean_time_to_repair = hazard.horizon / 20.0;
  st.faults = runtime::poisson_faults(kMmPcus, hazard, sub_seed(seed, 4));
  return st;
}

std::unique_ptr<runtime::BatchRunner> multimodel_runner(
    const MultiModelModels& models, const MultiModelLoad& load,
    const MultiModelStream* faults, runtime::DispatchPolicy policy,
    runtime::Telemetry* telemetry) {
  runtime::BatchRunnerOptions options;
  options.num_pcus = kMmPcus;
  options.simulate_values = false;
  options.dispatch = policy;
  options.shed_expired = true;
  options.telemetry = telemetry;
  if (faults) {
    options.faults.schedule = faults->faults;
    options.faults.health_aware = true;
    options.faults.detection_latency = load.interval;
    options.faults.retry.max_retries = 3;
    options.faults.retry.backoff_base = 0.5 * load.interval;
    options.faults.repair_time = 4.0 * load.interval;
  }
  auto runner = std::make_unique<runtime::BatchRunner>(
      core::PcnnaConfig::paper_defaults(), models.primary,
      models.primary_weights, options);
  runner->register_model(models.secondary, models.secondary_weights);
  return runner;
}

} // namespace perfbench
