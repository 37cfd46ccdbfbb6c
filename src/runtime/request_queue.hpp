// Inference requests and their serving metadata.
//
// The virtual-time admission loop (PcuPool::simulate_admission) walks a
// vector of InferenceRequests in nondecreasing arrival order to charge
// queueing delay deterministically; PcuPool::serve then runs each request
// on the PCU the resulting schedule assigned. Requests carry their own
// engine seed, so an output never depends on which thread computed it.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "nn/tensor.hpp"

namespace pcnna::runtime {

/// Priority class of a request, the strict precedence tier of the
/// SLO-aware admission order (DispatchPolicy::kEdf dispatches classes in
/// this order, earliest deadline first within a class). Lower values are
/// more urgent.
enum class PriorityClass : std::uint8_t {
  kInteractive = 0, ///< user-facing traffic with a tight completion SLO
  kStandard = 1,    ///< default tier
  kBestEffort = 2,  ///< throughput traffic; first to wait and to shed
};

const char* priority_class_name(PriorityClass priority);

/// One inference request: an input feature map plus the identity and RNG
/// seed that make its simulation order-independent, and the serving
/// metadata (tenant, priority class, deadline) the SLO-aware admission
/// loop schedules and sheds by.
struct InferenceRequest {
  /// Dense id in [0, batch); doubles as the slot index for its result.
  std::uint64_t id = 0;
  /// Engine noise/fabrication seed for this request (derive_request_seed).
  std::uint64_t seed = 0;
  /// Simulated arrival timestamp [s]. 0 for the closed-batch path (all
  /// requests present at t = 0); set from an ArrivalSchedule for open-loop
  /// serving. Affects only the virtual-time schedule, never the output.
  double arrival_time = 0.0;
  /// Owning tenant; reports aggregate SLO attainment and shed counts per
  /// tenant. Never interpreted beyond grouping.
  std::uint32_t tenant = 0;
  /// Priority tier for the SLO-aware admission order.
  PriorityClass priority = PriorityClass::kStandard;
  /// Absolute completion deadline [s]; +inf means no SLO. Consumed by the
  /// EDF admission order and by load shedding (a request whose predicted
  /// completion exceeds this is rejected). Never affects the output.
  double deadline = std::numeric_limits<double>::infinity();
  /// Which registered model this request targets (index into the pool's
  /// model registry; 0 is the primary model every pool is built with).
  /// Dispatching a request to a PCU programmed with a different model
  /// charges a weight-bank swap through the double-buffer timing model.
  std::uint32_t model_id = 0;
  nn::Tensor input;
};

/// Per-request serving metadata aligned with an ArrivalSchedule: element i
/// names the tenant, priority class, and absolute deadline of request i
/// (runtime::assign_tenants generates one from a TenantClass mix).
struct RequestSlo {
  std::uint32_t tenant = 0;
  PriorityClass priority = PriorityClass::kStandard;
  /// Absolute completion deadline [s]; +inf = no SLO.
  double deadline = std::numeric_limits<double>::infinity();
};

/// One RequestSlo per request, index-aligned with the ArrivalSchedule.
using SloSchedule = std::vector<RequestSlo>;

/// One model id per request, index-aligned with the ArrivalSchedule:
/// element i names the registered model request i targets. An empty
/// schedule means every request runs the primary model (id 0).
using ModelSchedule = std::vector<std::uint32_t>;

/// Per-request seed derived from the runner's base seed by a SplitMix64
/// mixing step: decorrelated across ids, reproducible from (base, id) alone,
/// and independent of which PCU executes the request.
std::uint64_t derive_request_seed(std::uint64_t base_seed,
                                  std::uint64_t request_id);

} // namespace pcnna::runtime
