// The benchmark's four workloads and the traced per-layer profile.
//
// Every workload builds its own inputs, arrivals, tenants, and faults from
// the run's seed, times its calls into the library for the requested
// number of seconds, and checks the outputs it got. README.md says why
// each workload exists and which per-layer metric should move it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "nn/tensor.hpp"
#include "runtime/batch_runner.hpp"
#include "scenarios.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run `options.workload`'s timed loop and fill `e2e` with its end-to-end
/// metrics. With a tracer, every input is served twice in a row — once
/// inside a span, once bare, alternating which goes first — and the median
/// paired ratio is added to `layer` as trace.overhead_ratio.
void run_workload(const RunOptions& options, Checks& checks, MetricTable& e2e,
                  Tracer* tracer, MetricTable& layer);

/// The traced run's per-layer profile: replays each conv layer of LeNet-5
/// and AlexNet through the engine (full, one-output-pixel, noise-off),
/// nn::conv2d_direct and nn::conv2d_im2col, and each other op through its
/// nn function; times WeightBank::calibrate,
/// whole AlexNet images at 4 and 1 engine threads, a LeNet-5 fleet batch
/// against its serial run_one() calls, the admission policy x fleet-size
/// grid, the multi-model stream under kEdf and without faults, and
/// telemetry on/off pairs. Every per-layer metric is derived from the
/// recorded spans.
void run_layer_profile(const RunOptions& options, Checks& checks,
                       Tracer& tracer, MetricTable& layer);

// --- checks shared by the workloads and the self-tests ---

/// Counts a failure unless `a` and `b` have equal shapes and bitwise-equal
/// values.
bool check_same_output(Checks& checks, const nn::Tensor& a,
                       const nn::Tensor& b, const std::string& what);

/// Counts a failure unless the report accounts for every offered request:
/// served + shed + failed == requests == `offered`.
bool check_conservation(Checks& checks, const runtime::OpenLoopReport& report,
                        std::size_t offered, const std::string& what);

/// The modeled (virtual-time) fields of an open-loop report that must be
/// bitwise identical whenever the same stream is simulated again.
struct VirtFields {
  double p99 = 0.0;
  double busy_per_served = 0.0; ///< mean modeled service seconds per request
  double slo_attainment = 0.0;
  double makespan = 0.0;
  std::size_t served = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
};
VirtFields virt_fields(const runtime::OpenLoopReport& report);
bool bitwise_equal(const VirtFields& a, const VirtFields& b);

} // namespace perfbench
