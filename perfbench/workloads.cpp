#include "workloads.hpp"

#include <bit>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/accelerator.hpp"
#include "nn/conv_ref.hpp"
#include "nn/models.hpp"
#include "scenarios.hpp"

namespace perfbench {
namespace {

using runtime::BatchRunner;

// Every set-up is repeated and its median reported, so one slow
// construction does not move setup_s.
constexpr int kSetupRepeats = 15;

/// Time `make()` kSetupRepeats times in batches of `batch` calls, pushing
/// the per-call seconds of each batch onto `setup_s`. Batching keeps a
/// sub-microsecond construction above timer resolution; the batch's
/// objects are destroyed outside the timed region. Returns the last one.
template <class Make>
auto timed_setup(std::size_t batch, std::vector<double>& setup_s, Make&& make) {
  using Made = decltype(make());
  Made last{};
  for (int i = 0; i < kSetupRepeats; ++i) {
    std::vector<Made> made;
    made.reserve(batch);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < batch; ++k) made.push_back(make());
    setup_s.push_back(seconds_since(t0) / static_cast<double>(batch));
    last = std::move(made.back());
  }
  return last;
}

/// Per-call record of a timed loop.
struct LoopStats {
  std::vector<double> call_s;     ///< host seconds of every completed call
  std::vector<double> per_unit_s; ///< call seconds / units of that call
  std::size_t units = 0;          ///< images or requests completed
  double busy_s = 0.0;            ///< sum of call_s
  /// (traced, bare) seconds of the same input, traced mode only.
  std::vector<std::pair<double, double>> traced_bare;
};

/// Serve inputs 0, 1, 2, ... through `call` until `seconds` have passed and
/// at least `min_inputs` inputs were served. `call(input)` returns the
/// units it completed and checks its own outputs; a throw counts as a
/// failed call. With a tracer each input is served twice (see
/// run_workload).
template <class Call>
LoopStats timed_loop(const RunOptions& options, std::size_t min_inputs,
                     Checks& checks, Tracer* tracer, const char* span_name,
                     Call&& call) {
  LoopStats stats;
  const auto start = Clock::now();
  for (std::size_t input = 0;
       input < min_inputs || seconds_since(start) < options.seconds;
       ++input) {
    const int passes = tracer ? 2 : 1;
    double traced_s = -1.0, bare_s = -1.0;
    for (int pass = 0; pass < passes; ++pass) {
      const bool traced = tracer && ((pass == 0) == (input % 2 == 0));
      const auto t0 = Clock::now();
      std::size_t units = 0;
      try {
        if (traced) {
          Tracer::Scope span(*tracer, span_name, input);
          units = call(input);
        } else {
          units = call(input);
        }
      } catch (const std::exception& e) {
        checks.fail_call(std::string(span_name) + " on input " +
                             std::to_string(input),
                         e.what());
        continue;
      }
      const double s = seconds_since(t0);
      checks.expect(true, span_name);
      stats.call_s.push_back(s);
      stats.per_unit_s.push_back(s / static_cast<double>(units));
      stats.units += units;
      stats.busy_s += s;
      (traced ? traced_s : bare_s) = s;
    }
    if (traced_s > 0.0 && bare_s > 0.0) {
      stats.traced_bare.emplace_back(traced_s, bare_s);
    }
  }
  return stats;
}

/// Adds the metrics every workload reports from its loop.
void add_loop_metrics(const LoopStats& loop, const std::vector<double>& setup_s,
                      MetricTable& e2e) {
  const std::size_t calls = loop.call_s.size();
  e2e.add("setup_s", median(setup_s), "s", setup_s.size());
  e2e.add("images_per_s",
          loop.busy_s > 0.0 ? static_cast<double>(loop.units) / loop.busy_s
                            : 0.0,
          "img/s", calls);
  e2e.add("admit_us_per_req", 1e6 * median(loop.per_unit_s), "us", calls);
  e2e.add("call_s_p50", median(loop.call_s), "s", calls);
  const TailStat tail = tail_stat(loop.call_s);
  std::cout << "call seconds " << tail.label << " = " << tail.value
            << " s over " << calls << " calls\n";
}

void add_trace_overhead(const LoopStats& loop, MetricTable& layer) {
  layer.add("trace.overhead_ratio", median_paired_ratio(loop.traced_bare),
            "x", loop.traced_bare.size());
}

double served_fraction(const std::vector<runtime::RequestResult>& results) {
  std::size_t served = 0;
  for (const runtime::RequestResult& r : results) {
    if (!r.shed && !r.failed) ++served;
  }
  return results.empty() ? 0.0
                         : static_cast<double>(served) /
                               static_cast<double>(results.size());
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- lenet5_noisy_fleet ---------------------------------------------------

/// Compare sampled run() outputs with the serial run_one() reference.
void check_sampled_run_one(Checks& checks, BatchRunner& runner,
                           const std::vector<nn::Tensor>& batch,
                           const std::vector<runtime::RequestResult>& results,
                           std::uint64_t sample_seed, const std::string& what) {
  if (!checks.expect(results.size() == batch.size(),
                     what + ": one result per input")) {
    return;
  }
  Rng pick(sample_seed);
  for (int s = 0; s < 2; ++s) {
    const std::size_t id =
        static_cast<std::size_t>(pick.uniform() * batch.size()) %
        batch.size();
    const runtime::RequestResult one = runner.run_one(batch[id], id);
    check_same_output(checks, results[id].output, one.output,
                      what + ": request " + std::to_string(id) +
                          " differs from run_one");
  }
}

void lenet5_noisy_fleet(const RunOptions& options, Checks& checks,
                        MetricTable& e2e, Tracer* tracer, MetricTable& layer) {
  const nn::Network net = nn::lenet5();
  const nn::NetWeights weights = lenet5_weights(options.seed);
  constexpr std::size_t kBatch = 8, kBatches = 4;
  const std::vector<nn::Tensor> pool =
      make_inputs(net, kBatch * kBatches, sub_seed(options.seed, kInputSalt));
  std::vector<std::vector<nn::Tensor>> batches;
  for (std::size_t b = 0; b < kBatches; ++b) {
    batches.emplace_back(pool.begin() + b * kBatch,
                         pool.begin() + (b + 1) * kBatch);
  }
  const std::vector<nn::Tensor> held =
      make_inputs(net, kBatch, held_out_seed(options.seed));

  std::vector<double> setup_s;
  const std::unique_ptr<BatchRunner> runner = timed_setup(32, setup_s, [&] {
    return std::make_unique<BatchRunner>(core::PcnnaConfig::paper_defaults(),
                                         net, weights,
                                         lenet5_fleet_options(options.seed));
  });

  // Warm-up, untimed: the held-out batch, checked after the loop.
  runtime::FleetReport fleet;
  const auto w0 = Clock::now();
  const std::vector<runtime::RequestResult> held_results =
      runner->run(held, &fleet);
  std::cout << "warm-up batch " << seconds_since(w0) << " s\n";

  std::vector<runtime::RequestResult> last;
  std::size_t last_batch = 0;
  const LoopStats loop =
      timed_loop(options, 1, checks, tracer, "runner.run", [&](std::size_t i) {
        runtime::FleetReport report;
        last = runner->run(batches[i % kBatches], &report);
        last_batch = i % kBatches;
        checks.expect(served_fraction(last) == 1.0,
                      "lenet5 batch: every request served");
        checks.expect(same_bits(report.request_time_serial,
                                fleet.request_time_serial) &&
                          same_bits(report.max_latency, fleet.max_latency),
                      "lenet5 batch: modeled times repeat bitwise");
        return kBatch;
      });

  check_sampled_run_one(checks, *runner, batches[last_batch], last,
                        sub_seed(options.seed, kSampleSalt), "lenet5 run");
  check_sampled_run_one(checks, *runner, held, held_results,
                        sub_seed(options.seed, kSampleSalt + 1),
                        "lenet5 held-out run");

  add_loop_metrics(loop, setup_s, e2e);
  e2e.add("virt_request_s", fleet.request_time_serial, "sim_s", 1);
  // Nearest-rank p99 of a batch of 8 latencies is its maximum.
  e2e.add("virt_p99_latency_s", fleet.max_latency, "sim_s", kBatch);
  e2e.add("virt_slo_attainment", served_fraction(held_results), "fraction",
          kBatch);
  if (tracer) add_trace_overhead(loop, layer);
}

// --- alexnet_ideal_t4 -----------------------------------------------------

/// The ideal engine must match the golden CPU network within
/// kAlexnetTolerance and agree on the argmax.
void check_vs_reference(Checks& checks, const nn::Network& net,
                        const nn::NetWeights& weights, const nn::Tensor& input,
                        const nn::Tensor& output, const std::string& what) {
  const nn::Tensor ref = nn::forward_reference(net, weights, input);
  if (!checks.expect(ref.shape() == output.shape(), what + ": output shape")) {
    return;
  }
  std::size_t arg_out = 0, arg_ref = 0;
  for (std::size_t j = 1; j < ref.size(); ++j) {
    if (output[j] > output[arg_out]) arg_out = j;
    if (ref[j] > ref[arg_ref]) arg_ref = j;
  }
  const double err = nn::max_abs_diff(output, ref);
  std::cout << what << ": max |out - reference| = " << err << "\n";
  checks.expect(err <= kAlexnetTolerance,
                what + ": max abs error vs reference above tolerance");
  checks.expect(arg_out == arg_ref, what + ": argmax differs from reference");
}

void check_noise_free(Checks& checks, const core::NetworkRunReport& report,
                      const std::string& what) {
  bool quiet = true;
  for (const core::LayerRunReport& l : report.conv_layers) {
    quiet = quiet && l.engine.noise_draws == 0 && l.engine.banks_built > 0;
  }
  checks.expect(quiet && !report.conv_layers.empty(),
                what + ": every conv layer ran on the engine without noise");
}

void alexnet_ideal_t4(const RunOptions& options, Checks& checks,
                      MetricTable& e2e, Tracer* tracer, MetricTable& layer) {
  const nn::Network net = nn::alexnet();
  const nn::NetWeights weights = alexnet_weights(options.seed);
  const nn::Tensor input = alexnet_input(options.seed);
  const nn::Tensor held =
      make_inputs(net, 1, held_out_seed(options.seed)).front();

  std::vector<double> setup_s;
  const std::unique_ptr<core::Accelerator> accel =
      timed_setup(1024, setup_s, [] {
        return std::make_unique<core::Accelerator>(alexnet_config(4));
      });

  // Warm-up, untimed: the held-out image, checked against the reference.
  const auto w0 = Clock::now();
  const core::NetworkRunReport held_report =
      accel->run(net, weights, held, /*simulate_values=*/true,
                 /*compare_reference=*/false);
  std::cout << "warm-up image " << seconds_since(w0) << " s\n";
  check_noise_free(checks, held_report, "alexnet held-out image");
  check_vs_reference(checks, net, weights, held, held_report.output,
                     "alexnet held-out image");

  nn::Tensor first_output;
  double virt = 0.0;
  const LoopStats loop =
      timed_loop(options, 1, checks, tracer, "accel.run", [&](std::size_t) {
        core::NetworkRunReport report =
            accel->run(net, weights, input, /*simulate_values=*/true,
                       /*compare_reference=*/false);
        check_noise_free(checks, report, "alexnet image");
        if (first_output.empty()) {
          first_output = std::move(report.output);
          virt = report.total_full_system_time;
        } else {
          check_same_output(checks, report.output, first_output,
                            "alexnet image: output repeats bitwise");
          checks.expect(same_bits(report.total_full_system_time, virt),
                        "alexnet image: modeled time repeats bitwise");
        }
        return std::size_t{1};
      });
  if (!first_output.empty()) {
    check_vs_reference(checks, net, weights, input, first_output,
                       "alexnet image");
  }

  add_loop_metrics(loop, setup_s, e2e);
  e2e.add("virt_request_s", virt, "sim_s", 1);
  // One image per call and no queueing: its latency is its service time.
  e2e.add("virt_p99_latency_s", virt, "sim_s", 1);
  e2e.add("virt_slo_attainment", first_output.empty() ? 0.0 : 1.0,
          "fraction", 1);
  if (tracer) add_trace_overhead(loop, layer);
}

// --- the two admission workloads -------------------------------------------

/// Per-stream virtual fields, recorded on a stream's first call and
/// compared bitwise on every later call of the same stream.
class VirtLedger {
 public:
  explicit VirtLedger(std::size_t streams) : first_(streams), seen_(streams) {}

  void record(Checks& checks, std::size_t stream,
              const runtime::OpenLoopReport& report, const std::string& what) {
    const VirtFields v = virt_fields(report);
    if (!seen_[stream]) {
      first_[stream] = v;
      seen_[stream] = true;
      return;
    }
    checks.expect(bitwise_equal(v, first_[stream]),
                  what + ": modeled fields of a repeated stream differ");
  }

  /// Adds the virt_* metrics: each the median over streams of its field.
  void add_metrics(Checks& checks, MetricTable& e2e,
                   const std::string& what) const {
    std::size_t seen = 0;
    for (const bool s : seen_) seen += s;
    checks.expect(seen == first_.size(), what + ": every stream simulated");
    const auto over_streams = [&](double VirtFields::*field) {
      std::vector<double> values;
      for (std::size_t s = 0; s < first_.size(); ++s) {
        if (seen_[s]) values.push_back(first_[s].*field);
      }
      return median(values);
    };
    const std::size_t n = first_.size();
    e2e.add("virt_request_s", over_streams(&VirtFields::busy_per_served),
            "sim_s", n);
    e2e.add("virt_p99_latency_s", over_streams(&VirtFields::p99), "sim_s", n);
    e2e.add("virt_slo_attainment", over_streams(&VirtFields::slo_attainment),
            "fraction", n);
  }

 private:
  std::vector<VirtFields> first_;
  std::vector<bool> seen_;
};

/// Serve the held-out stream twice: conservation and bitwise repeat.
template <class Simulate>
void check_held_out(Checks& checks, std::size_t offered, Simulate&& simulate,
                    const std::string& what) {
  const runtime::OpenLoopReport a = simulate();
  const runtime::OpenLoopReport b = simulate();
  check_conservation(checks, a, offered, what);
  checks.expect(bitwise_equal(virt_fields(a), virt_fields(b)),
                what + ": modeled fields of a repeated stream differ");
}

void admit_fifo_2048(const RunOptions& options, Checks& checks,
                     MetricTable& e2e, Tracer* tracer, MetricTable& layer) {
  const nn::Network net = nn::tiny_cnn();
  const nn::NetWeights weights = tiny_weights(options.seed);

  struct Fleet {
    std::unique_ptr<BatchRunner> runner;
    std::vector<runtime::ArrivalSchedule> streams;
  };
  std::vector<double> setup_s;
  const Fleet fleet = timed_setup(1, setup_s, [&] {
    Fleet f{std::make_unique<BatchRunner>(core::PcnnaConfig::paper_defaults(),
                                          net, weights,
                                          fifo_options(kFifoPcus)),
            {}};
    for (std::size_t s = 0; s < kFifoStreams; ++s) {
      f.streams.push_back(fifo_arrivals(
          *f.runner, kFifoRequests, sub_seed(options.seed, kStreamSalt + s)));
    }
    return f;
  });
  BatchRunner& runner = *fleet.runner;
  const std::vector<runtime::ArrivalSchedule>& streams = fleet.streams;

  VirtLedger ledger(kFifoStreams);
  const LoopStats loop = timed_loop(
      options, kFifoStreams + 1, checks, tracer, "runner.simulate_open_loop",
      [&](std::size_t i) {
        const std::size_t s = i % kFifoStreams;
        const runtime::OpenLoopReport report =
            runner.simulate_open_loop(streams[s]);
        check_conservation(checks, report, kFifoRequests, "fifo stream");
        ledger.record(checks, s, report, "fifo stream");
        return kFifoRequests;
      });

  const runtime::ArrivalSchedule held =
      fifo_arrivals(runner, kFifoRequests, held_out_seed(options.seed));
  check_held_out(checks, kFifoRequests,
                 [&] { return runner.simulate_open_loop(held); },
                 "fifo held-out stream");

  add_loop_metrics(loop, setup_s, e2e);
  ledger.add_metrics(checks, e2e, "fifo");
  if (tracer) add_trace_overhead(loop, layer);
}

void admit_multimodel_faults(const RunOptions& options, Checks& checks,
                             MetricTable& e2e, Tracer* tracer,
                             MetricTable& layer) {
  const MultiModelModels models = multimodel_models(options.seed);

  struct Fleets {
    std::vector<MultiModelStream> streams;
    std::vector<std::unique_ptr<BatchRunner>> runners;
  };
  std::vector<double> setup_s;
  const Fleets fleets = timed_setup(1, setup_s, [&] {
    Fleets f;
    const MultiModelLoad load = multimodel_load(models);
    for (std::size_t s = 0; s < kMmStreams; ++s) {
      f.streams.push_back(multimodel_stream(
          load, kMmRequests, sub_seed(options.seed, kStreamSalt + s)));
      f.runners.push_back(multimodel_runner(
          models, load, &f.streams.back(),
          runtime::DispatchPolicy::kModelAffinity, nullptr));
    }
    return f;
  });
  const std::vector<MultiModelStream>& streams = fleets.streams;

  VirtLedger ledger(kMmStreams);
  const LoopStats loop = timed_loop(
      options, kMmStreams + 1, checks, tracer, "runner.simulate_open_loop",
      [&](std::size_t i) {
        const std::size_t s = i % kMmStreams;
        const MultiModelStream& st = streams[s];
        const runtime::OpenLoopReport report =
            fleets.runners[s]->simulate_open_loop(st.arrivals, st.slos,
                                                  st.models);
        check_conservation(checks, report, kMmRequests, "multimodel stream");
        ledger.record(checks, s, report, "multimodel stream");
        return kMmRequests;
      });

  const MultiModelLoad load = multimodel_load(models);
  const MultiModelStream held =
      multimodel_stream(load, kMmRequests, held_out_seed(options.seed));
  const std::unique_ptr<BatchRunner> held_runner = multimodel_runner(
      models, load, &held, runtime::DispatchPolicy::kModelAffinity, nullptr);
  check_held_out(checks, kMmRequests,
                 [&] {
                   return held_runner->simulate_open_loop(
                       held.arrivals, held.slos, held.models);
                 },
                 "multimodel held-out stream");

  add_loop_metrics(loop, setup_s, e2e);
  ledger.add_metrics(checks, e2e, "multimodel");
  if (tracer) add_trace_overhead(loop, layer);
}

} // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "lenet5_noisy_fleet", "alexnet_ideal_t4", "admit_fifo_2048",
      "admit_multimodel_faults"};
  return names;
}

void run_workload(const RunOptions& options, Checks& checks, MetricTable& e2e,
                  Tracer* tracer, MetricTable& layer) {
  if (options.workload == "lenet5_noisy_fleet") {
    lenet5_noisy_fleet(options, checks, e2e, tracer, layer);
  } else if (options.workload == "alexnet_ideal_t4") {
    alexnet_ideal_t4(options, checks, e2e, tracer, layer);
  } else if (options.workload == "admit_fifo_2048") {
    admit_fifo_2048(options, checks, e2e, tracer, layer);
  } else if (options.workload == "admit_multimodel_faults") {
    admit_multimodel_faults(options, checks, e2e, tracer, layer);
  } else {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
}

bool check_same_output(Checks& checks, const nn::Tensor& a,
                       const nn::Tensor& b, const std::string& what) {
  const bool same =
      a.shape() == b.shape() && a.size() == b.size() &&
      std::memcmp(a.data().data(), b.data().data(),
                  a.size() * sizeof(double)) == 0;
  return checks.expect(same, what);
}

bool check_conservation(Checks& checks, const runtime::OpenLoopReport& report,
                        std::size_t offered, const std::string& what) {
  const bool ok = report.requests == offered &&
                  report.served_requests + report.shed_requests +
                          report.failed_requests ==
                      report.requests;
  return checks.expect(ok, what + ": served + shed + failed != requests");
}

VirtFields virt_fields(const runtime::OpenLoopReport& report) {
  VirtFields v;
  double busy = 0.0;
  for (const runtime::PcuBreakdown& p : report.per_pcu) busy += p.busy_time;
  v.p99 = report.latency.p99;
  v.busy_per_served =
      report.served_requests
          ? busy / static_cast<double>(report.served_requests)
          : 0.0;
  v.slo_attainment = report.slo_attainment;
  v.makespan = report.makespan;
  v.served = report.served_requests;
  v.shed = report.shed_requests;
  v.failed = report.failed_requests;
  return v;
}

bool bitwise_equal(const VirtFields& a, const VirtFields& b) {
  return same_bits(a.p99, b.p99) &&
         same_bits(a.busy_per_served, b.busy_per_served) &&
         same_bits(a.slo_attainment, b.slo_attainment) &&
         same_bits(a.makespan, b.makespan) && a.served == b.served &&
         a.shed == b.shed && a.failed == b.failed;
}

} // namespace perfbench
