// The traced run's per-layer profile (see run_layer_profile).
#include <algorithm>
#include <iostream>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/accelerator.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/conv_ref.hpp"
#include "nn/models.hpp"
#include "photonics/weight_bank.hpp"
#include "runtime/telemetry.hpp"
#include "scenarios.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using runtime::DispatchPolicy;

/// A network whose ops are replayed one by one.
struct ConvCase {
  std::string tag; ///< "lenet5" or "alexnet"
  nn::Network net;
  nn::NetWeights weights;
  nn::Tensor input;
  core::PcnnaConfig config;
  std::size_t reps = 1;
  /// Also replay with enable_noise = false to split out the noise cost.
  bool noise_split = false;
};

/// The first m x m window of `x` (scanning in steps of m) holding a nonzero
/// value. With pad 0 a convolution over it has exactly one output pixel,
/// so the engine programs every bank and sweeps a single location.
nn::Tensor one_pixel_input(const nn::Tensor& x, std::size_t m) {
  const nn::Shape4 s = x.shape();
  for (std::size_t oy = 0; oy + m <= s.h; oy += m) {
    for (std::size_t ox = 0; ox + m <= s.w; ox += m) {
      nn::Tensor crop(nn::Shape4{1, s.c, m, m});
      for (std::size_t c = 0; c < s.c; ++c)
        for (std::size_t y = 0; y < m; ++y)
          for (std::size_t xx = 0; xx < m; ++xx)
            crop.at(0, c, y, xx) = x.at(0, c, oy + y, ox + xx);
      if (crop.abs_max() > 0.0) return crop;
    }
  }
  throw std::runtime_error("no nonzero window to replay");
}

/// One electronic (non-conv) op of `net`, as Accelerator::run computes it
/// with accelerate_fc off.
nn::Tensor apply_electronic_op(const nn::LayerOp& op,
                               const nn::NetWeights& weights, std::size_t i,
                               const nn::Tensor& x) {
  switch (op.kind) {
    case nn::OpKind::kReLU:
      return nn::relu(x);
    case nn::OpKind::kMaxPool:
      return nn::maxpool2d(x, op.pool.window, op.pool.stride);
    case nn::OpKind::kAvgPool:
      return nn::avgpool2d(x, op.pool.window, op.pool.stride);
    case nn::OpKind::kLRN:
      return nn::lrn(x, op.lrn.size, op.lrn.alpha, op.lrn.beta, op.lrn.k);
    case nn::OpKind::kFullyConnected:
      return nn::fully_connected(x, weights.weight[i], weights.bias[i]);
    case nn::OpKind::kSoftmax:
      return nn::softmax(x);
    case nn::OpKind::kConv:
      break;
  }
  throw std::logic_error("not an electronic op");
}

void count_stats(Tracer::Scope& span, const core::EngineStats& st) {
  span.count("banks_built", static_cast<double>(st.banks_built));
  span.count("rings_used", static_cast<double>(st.rings_used));
  span.count("recalibrations", static_cast<double>(st.recalibrations));
  span.count("noise_draws", static_cast<double>(st.noise_draws));
  span.count("locations", static_cast<double>(st.locations));
}

/// Median seconds a replayed network spent per part of an image.
struct ImageParts {
  double engine = 0.0;     ///< engine conv2d calls
  double reference = 0.0;  ///< per-layer nn::conv2d_direct
  double electronic = 0.0; ///< ReLU, pooling, LRN, FC, softmax
};

/// Replay every op of `c` on its real input activation (the golden CPU
/// path's activation entering it): conv layers through the engine phases
/// and the reference and im2col convs, the other ops through their nn
/// functions.
ImageParts profile_layers(const ConvCase& c, std::uint64_t seed,
                          Checks& checks, Tracer& tracer, MetricTable& layer) {
  core::OpticalConvEngine engine(c.config);
  core::PcnnaConfig quiet_config = c.config;
  quiet_config.enable_noise = false;
  core::OpticalConvEngine quiet(quiet_config);

  ImageParts parts;
  nn::Tensor x = c.input;
  const auto& ops = c.net.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const nn::LayerOp& op = ops[i];
    if (op.kind != nn::OpKind::kConv) {
      const std::string name = "nn." + c.tag + ".op" + std::to_string(i) +
                               "." + nn::op_kind_name(op.kind);
      nn::Tensor y;
      for (std::size_t rep = 0; rep < c.reps; ++rep) {
        Tracer::Scope span(tracer, name, rep);
        y = apply_electronic_op(op, c.weights, i, x);
      }
      parts.electronic += median(tracer.durations(name));
      x = std::move(y);
      continue;
    }
    const nn::ConvLayerParams& p = op.conv;
    const nn::Tensor& w = c.weights.weight[i];
    const nn::Tensor& b = c.weights.bias[i];
    const std::string base = c.tag + "." + p.name;
    const nn::Tensor crop = one_pixel_input(x, p.m);
    const std::uint64_t layer_seed = sub_seed(seed, kProfileSalt + i);

    core::EngineStats full, one, silent;
    nn::Tensor ref;
    for (std::size_t rep = 0; rep < c.reps; ++rep) {
      full = one = silent = core::EngineStats{};
      engine.reseed_rng(layer_seed);
      {
        Tracer::Scope span(tracer, "engine." + base + ".conv", rep);
        engine.conv2d(x, w, b, p.s, p.p, &full);
        count_stats(span, full);
      }
      engine.reseed_rng(layer_seed);
      {
        Tracer::Scope span(tracer, "engine." + base + ".program", rep);
        engine.conv2d(crop, w, b, p.s, 0, &one);
        count_stats(span, one);
      }
      if (c.noise_split) {
        quiet.reseed_rng(layer_seed);
        Tracer::Scope span(tracer, "engine." + base + ".noise_off", rep);
        quiet.conv2d(x, w, b, p.s, p.p, &silent);
        count_stats(span, silent);
      }
      {
        Tracer::Scope span(tracer, "roofline." + base + ".im2col", rep);
        nn::conv2d_im2col(x, w, b, p.s, p.p);
      }
      {
        Tracer::Scope span(tracer, "reference." + base + ".conv", rep);
        ref = nn::conv2d_direct(x, w, b, p.s, p.p);
      }
    }

    checks.expect(one.banks_built == full.banks_built &&
                      one.rings_used == full.rings_used &&
                      one.recalibrations == full.recalibrations,
                  base + ": one-pixel replay programs different banks");
    checks.expect(one.locations == 1,
                  base + ": one-pixel replay swept more than one location");
    if (c.noise_split) {
      checks.expect(silent.noise_draws == 0,
                    base + ": noise-off replay drew noise");
    }

    const std::vector<double> conv_runs =
        tracer.durations("engine." + base + ".conv");
    const std::vector<double> program_runs =
        tracer.durations("engine." + base + ".program");
    const double conv_s = median(conv_runs);
    const double program_s = median(program_runs);
    const double sweep_s = conv_s - program_s;
    // The one-pixel replay is a subset of the full call, so program_s +
    // sweep_s = conv_s needs sweep_s >= 0. Where the sweep is a few pixels
    // (c5, conv3-5) timer noise alone puts the medians either way, so the
    // check compares best-of-reps times with a margin no noise reaches.
    checks.expect(quantile(program_runs, 0.0) <=
                      1.5 * quantile(conv_runs, 0.0) + 5e-3,
                  base + ": one-pixel replay costs more than the full call");
    const double im2col_s =
        median(tracer.durations("roofline." + base + ".im2col"));
    const double ref_s = median(tracer.durations("reference." + base + ".conv"));
    const double macs = static_cast<double>(p.K * p.nc * p.m * p.m) *
                        static_cast<double>(ref.shape().h * ref.shape().w);

    const std::size_t n = c.reps;
    const std::string e = "engine." + base;
    layer.add(e + ".conv_s", conv_s, "s", n);
    layer.add(e + ".program_s", program_s, "s", n);
    layer.add(e + ".sweep_s", sweep_s, "s", n);
    layer.add(e + ".mmac_per_s", macs / conv_s / 1e6, "MMAC/s", n);
    // Engine MMAC/s over im2col MMAC/s on this machine.
    layer.add(e + ".roofline_ratio", im2col_s / conv_s, "x", n);
    layer.add(e + ".banks_built", static_cast<double>(full.banks_built),
              "count", 1);
    if (c.noise_split) {
      layer.add(e + ".noise_draws", static_cast<double>(full.noise_draws),
                "count", 1);
      layer.add(e + ".noise_s",
                conv_s - median(tracer.durations(e + ".noise_off")), "s", n);
    } else {
      checks.expect(full.noise_draws == 0, base + ": noise-free config drew noise");
    }
    layer.add("reference." + base + ".conv_s", ref_s, "s", n);
    parts.engine += conv_s;
    parts.reference += ref_s;
    x = std::move(ref);
  }
  return parts;
}

void profile_bank_calibration(std::uint64_t seed, Tracer& tracer,
                              MetricTable& layer) {
  constexpr std::size_t kChannels = 96, kCalls = 20, kReps = 7;
  const std::pair<const char*, core::PcnnaConfig> configs[] = {
      {"paper", core::PcnnaConfig::paper_defaults()},
      {"ideal", core::PcnnaConfig::ideal()}};
  for (const auto& [tag, config] : configs) {
    Rng rng(sub_seed(seed, kProfileSalt + 900));
    phot::WeightBank bank(phot::WdmGrid(kChannels), config.bank, rng);
    std::vector<std::vector<double>> targets(2, std::vector<double>(kChannels));
    for (auto& t : targets) {
      for (double& v : t) {
        v = 0.9 * (bank.min_weight() +
                   rng.uniform() * (bank.max_weight() - bank.min_weight()));
      }
    }
    const std::string name = std::string("bank.calibrate96_") + tag;
    double sink = 0.0;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      Tracer::Scope span(tracer, name, rep);
      span.count("calls", kCalls);
      for (std::size_t k = 0; k < kCalls; ++k) {
        sink += bank.calibrate(targets[k % 2]).front();
      }
    }
    std::cout << name << " checksum " << sink << "\n";
    layer.add(name + "_s", median(tracer.durations(name)) / kCalls, "s",
              kReps);
  }
}

void profile_alexnet(std::uint64_t seed, Checks& checks, Tracer& tracer,
                     MetricTable& layer) {
  ConvCase alex{"alexnet", nn::alexnet(), alexnet_weights(seed),
                alexnet_input(seed), alexnet_config(4), 3, false};
  const ImageParts parts = profile_layers(alex, seed, checks, tracer, layer);

  // Two images per thread count, ordered t4, t1, t1, t4 so a drift in
  // machine speed hits both sides alike.
  nn::Tensor out4, out1;
  for (const std::size_t threads : {4, 1, 1, 4}) {
    core::Accelerator accel(alexnet_config(threads));
    Tracer::Scope span(tracer, threads == 4 ? "accel.image" : "accel.image_t1",
                       0);
    (threads == 4 ? out4 : out1) =
        accel.run(alex.net, alex.weights, alex.input, true, false).output;
  }
  check_same_output(checks, out4, out1,
                    "alexnet image differs between 4 and 1 engine threads");
  const double image_s = median(tracer.durations("accel.image"));
  const double image_t1_s = median(tracer.durations("accel.image_t1"));
  std::cout << "alexnet image " << image_s << " s vs replayed parts: engine "
            << parts.engine << " + reference " << parts.reference
            << " + electronic " << parts.electronic << " = "
            << parts.engine + parts.reference + parts.electronic << " s\n";
  layer.add("accel.image_s", image_s, "s", 2);
  // Measured directly: image_s minus the engine and reference replays
  // mixes calls timed seconds apart, and machine-speed drift between them
  // outweighs the electronic ops.
  layer.add("accel.other_s", parts.electronic, "s", alex.reps);
  layer.add("accel.t4_over_t1", image_t1_s / image_s, "x", 2);
}

void profile_runner(std::uint64_t seed, Checks& checks, Tracer& tracer,
                    MetricTable& layer) {
  constexpr std::size_t kBatch = 8, kReps = 3;
  const nn::Network net = nn::lenet5();
  // The first batch of lenet5_noisy_fleet.
  const std::vector<nn::Tensor> batch =
      make_inputs(net, kBatch, sub_seed(seed, kInputSalt));
  const runtime::BatchRunnerOptions options = lenet5_fleet_options(seed);
  runtime::BatchRunner runner(core::PcnnaConfig::paper_defaults(), net,
                              lenet5_weights(seed), options);
  runner.run(batch); // warm-up
  std::vector<runtime::RequestResult> results;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    {
      Tracer::Scope span(tracer, "runner.batch", rep);
      results = runner.run(batch);
    }
    Tracer::Scope span(tracer, "runner.admission", rep);
    runner.simulate_open_loop(runtime::closed_batch_arrivals(kBatch));
  }
  for (std::size_t id = 0; id < kBatch; ++id) {
    runtime::RequestResult one;
    {
      Tracer::Scope span(tracer, "runner.run_one", id);
      one = runner.run_one(batch[id], id);
    }
    check_same_output(checks, results[id].output, one.output,
                      "profile batch request " + std::to_string(id) +
                          " differs from run_one");
  }
  const double batch_s = median(tracer.durations("runner.batch"));
  const std::vector<double> serial = tracer.durations("runner.run_one");
  const double serial_s = std::accumulate(serial.begin(), serial.end(), 0.0);
  layer.add("runner.batch_s", batch_s, "s", kReps);
  layer.add("runner.parallel_eff",
            serial_s / (static_cast<double>(options.num_pcus) * batch_s),
            "fraction", kReps);
  layer.add("runner.admission_share",
            median(tracer.durations("runner.admission")) / batch_s,
            "fraction", kReps);
}

void profile_admission_grid(std::uint64_t seed, Checks& checks,
                            Tracer& tracer, MetricTable& layer) {
  constexpr std::size_t kRequests = 10000, kReps = 3;
  const std::pair<const char*, DispatchPolicy> policies[] = {
      {"earliest_free", DispatchPolicy::kEarliestFree},
      {"least_loaded", DispatchPolicy::kLeastLoaded},
      {"edf", DispatchPolicy::kEdf}};
  const std::size_t fleets[] = {8, 64, 512, 2048};
  const nn::Network net = nn::tiny_cnn();
  const nn::NetWeights weights = tiny_weights(seed);
  for (const auto& [tag, policy] : policies) {
    double base_us = 0.0;
    for (const std::size_t pcus : fleets) {
      runtime::BatchRunner runner(core::PcnnaConfig::paper_defaults(), net,
                                  weights, fifo_options(pcus, policy));
      const runtime::ArrivalSchedule arrivals = fifo_arrivals(
          runner, kRequests, sub_seed(seed, kProfileSalt + 700 + pcus));
      const std::string cell =
          std::string("admission.") + tag + ".pcus" + std::to_string(pcus);
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        runtime::OpenLoopReport report;
        {
          Tracer::Scope span(tracer, cell, rep);
          span.count("requests", kRequests);
          report = runner.simulate_open_loop(arrivals);
        }
        check_conservation(checks, report, kRequests, cell);
      }
      const double us = 1e6 * median(tracer.durations(cell)) / kRequests;
      layer.add(cell + ".us_per_req", us, "us", kReps);
      if (pcus == fleets[0]) {
        base_us = us;
      } else {
        layer.add(cell + ".over_pcus8", us / base_us, "x", kReps);
      }
    }
  }
}

void profile_multimodel(std::uint64_t seed, Checks& checks, Tracer& tracer,
                        MetricTable& layer) {
  const MultiModelModels models = multimodel_models(seed);
  const MultiModelLoad load = multimodel_load(models);
  // Stream 0 of admit_multimodel_faults.
  const MultiModelStream stream =
      multimodel_stream(load, kMmRequests, sub_seed(seed, kStreamSalt));
  const auto serve = [&](runtime::BatchRunner& runner, const char* name,
                         std::size_t reps) {
    runtime::OpenLoopReport report;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Tracer::Scope span(tracer, name, rep);
      report = runner.simulate_open_loop(stream.arrivals, stream.slos,
                                         stream.models);
    }
    check_conservation(checks, report, kMmRequests, name);
    return report;
  };

  const runtime::OpenLoopReport affinity =
      serve(*multimodel_runner(models, load, &stream,
                               DispatchPolicy::kModelAffinity, nullptr),
            "admission.multimodel.affinity", 1);
  serve(*multimodel_runner(models, load, &stream, DispatchPolicy::kEdf,
                           nullptr),
        "admission.multimodel.edf", 3);
  serve(*multimodel_runner(models, load, nullptr,
                           DispatchPolicy::kModelAffinity, nullptr),
        "admission.multimodel.faults_off", 1);

  const double per_req = 1e6 / static_cast<double>(kMmRequests);
  const double affinity_s =
      median(tracer.durations("admission.multimodel.affinity"));
  layer.add("admission.affinity_over_edf",
            affinity_s / median(tracer.durations("admission.multimodel.edf")),
            "x", 1);
  layer.add("admission.faults_off_us_per_req",
            per_req *
                median(tracer.durations("admission.multimodel.faults_off")),
            "us", 1);
  const double attempts = static_cast<double>(affinity.served_requests +
                                              affinity.fault.attempts.size());
  layer.add("admission.useful_attempt_ratio",
            static_cast<double>(affinity.served_requests) / attempts,
            "fraction", 1);
  layer.add("admission.model_swaps", static_cast<double>(affinity.model_swaps),
            "count", 1);
  layer.add("admission.shed_rate", affinity.shed_rate, "fraction", 1);
}

/// Interleaved pairs of the multi-model configuration with and without a
/// runtime::Telemetry attached, alternating which runs first.
void profile_telemetry(std::uint64_t seed, Checks& checks, Tracer& tracer,
                       MetricTable& layer) {
  constexpr std::size_t kRequests = 300, kPairs = 7;
  const MultiModelModels models = multimodel_models(seed);
  const MultiModelLoad load = multimodel_load(models);
  const MultiModelStream stream =
      multimodel_stream(load, kRequests, sub_seed(seed, kProfileSalt + 800));
  std::vector<std::pair<double, double>> pairs;
  double shortest = 1e300;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    double on_s = 0.0, off_s = 0.0;
    VirtFields on_v, off_v;
    for (int pass = 0; pass < 2; ++pass) {
      const bool on = (pass == 0) == (pair % 2 == 0);
      const auto telemetry =
          on ? std::make_unique<runtime::Telemetry>() : nullptr;
      const auto runner = multimodel_runner(
          models, load, &stream, DispatchPolicy::kModelAffinity,
          telemetry.get());
      const auto t0 = Clock::now();
      runtime::OpenLoopReport report;
      {
        Tracer::Scope span(tracer, on ? "telemetry.on" : "telemetry.off",
                           pair);
        report = runner->simulate_open_loop(stream.arrivals, stream.slos,
                                            stream.models);
      }
      const double s = seconds_since(t0);
      shortest = std::min(shortest, s);
      (on ? on_s : off_s) = s;
      (on ? on_v : off_v) = virt_fields(report);
    }
    checks.expect(bitwise_equal(on_v, off_v),
                  "telemetry changed the modeled schedule");
    pairs.emplace_back(on_s, off_s);
  }
  std::cout << "telemetry pairs: shortest call " << shortest << " s\n";
  layer.add("telemetry.overhead_ratio", median_paired_ratio(pairs), "x",
            kPairs);
}

} // namespace

void run_layer_profile(const RunOptions& options, Checks& checks,
                       Tracer& tracer, MetricTable& layer) {
  const std::uint64_t seed = options.seed;
  {
    Tracer::Scope span(tracer, "profile.lenet5", 0);
    const ConvCase lenet{"lenet5",
                         nn::lenet5(),
                         lenet5_weights(seed),
                         make_inputs(nn::lenet5(), 1,
                                     sub_seed(seed, kInputSalt))
                             .front(),
                         core::PcnnaConfig::paper_defaults(),
                         5,
                         true};
    profile_layers(lenet, seed, checks, tracer, layer);
  }
  {
    Tracer::Scope span(tracer, "profile.alexnet", 0);
    profile_alexnet(seed, checks, tracer, layer);
  }
  {
    Tracer::Scope span(tracer, "profile.bank", 0);
    profile_bank_calibration(seed, tracer, layer);
  }
  {
    Tracer::Scope span(tracer, "profile.runner", 0);
    profile_runner(seed, checks, tracer, layer);
  }
  {
    Tracer::Scope span(tracer, "profile.admission", 0);
    profile_admission_grid(seed, checks, tracer, layer);
    profile_multimodel(seed, checks, tracer, layer);
  }
  {
    Tracer::Scope span(tracer, "profile.telemetry", 0);
    profile_telemetry(seed, checks, tracer, layer);
  }
}

} // namespace perfbench
