#include "core/accelerator.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "common/normal_stream.hpp"
#include "nn/conv_ref.hpp"

namespace pcnna::core {

Accelerator::Accelerator(PcnnaConfig config, TimingFidelity fidelity)
    : config_(std::move(config)),
      fidelity_(fidelity),
      scheduler_(config_),
      timing_(config_, fidelity),
      energy_(config_),
      engine_(config_),
      request_seed_(config_.seed) {}

nn::Tensor Accelerator::run_conv(const nn::Tensor& input,
                                 const nn::Tensor& weights,
                                 const nn::Tensor& bias, std::size_t stride,
                                 std::size_t pad, LayerRunReport* report) {
  EngineStats stats;
  nn::Tensor out = engine_.conv2d(input, weights, bias, stride, pad, &stats);
  if (report) {
    nn::ConvLayerParams params;
    params.name = "conv";
    params.n = input.shape().h;
    params.m = weights.shape().h;
    params.p = pad;
    params.s = stride;
    params.nc = input.shape().c;
    params.K = weights.shape().n;
    report->layer_name = params.name;
    report->timing = timing_.layer_time(params);
    report->energy = energy_.layer_energy(scheduler_.plan(params),
                                          report->timing);
    report->engine = stats;
    const nn::Tensor ref = nn::conv2d_direct(input, weights, bias, stride, pad);
    report->max_abs_err_vs_reference = nn::max_abs_diff(out, ref);
    report->rmse_vs_reference = rmse(out.data(), ref.data());
  }
  return out;
}

NetworkRunReport Accelerator::run_range(const nn::Network& net,
                                        const nn::NetWeights& weights,
                                        const nn::Tensor& input,
                                        std::size_t op_begin,
                                        std::size_t op_end,
                                        bool simulate_values) {
  return run_ops(net, weights, input, op_begin, op_end, simulate_values,
                 /*layer_errors=*/false);
}

NetworkRunReport Accelerator::run_ops(const nn::Network& net,
                                      const nn::NetWeights& weights,
                                      const nn::Tensor& input,
                                      std::size_t op_begin, std::size_t op_end,
                                      bool simulate_values,
                                      bool layer_errors) {
  PCNNA_CHECK(weights.weight.size() == net.ops().size());
  PCNNA_CHECK(weights.bias.size() == net.ops().size());
  PCNNA_CHECK_MSG(op_begin <= op_end && op_end <= net.ops().size(),
                  "op range [" << op_begin << ", " << op_end
                               << ") out of bounds for network '"
                               << net.name() << "'");
  PCNNA_CHECK_MSG(input.shape() == net.shape_before(op_begin),
                  "input does not match network '" << net.name()
                                                   << "' at op " << op_begin);

  NetworkRunReport report;
  nn::Tensor x = input;

  for (std::size_t i = op_begin; i < op_end; ++i) {
    const nn::LayerOp& op = net.ops()[i];
    switch (op.kind) {
      case nn::OpKind::kConv: {
        LayerRunReport layer;
        layer.layer_name = op.conv.name;
        layer.timing = timing_.layer_time(op.conv);
        layer.energy =
            energy_.layer_energy(scheduler_.plan(op.conv), layer.timing);

        // The golden conv is the output when values are not simulated,
        // and otherwise only feeds the per-layer error fields.
        if (simulate_values) {
          engine_.reseed_rng(NormalStream::element_key(request_seed_, i));
          nn::Tensor sim_out = engine_.conv2d(x, weights.weight[i],
                                              weights.bias[i], op.conv.s,
                                              op.conv.p, &layer.engine);
          if (layer_errors) {
            const nn::Tensor ref_out = nn::conv2d_direct(
                x, weights.weight[i], weights.bias[i], op.conv.s, op.conv.p);
            layer.max_abs_err_vs_reference =
                nn::max_abs_diff(sim_out, ref_out);
            layer.rmse_vs_reference = rmse(sim_out.data(), ref_out.data());
          }
          x = std::move(sim_out);
        } else {
          x = nn::conv2d_direct(x, weights.weight[i], weights.bias[i],
                                op.conv.s, op.conv.p);
        }
        report.total_optical_core_time += layer.timing.optical_core_time;
        report.total_full_system_time += layer.timing.full_system_time;
        report.total_energy += layer.energy.total();
        report.conv_layers.push_back(std::move(layer));
        break;
      }
      case nn::OpKind::kReLU:
        x = nn::relu(x);
        break;
      case nn::OpKind::kMaxPool:
        x = nn::maxpool2d(x, op.pool.window, op.pool.stride);
        break;
      case nn::OpKind::kAvgPool:
        x = nn::avgpool2d(x, op.pool.window, op.pool.stride);
        break;
      case nn::OpKind::kLRN:
        x = nn::lrn(x, op.lrn.size, op.lrn.alpha, op.lrn.beta, op.lrn.k);
        break;
      case nn::OpKind::kFullyConnected: {
        if (!config_.accelerate_fc) {
          x = nn::fully_connected(x, weights.weight[i], weights.bias[i]);
          break;
        }
        // Offload to the optical core: an FC layer is exactly a 1x1 conv
        // over a 1x1 feature map with nc = in and K = out, so the conv
        // planning/timing/energy machinery applies unchanged.
        nn::ConvLayerParams fc_params;
        fc_params.name = "fc@op" + std::to_string(i);
        fc_params.n = 1;
        fc_params.m = 1;
        fc_params.p = 0;
        fc_params.s = 1;
        fc_params.nc = x.size();
        fc_params.K = op.fc.out;

        LayerRunReport layer;
        layer.layer_name = fc_params.name;
        layer.timing = timing_.layer_time(fc_params);
        layer.energy =
            energy_.layer_energy(scheduler_.plan(fc_params), layer.timing);

        if (simulate_values) {
          engine_.reseed_rng(NormalStream::element_key(request_seed_, i));
          nn::Tensor sim_out = engine_.fully_connected(
              x, weights.weight[i], weights.bias[i], &layer.engine);
          if (layer_errors) {
            const nn::Tensor ref_out =
                nn::fully_connected(x, weights.weight[i], weights.bias[i]);
            layer.max_abs_err_vs_reference =
                nn::max_abs_diff(sim_out, ref_out);
            layer.rmse_vs_reference = rmse(sim_out.data(), ref_out.data());
          }
          x = std::move(sim_out);
        } else {
          x = nn::fully_connected(x, weights.weight[i], weights.bias[i]);
        }
        report.total_optical_core_time += layer.timing.optical_core_time;
        report.total_full_system_time += layer.timing.full_system_time;
        report.total_energy += layer.energy.total();
        report.fc_layers.push_back(std::move(layer));
        break;
      }
      case nn::OpKind::kSoftmax:
        x = nn::softmax(x);
        break;
    }
  }
  report.output = std::move(x);
  return report;
}

NetworkRunReport Accelerator::run(const nn::Network& net,
                                  const nn::NetWeights& weights,
                                  const nn::Tensor& input,
                                  bool simulate_values,
                                  bool compare_reference) {
  NetworkRunReport report = run_ops(net, weights, input, 0, net.ops().size(),
                                    simulate_values, compare_reference);

  if (compare_reference) {
    report.reference_output = nn::forward_reference(net, weights, input);
    report.output_rmse =
        rmse(report.output.data(), report.reference_output.data());
    report.output_max_abs_err =
        nn::max_abs_diff(report.output, report.reference_output);
    // Compare argmax (meaningful for classifier outputs, harmless otherwise).
    std::size_t arg_sim = 0, arg_ref = 0;
    for (std::size_t j = 1; j < report.output.size(); ++j) {
      if (report.output[j] > report.output[arg_sim]) arg_sim = j;
      if (report.reference_output[j] > report.reference_output[arg_ref])
        arg_ref = j;
    }
    report.argmax_match = arg_sim == arg_ref;
  }
  return report;
}

} // namespace pcnna::core
