#include "core/trace.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/mathutil.hpp"
#include "common/trace_writer.hpp"
#include "electronics/dram.hpp"

namespace pcnna::core {

const char* trace_event_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kWeightLoad: return "weight-load";
    case TraceEventKind::kRingSettle: return "ring-settle";
    case TraceEventKind::kDramRead: return "dram-read";
    case TraceEventKind::kInputDac: return "input-dac";
    case TraceEventKind::kOpticalPass: return "optical";
    case TraceEventKind::kAdcSample: return "adc";
    case TraceEventKind::kSramStage: return "sram";
    case TraceEventKind::kDramWrite: return "dram-write";
  }
  // -Werror=switch makes the switch exhaustive at build time; reaching
  // here means an out-of-range cast, not a missing case.
  throw Error("invalid TraceEventKind");
}

std::uint64_t LayerTrace::count(TraceEventKind kind) const {
  std::uint64_t n = 0;
  for (const TraceEvent& e : events)
    if (e.kind == kind) ++n;
  return n;
}

double LayerTrace::busy(TraceEventKind kind) const {
  double t = 0.0;
  for (const TraceEvent& e : events)
    if (e.kind == kind) t += e.duration();
  return t;
}

void LayerTrace::print(std::ostream& os, std::size_t max_events) const {
  os << "trace of layer '" << layer.name << "': " << events.size()
     << " events, total " << format_time(total_time) << '\n';
  std::size_t shown = 0;
  for (const TraceEvent& e : events) {
    if (shown++ >= max_events) {
      os << "  ... (" << events.size() - max_events << " more)\n";
      break;
    }
    os << "  [" << format_time(e.start) << " .. " << format_time(e.end)
       << "] " << trace_event_name(e.kind) << " loc=" << e.location
       << " units=" << e.units << '\n';
  }
}

void write_chrome_trace(const LayerTrace& trace, std::ostream& os) {
  constexpr TraceEventKind kKinds[] = {
      TraceEventKind::kWeightLoad, TraceEventKind::kRingSettle,
      TraceEventKind::kDramRead,   TraceEventKind::kInputDac,
      TraceEventKind::kOpticalPass, TraceEventKind::kAdcSample,
      TraceEventKind::kSramStage,  TraceEventKind::kDramWrite};
  TraceWriter writer;
  writer.set_process_name(0, "pcnna device: " + trace.layer.name);
  for (std::uint32_t t = 0; t < std::size(kKinds); ++t)
    writer.set_thread_name(0, t, trace_event_name(kKinds[t]));
  for (const TraceEvent& e : trace.events) {
    writer.complete(0, static_cast<std::uint32_t>(e.kind),
                    trace_event_name(e.kind), "device", e.start, e.end,
                    {TraceArg::num("location", static_cast<double>(e.location)),
                     TraceArg::num("units", static_cast<double>(e.units))});
  }
  writer.write(os);
}

TraceSimulator::TraceSimulator(PcnnaConfig config)
    : config_(std::move(config)), scheduler_(config_) {
  config_.validate();
}

LayerTrace TraceSimulator::trace_layer(const nn::ConvLayerParams& layer) const {
  const LayerPlan plan = scheduler_.plan(layer);
  LayerTrace trace;
  trace.layer = layer;

  const double cycle = 1.0 / config_.fast_clock;
  const std::uint64_t word_bytes = (config_.word_bits + 7) / 8;
  const elec::Dram dram(config_.dram);

  // Sweeps: one for the full-kernel allocation, nc channel-major sweeps for
  // the per-channel allocation (each preceded by a retuning episode).
  const bool per_channel = plan.allocation == RingAllocation::kPerChannel;
  const std::uint64_t sweeps = per_channel ? layer.nc : 1;
  const std::uint64_t passes_per_loc = plan.groups.size();
  const std::uint64_t weight_chunk = plan.weight_dac_conversions / sweeps;

  // Per-location stage times within one sweep (mirror TimingModel kFull).
  const std::uint64_t fresh =
      per_channel
          ? std::min<std::uint64_t>(layer.m * layer.s, layer.m * layer.m)
          : std::min<std::uint64_t>(layer.updated_inputs_per_location(),
                                    layer.kernel_size());
  const double t_dac =
      static_cast<double>(ceil_div(fresh, config_.num_input_dacs)) /
      config_.input_dac.sample_rate;
  const double t_opt = static_cast<double>(passes_per_loc) * cycle;
  const double t_adc =
      static_cast<double>(ceil_div(layer.K, config_.num_adcs)) /
      config_.adc.sample_rate;
  const double t_sram =
      static_cast<double>(ceil_div(fresh + layer.K, config_.sram_port_words)) *
      config_.sram.access_time;
  const double ii = std::max({t_dac, t_opt, t_adc, t_sram});

  double now = 0.0;
  for (std::uint64_t sweep = 0; sweep < sweeps; ++sweep) {
    // Ring programming for this sweep.
    const double load_time =
        static_cast<double>(weight_chunk) / config_.weight_dac.sample_rate;
    trace.events.push_back(TraceEvent{TraceEventKind::kWeightLoad, now,
                                      now + load_time, 0, weight_chunk});
    now += load_time;
    trace.events.push_back(TraceEvent{TraceEventKind::kRingSettle, now,
                                      now + config_.ring_settle_time, 0, 1});
    now += config_.ring_settle_time;
    if (sweep == sweeps - 1) trace.weight_load_end = now;

    // Location pipeline: stage s of location L starts at
    // sweep_start + L*II + sum of earlier stage times.
    const double sweep_start = now;
    for (std::uint64_t loc = 0; loc < plan.locations; ++loc) {
      const double base = sweep_start + static_cast<double>(loc) * ii;
      double t = base;
      trace.events.push_back(
          TraceEvent{TraceEventKind::kInputDac, t, t + t_dac, loc, fresh});
      t += t_dac;
      trace.events.push_back(TraceEvent{TraceEventKind::kOpticalPass, t,
                                        t + t_opt, loc, passes_per_loc});
      t += t_opt;
      trace.events.push_back(
          TraceEvent{TraceEventKind::kAdcSample, t, t + t_adc, loc, layer.K});
      t += t_adc;
      trace.events.push_back(TraceEvent{TraceEventKind::kSramStage, t,
                                        t + t_sram, loc, fresh + layer.K});
      t += t_sram;
      now = std::max(now, t);
    }
  }
  trace.compute_end = now;

  // DRAM feature-map traffic streams concurrently with compute, starting
  // after the first weight chunk is in flight.
  const double read_time =
      dram.transfer_time(plan.dram_read_words * word_bytes);
  const double write_time =
      dram.transfer_time(plan.dram_write_words * word_bytes);
  trace.events.push_back(
      TraceEvent{TraceEventKind::kDramRead, 0.0, read_time, 0,
                 plan.dram_read_words});
  trace.events.push_back(TraceEvent{TraceEventKind::kDramWrite, read_time,
                                    read_time + write_time, 0,
                                    plan.dram_write_words});
  trace.total_time = std::max(trace.compute_end, read_time + write_time);
  return trace;
}

} // namespace pcnna::core
