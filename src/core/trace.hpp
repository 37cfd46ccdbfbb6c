// Event-driven execution trace of one convolution layer (extension).
//
// The TimingModel prices a layer with closed-form stage equations; the
// TraceSimulator *schedules* the same layer event by event — weight load,
// per-location DAC conversions, optical passes, ADC samples, SRAM and DRAM
// transfers — on a simple resource-pipeline model, producing a timeline
// that can be inspected, asserted on, and cross-checked against the closed
// forms. Tests require the two to agree; architects can dump the trace to
// see exactly where time goes.
//
// Pipeline model: per kernel location the four stages
//   DAC -> optical -> ADC -> SRAM-stage
// form a linear pipeline with one location in flight per stage (II = max
// stage time); DRAM feature-map traffic streams concurrently; weight
// programming happens up front.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "core/timing_model.hpp"
#include "nn/conv_params.hpp"

namespace pcnna::core {

enum class TraceEventKind {
  kWeightLoad,   ///< weights DRAM -> weight DAC -> ring programming
  kRingSettle,   ///< thermal settling episode after a retune
  kDramRead,     ///< input feature-map burst from DRAM
  kInputDac,     ///< fresh receptive-field values through the input DACs
  kOpticalPass,  ///< one bank pass (all K banks in parallel)
  kAdcSample,    ///< digitizing the K outputs of a location
  kSramStage,    ///< staging fresh inputs / outputs through the cache port
  kDramWrite,    ///< output feature-map burst to DRAM
};

/// Printable name; throws pcnna::Error for a value outside the enum.
const char* trace_event_name(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind;
  double start = 0.0;  ///< [s]
  double end = 0.0;    ///< [s]
  std::uint64_t location = 0; ///< kernel location index (where applicable)
  std::uint64_t units = 0;    ///< samples / words / passes in this event
  double duration() const { return end - start; }
};

/// Complete trace of one layer.
struct LayerTrace {
  nn::ConvLayerParams layer;
  std::vector<TraceEvent> events;
  double total_time = 0.0;     ///< end of the last event
  double weight_load_end = 0.0;///< when ring programming finished
  double compute_end = 0.0;    ///< when the last ADC/SRAM event finished

  /// Number of events of a given kind.
  std::uint64_t count(TraceEventKind kind) const;
  /// Busy time summed over events of a kind.
  double busy(TraceEventKind kind) const;
  /// Render a human-readable (truncated) timeline.
  void print(std::ostream& os, std::size_t max_events = 40) const;
};

/// Render the trace as Chrome trace-event JSON (common/trace_writer.hpp):
/// one thread track per device resource (TraceEventKind), every event a
/// complete span annotated with its location and unit count. The output
/// loads in Perfetto / chrome://tracing and shares its format with the
/// fleet-level runtime telemetry (docs/observability.md), so device- and
/// fleet-level timelines open in the same viewer.
void write_chrome_trace(const LayerTrace& trace, std::ostream& os);

class TraceSimulator {
 public:
  explicit TraceSimulator(PcnnaConfig config);

  const PcnnaConfig& config() const { return config_; }

  /// Schedule one layer and return the full event trace. Event granularity
  /// is one kernel location (per-location events are not split further).
  LayerTrace trace_layer(const nn::ConvLayerParams& layer) const;

 private:
  PcnnaConfig config_;
  Scheduler scheduler_;
};

} // namespace pcnna::core
