// Shared plumbing of the pcnna benchmark: clocks and order statistics,
// failure accounting, the metric table every run prints, and the in-memory
// span recorder the traced run derives its per-layer numbers from.
//
// Spans are recorded only by the benchmark's own code, around calls into
// the library's public functions; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Linearly interpolated quantile q in [0, 1]; 0 when empty.
double quantile(std::vector<double> values, double q);

/// The highest of p99.9 / p99 / p90 with at least ten samples beyond it,
/// or the maximum when fewer than twenty samples exist (`label` says which).
struct TailStat {
  std::string label;
  double value = 0.0;
};
TailStat tail_stat(const std::vector<double>& values);

/// Median over interleaved (with, without) timing pairs of with / without.
/// Pairs whose `without` time is not positive are skipped; 0 when none is
/// left. This is the overhead estimator of the telemetry and tracing rows.
double median_paired_ratio(
    const std::vector<std::pair<double, double>>& with_without);

/// Counts attempted operations and failures. A failure is a call that threw
/// or a correctness check that did not hold; each is reported on stderr.
class Checks {
 public:
  /// `verbose` false keeps failures off stderr (the self-tests' probes).
  explicit Checks(bool verbose = true) : verbose_(verbose) {}

  /// Record one check; returns `ok`.
  bool expect(bool ok, const std::string& what);
  /// Record one thrown call.
  void fail_call(const std::string& what, const std::string& error);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  bool verbose_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// One reported number: name, value, unit, and how many samples it rests on.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class MetricTable {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// One recorded span. Times are seconds since the tracer was created.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0; ///< 0 for a root span
  std::uint64_t call = 0;   ///< request or call id the span belongs to
  std::string name;
  double start = 0.0;
  double end = 0.0;
  /// Counts recorded at the span's boundary (e.g. EngineStats fields).
  std::vector<std::pair<std::string, double>> counts;

  double seconds() const { return end - start; }
};

/// In-memory span recorder. Single-threaded: spans open and close on the
/// benchmark's main thread, strictly nested.
class Tracer {
 public:
  Tracer();

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t call);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attach a count to the span.
    void count(std::string key, double value);

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every closed span named `name`, in recording order.
  std::vector<double> durations(std::string_view name) const;
  /// Self time of spans_[index]: its duration minus its children's.
  double self_seconds(std::size_t index) const;

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto); each
  /// event's args carry id, parent, call, self time, and the counts.
  void write_chrome_trace(std::ostream& os) const;

 private:
  Clock::time_point origin_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_; ///< indices of the open spans, innermost last
};

} // namespace perfbench
