#include "bench_core.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

TailStat tail_stat(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  const std::pair<double, const char*> levels[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
  for (const auto& [q, label] : levels) {
    if (n * (1.0 - q) >= 10.0) return {label, quantile(values, q)};
  }
  return {"max", quantile(values, 1.0)};
}

double median_paired_ratio(
    const std::vector<std::pair<double, double>>& with_without) {
  std::vector<double> ratios;
  for (const auto& [with, without] : with_without) {
    if (without > 0.0) ratios.push_back(with / without);
  }
  return median(ratios);
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (verbose_) std::cerr << "FAIL: " << what << "\n";
  }
  return ok;
}

void Checks::fail_call(const std::string& what, const std::string& error) {
  ++attempted_;
  ++failed_;
  std::cerr << "FAIL: " << what << " threw: " << error << "\n";
}

void MetricTable::add(std::string name, double value, std::string unit,
                      std::size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t call)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.id = tracer_.next_id_++;
  span.parent =
      tracer_.open_.empty() ? 0 : tracer_.spans_[tracer_.open_.back()].id;
  span.call = call;
  span.name = std::move(name);
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
  // Read the clock last so the span excludes its own bookkeeping.
  tracer_.spans_[index_].start = seconds_since(tracer_.origin_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end = seconds_since(tracer_.origin_);
  tracer_.open_.pop_back();
}

void Tracer::Scope::count(std::string key, double value) {
  tracer_.spans_[index_].counts.emplace_back(std::move(key), value);
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end >= s.start) out.push_back(s.seconds());
  }
  return out;
}

double Tracer::self_seconds(std::size_t index) const {
  // Spans are strictly nested on one thread, so children never overlap
  // and their union is their sum.
  const Span& span = spans_[index];
  double children = 0.0;
  for (std::size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == span.id) children += spans_[i].seconds();
  }
  return span.seconds() - children;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  os << std::setprecision(17);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start * 1e6
       << ",\"dur\":" << s.seconds() * 1e6 << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"call\":" << s.call
       << ",\"self_us\":" << self_seconds(i) * 1e6;
    for (const auto& [k, v] : s.counts) os << ",\"" << k << "\":" << v;
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace perfbench
