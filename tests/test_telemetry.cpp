// Unit tests for the fleet telemetry layer: the Chrome trace writer, the
// metrics registry (counter / gauge / log-bucket histogram with Kahan
// accumulation), span derivation from an admission run, and the device
// LayerTrace exporter.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/trace_writer.hpp"
#include "core/config.hpp"
#include "core/trace.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/pcu_pool.hpp"
#include "runtime/telemetry.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::TimingFidelity;
using runtime::AdmissionOptions;
using runtime::AdmissionResult;
using runtime::Counter;
using runtime::DispatchPolicy;
using runtime::Histogram;
using runtime::InferenceRequest;
using runtime::MetricsRegistry;
using runtime::PcuPool;
using runtime::RequestSpan;
using runtime::ScheduledService;
using runtime::SpanKind;
using runtime::Telemetry;

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size()))
    ++n;
  return n;
}

// --- TraceWriter ---

TEST(TraceWriter, EmitsChromeObjectFormat) {
  TraceWriter w;
  w.set_process_name(1, "fleet");
  w.set_thread_name(1, 0, "pcu 0");
  w.complete(1, 0, "req 0", "service", 1.0, 2.5,
             {TraceArg::num("id", 0.0), TraceArg::str("priority", "std")});
  w.instant(2, 3, "shed", "shed", 4.0);
  w.counter(1, "queue depth", 0.5, "pending", 7.0);
  EXPECT_EQ(5u, w.size());

  std::ostringstream os;
  w.write(os);
  const std::string json = os.str();
  EXPECT_NE(std::string::npos, json.find("\"traceEvents\""));
  EXPECT_NE(std::string::npos, json.find("\"displayTimeUnit\""));
  EXPECT_NE(std::string::npos, json.find("\"process_name\""));
  EXPECT_NE(std::string::npos, json.find("\"thread_name\""));
  EXPECT_NE(std::string::npos, json.find("\"req 0\""));
  EXPECT_NE(std::string::npos, json.find("\"service\""));
  // 1.0 s start -> 1e6 us, 1.5 s duration -> 1.5e6 us.
  EXPECT_NE(std::string::npos, json.find("1000000"));
  EXPECT_NE(std::string::npos, json.find("1500000"));
  // Deterministic serialization: a second write is byte-identical.
  std::ostringstream again;
  w.write(again);
  EXPECT_EQ(json, again.str());
}

TEST(TraceWriter, RejectsNegativeDurations) {
  TraceWriter w;
  EXPECT_THROW(w.complete(0, 0, "bad", "", 2.0, 1.0), Error);
}

// --- Histogram ---

TEST(Histogram, LogBucketsCoverUnderflowAndOverflow) {
  // 6 buckets spanning 1e-3..1e3: upper bounds one decade apart.
  Histogram h(1e-3, 1e3, 6);
  ASSERT_EQ(6u, h.upper_bounds().size());
  EXPECT_DOUBLE_EQ(1e3, h.upper_bounds().back());
  ASSERT_EQ(7u, h.bucket_counts().size()); // +Inf overflow slot

  h.observe(5e-4);  // below lo: lands in the first bucket
  h.observe(5e-2);  // second bucket (1e-2 < v <= 1e-1)
  h.observe(2e3);   // above hi: overflow bucket
  EXPECT_EQ(3u, h.count());
  EXPECT_EQ(1u, h.bucket_counts()[0]);
  EXPECT_EQ(1u, h.bucket_counts()[1]);
  EXPECT_EQ(1u, h.bucket_counts()[6]);
}

TEST(Histogram, KahanSumSurvivesMagnitudeDisparity) {
  Histogram h(1e-6, 1e3, 8);
  // Naive summation loses the two 1.0s under the 1e16 (1e16 + 1 == 1e16
  // in double); the compensated sum keeps them.
  h.observe(1e16);
  h.observe(1.0);
  h.observe(1.0);
  h.observe(-1e16);
  EXPECT_EQ(2.0, h.sum());
  EXPECT_EQ(4u, h.count());
}

// --- MetricsRegistry ---

TEST(MetricsRegistry, ReRequestReturnsTheSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("pcnna_x_total", "x");
  a.add(3);
  Counter& b = reg.counter("pcnna_x_total", "x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(3u, b.value());
  // A name cannot change kind.
  EXPECT_THROW(reg.gauge("pcnna_x_total", "x"), Error);
}

TEST(MetricsRegistry, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("pcnna_served_total", "Requests served").add(5);
  reg.gauge("pcnna_busy{pcu=\"0\"}", "Busy time").set(1.5);
  reg.gauge("pcnna_busy{pcu=\"1\"}", "Busy time").set(2.5);
  Histogram& h =
      reg.histogram("pcnna_wait_seconds", "Queue wait", 1e-3, 1e3, 6);
  h.observe(0.5);
  h.observe(2.0);

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(std::string::npos, text.find("# TYPE pcnna_served_total counter"));
  EXPECT_NE(std::string::npos, text.find("pcnna_served_total 5"));
  // One HELP/TYPE header per family, even with two labeled series.
  EXPECT_EQ(1u, count_of(text, "# TYPE pcnna_busy gauge"));
  EXPECT_NE(std::string::npos, text.find("pcnna_busy{pcu=\"0\"} 1.5"));
  EXPECT_NE(std::string::npos, text.find("pcnna_busy{pcu=\"1\"} 2.5"));
  // Histogram: cumulative buckets, +Inf, then _sum and _count.
  EXPECT_NE(std::string::npos, text.find("# TYPE pcnna_wait_seconds histogram"));
  EXPECT_NE(std::string::npos,
            text.find("pcnna_wait_seconds_bucket{le=\"+Inf\"} 2"));
  EXPECT_NE(std::string::npos, text.find("pcnna_wait_seconds_sum 2.5"));
  EXPECT_NE(std::string::npos, text.find("pcnna_wait_seconds_count 2"));
  // Cumulative monotonicity: the ~1 s bucket already holds the 0.5 obs
  // but not the 2.0 one. The bound is pow-derived (not exactly 1.0), so
  // render it with the exporter's own %.17g formatting.
  char bound[64];
  std::snprintf(bound, sizeof bound, "%.17g", h.upper_bounds()[2]);
  EXPECT_NE(std::string::npos,
            text.find("pcnna_wait_seconds_bucket{le=\"" + std::string(bound) +
                      "\"} 1"));
}

// --- Span derivation from an admission run ---

struct Fixture {
  nn::Network net = nn::tiny_cnn();
  nn::NetWeights weights;
  Fixture() {
    Rng rng(31);
    weights = nn::make_network_weights(net, rng);
  }
};

std::vector<InferenceRequest> burst(std::size_t count, double spacing) {
  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < count; ++id) {
    InferenceRequest r;
    r.id = id;
    r.arrival_time = static_cast<double>(id) * spacing;
    requests.push_back(r);
  }
  return requests;
}

AdmissionResult admit(PcuPool& pool,
                      const std::vector<InferenceRequest>& requests,
                      const AdmissionOptions& options) {
  return pool.simulate_admission(requests, options);
}

TEST(Telemetry, ServiceSpansMirrorTheScheduleExactly) {
  Fixture f;
  PcuPool pool(2, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               f.net, f.weights);
  Telemetry telemetry;
  AdmissionOptions o;
  o.telemetry = &telemetry;
  o.policy = DispatchPolicy::kEdf; // event-driven: queue-depth hook fires
  const AdmissionResult r = admit(pool, burst(16, 0.0), o);
  ASSERT_EQ(16u, r.schedule.size());

  // One queue-wait and one service span per schedule entry, same order,
  // same bits.
  std::vector<const RequestSpan*> service;
  for (const RequestSpan& s : telemetry.spans())
    if (s.kind == SpanKind::kService) service.push_back(&s);
  ASSERT_EQ(r.schedule.size(), service.size());
  for (std::size_t i = 0; i < r.schedule.size(); ++i) {
    const ScheduledService& s = r.schedule[i];
    EXPECT_EQ(s.id, service[i]->id);
    EXPECT_EQ(s.pcu, service[i]->pcu);
    EXPECT_EQ(s.start, service[i]->start);
    EXPECT_EQ(s.completion, service[i]->end);
    EXPECT_EQ(s.warmup, service[i]->warmup);
    EXPECT_EQ(s.swap, service[i]->swap);
  }
  EXPECT_FALSE(telemetry.queue_depth_samples().empty());

  // Dispatch counter hook saw every commitment.
  std::ostringstream prom;
  telemetry.write_prometheus(prom);
  EXPECT_NE(std::string::npos,
            prom.str().find("pcnna_dispatches_total 16"));
  EXPECT_NE(std::string::npos,
            prom.str().find("pcnna_requests_served_total 16"));
}

TEST(Telemetry, ChromeTraceIsDeterministicAndWellFormed) {
  Fixture f;
  const auto run = [&]() {
    PcuPool pool(3, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
                 f.net, f.weights);
    Telemetry telemetry;
    AdmissionOptions o;
    o.telemetry = &telemetry;
    o.policy = DispatchPolicy::kEdf;
    admit(pool, burst(32, 1e-6), o);
    std::ostringstream os;
    telemetry.write_chrome_trace(os);
    return os.str();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b) << "identical runs must serialize identical traces";
  EXPECT_NE(std::string::npos, a.find("\"pcnna fleet\""));
  EXPECT_NE(std::string::npos, a.find("\"otherData\""));
  EXPECT_NE(std::string::npos, a.find("\"queue depth\""));
}

TEST(Telemetry, ShedAndQueueSpansLandOnTenantTracks) {
  Fixture f;
  PcuPool pool(1, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               f.net, f.weights);
  const double interval = pool.pcu(0).request_interval_overlapped();
  Telemetry telemetry;
  AdmissionOptions o;
  o.telemetry = &telemetry;
  o.policy = DispatchPolicy::kEdf;
  o.shed_expired = true;
  // All-at-once burst with a deadline only the first few can meet.
  std::vector<InferenceRequest> requests = burst(12, 0.0);
  for (InferenceRequest& r : requests) {
    r.tenant = static_cast<std::uint32_t>(r.id % 2);
    r.deadline = 3.0 * interval + pool.pcu(0).warmup_time();
  }
  const AdmissionResult r = admit(pool, std::move(requests), o);
  ASSERT_GT(r.shed.shed, 0u);

  std::size_t shed_spans = 0;
  for (const RequestSpan& s : telemetry.spans()) {
    if (s.kind == SpanKind::kShed) {
      ++shed_spans;
      EXPECT_EQ(RequestSpan::kNoPcu, s.pcu);
      EXPECT_EQ(s.start, s.end) << "shed is an instant";
    }
  }
  EXPECT_EQ(r.shed.shed, shed_spans);
  std::ostringstream os;
  telemetry.write_chrome_trace(os);
  EXPECT_NE(std::string::npos, os.str().find("\"pcnna tenants\""));
  EXPECT_NE(std::string::npos, os.str().find("\"shed\""));
}

// --- Device LayerTrace exporter (satellite) ---

TEST(LayerTraceChrome, ExportsEveryEventKindOnItsOwnTrack) {
  const core::TraceSimulator sim(PcnnaConfig::paper_defaults());
  const auto layers = nn::alexnet_conv_layers();
  const core::LayerTrace trace = sim.trace_layer(layers[0]);
  ASSERT_GT(trace.events.size(), 0u);

  std::ostringstream os;
  core::write_chrome_trace(trace, os);
  const std::string json = os.str();
  EXPECT_NE(std::string::npos, json.find("\"traceEvents\""));
  EXPECT_NE(std::string::npos, json.find(layers[0].name));
  EXPECT_NE(std::string::npos, json.find("\"optical\""));
  EXPECT_NE(std::string::npos, json.find("\"weight-load\""));
  // Every event made it through (plus metadata events on top).
  EXPECT_GE(count_of(json, "\"ph\""), trace.events.size());
  // Determinism.
  std::ostringstream again;
  core::write_chrome_trace(trace, again);
  EXPECT_EQ(json, again.str());
}

} // namespace
