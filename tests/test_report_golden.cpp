// Golden serving reports.
//
// The admission goldens (test_admission_properties.cpp) pin the schedule
// an admission run produces; these pin what the serving entry points make
// of it. Every numeric field of an OpenLoopReport — each latency, wait and
// retry-latency summary member, the per-PCU breakdown with its lost
// attempts and swaps, the tenant slices, the shed / fault / autoscaler /
// pipeline outcomes, energy, queue depth, capacity and load factor — is
// folded into one FNV-1a digest, for simulate_open_loop and run_open_loop
// over least-loaded FIFO, multi-tenant EDF with shedding, model affinity
// with faults and retries, pipeline groups and the autoscaler; the
// FleetReport of run() is pinned the same way. Host wall time is the only
// field left out. A change to how reports are derived must reproduce every
// digest bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/batch_runner.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using runtime::ArrivalSchedule;
using runtime::BatchRunner;
using runtime::BatchRunnerOptions;
using runtime::DispatchPolicy;
using runtime::FleetReport;
using runtime::ModelSchedule;
using runtime::OpenLoopReport;
using runtime::PcuBreakdown;
using runtime::PcuSpec;
using runtime::PriorityClass;
using runtime::SloSchedule;

/// FNV-1a over 64-bit words; doubles enter by their bit patterns.
struct Digest {
  std::uint64_t h = 0xCBF29CE484222325ull;

  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const DistributionSummary& d) {
    add(std::uint64_t{d.count});
    for (const double v : {d.mean, d.min, d.max, d.p50, d.p90, d.p99, d.p999})
      add(v);
  }
  void add(const std::vector<PcuBreakdown>& per_pcu) {
    for (const PcuBreakdown& b : per_pcu) {
      add(std::uint64_t{b.tag.size()});
      add(std::uint64_t{b.requests});
      add(std::uint64_t{b.swaps});
      add(std::uint64_t{b.lost_attempts});
      for (const double v : {b.busy_time, b.warmup_time, b.utilization,
                             b.swap_time, b.lost_time})
        add(v);
    }
  }
};

std::uint64_t report_digest(const OpenLoopReport& r) {
  Digest d;
  for (const std::uint64_t w :
       {std::uint64_t{r.pcus}, std::uint64_t{r.requests},
        std::uint64_t{r.served_requests}, std::uint64_t{r.shed_requests},
        std::uint64_t{r.failed_requests}, std::uint64_t{r.model_swaps}})
    d.add(w);
  for (const double v :
       {r.offered_rps, r.achieved_rps, r.fleet_capacity_rps, r.load_factor,
        r.makespan, r.mean_queue_depth, r.total_energy, r.energy_per_request,
        r.shed_rate, r.slo_attainment, r.model_swap_time})
    d.add(v);
  d.add(r.latency);
  d.add(r.queue_wait);
  d.add(r.retry_latency);
  d.add(r.per_pcu);
  for (const runtime::TenantBreakdown& t : r.per_tenant) {
    for (const std::uint64_t w :
         {std::uint64_t{t.tenant}, std::uint64_t{t.requests},
          std::uint64_t{t.served}, std::uint64_t{t.shed},
          std::uint64_t{t.failed}, std::uint64_t{t.slo_misses}})
      d.add(w);
    d.add(t.slo_attainment);
    d.add(t.latency);
  }
  d.add(std::uint64_t{r.autoscaler.scale_ups});
  d.add(std::uint64_t{r.autoscaler.scale_downs});
  d.add(r.autoscaler.mean_active);
  const runtime::PipelineStats& p = r.pipeline;
  for (const std::uint64_t w :
       {std::uint64_t{p.groups}, std::uint64_t{p.pipelined_requests},
        std::uint64_t{p.stage_spans}, std::uint64_t{p.replacements}})
    d.add(w);
  d.add(p.pin_time);
  d.add(p.handoff_time);
  const runtime::FaultReport& f = r.fault;
  for (const std::uint64_t w :
       {std::uint64_t{f.injections}, std::uint64_t{f.transient_corruptions},
        std::uint64_t{f.crash_losses}, std::uint64_t{f.retries},
        std::uint64_t{f.recovered_requests}, std::uint64_t{f.lost_requests},
        std::uint64_t{f.quarantines}, std::uint64_t{f.repairs},
        std::uint64_t{f.plan_epoch_bumps}, std::uint64_t{f.attempts.size()},
        std::uint64_t{f.losses.size()}})
    d.add(w);
  d.add(f.repair_time);
  for (const runtime::PcuHealthStats& hs : f.per_pcu) {
    for (const std::uint64_t w :
         {std::uint64_t{hs.transients}, std::uint64_t{hs.degrades},
          std::uint64_t{hs.crashes}, std::uint64_t{hs.quarantines},
          std::uint64_t{hs.repairs}, std::uint64_t{hs.lost_attempts}})
      d.add(w);
    for (const double v : {hs.healthy_time, hs.degraded_time,
                           hs.quarantined_time, hs.failed_time,
                           hs.availability, hs.lost_time})
      d.add(v);
  }
  return d.h;
}

std::uint64_t fleet_digest(const FleetReport& r) {
  Digest d;
  d.add(std::uint64_t{r.pcus});
  d.add(std::uint64_t{r.requests});
  for (const double v :
       {r.request_time_serial, r.request_interval, r.overlap_speedup,
        r.sequential_rps, r.makespan_sequential, r.makespan, r.throughput_rps,
        r.speedup_vs_sequential, r.scaling_efficiency, r.mean_latency,
        r.max_latency, r.total_energy, r.energy_per_request})
    d.add(v);
  d.add(r.per_pcu);
  return d.h;
}

struct Models {
  nn::Network net = nn::tiny_cnn();
  nn::NetWeights a;
  nn::NetWeights b;
  std::vector<nn::Tensor> inputs;

  Models() {
    Rng rng(41);
    a = nn::make_network_weights(net, rng);
    b = nn::make_network_weights(net, rng);
    for (int i = 0; i < 48; ++i)
      inputs.push_back(nn::make_network_input(net, rng));
  }
};

/// One offered stream: arrivals plus optional SLO and model schedules.
struct Stream {
  ArrivalSchedule arrivals;
  SloSchedule slos;
  ModelSchedule models;

  /// The first `count` requests (run_open_loop serves one input each).
  Stream head(std::size_t count) const {
    Stream s;
    s.arrivals.assign(arrivals.begin(), arrivals.begin() + count);
    if (!slos.empty()) s.slos.assign(slos.begin(), slos.begin() + count);
    if (!models.empty())
      s.models.assign(models.begin(), models.begin() + count);
    return s;
  }
};

/// `count` Poisson arrivals at `load` x the runner's steady-state capacity
/// (every PCU at its model-0 interval).
ArrivalSchedule poisson_at(BatchRunner& runner, std::size_t count,
                           double load, std::uint64_t seed) {
  double capacity = 0.0;
  for (std::size_t p = 0; p < runner.pool().size(); ++p)
    capacity += 1.0 / runner.pool().pcu(p).request_interval_overlapped(0);
  return runtime::poisson_arrivals(count, load * capacity, seed);
}

/// Three tenants in three priority classes with deadlines a few intervals
/// out, and each request's model drawn from {0, .., models - 1}.
Stream slo_stream(BatchRunner& runner, std::size_t count, double load,
                  std::uint64_t seed, std::uint32_t models) {
  Stream s;
  s.arrivals = poisson_at(runner, count, load, seed);
  const runtime::Pcu& pcu = runner.pool().pcu(0);
  const double budget =
      pcu.warmup_time(0) + 3.0 * pcu.request_interval_overlapped(0);
  s.slos = runtime::assign_tenants(
      s.arrivals,
      {{0, PriorityClass::kInteractive, 1.0, budget},
       {1, PriorityClass::kStandard, 2.0, 2.0 * budget},
       {2, PriorityClass::kBestEffort, 1.0, 4.0 * budget}},
      seed + 1);
  Rng rng(seed * 7919 + 3);
  for (std::size_t i = 0; i < count && models > 1; ++i)
    s.models.push_back(static_cast<std::uint32_t>(rng.next_u64() % models));
  return s;
}

BatchRunnerOptions timing_options(DispatchPolicy policy) {
  BatchRunnerOptions o;
  o.dispatch = policy;
  o.simulate_values = false;
  o.seed = 7;
  return o;
}

struct Case {
  const char* name;
  std::unique_ptr<BatchRunner> runner;
  Stream stream;
};

/// The five serving configurations the goldens cover.
std::vector<Case> make_cases(const Models& m) {
  std::vector<Case> cases;
  const double interval =
      BatchRunner(PcnnaConfig::paper_defaults(), m.net, m.a,
                  timing_options(DispatchPolicy::kLeastLoaded))
          .pool()
          .pcu(0)
          .request_interval_overlapped(0);

  // Least-loaded FIFO on a tagged mixed fleet.
  {
    PcuSpec big;
    big.config = PcnnaConfig::paper_defaults();
    big.tag = "big";
    PcuSpec small;
    small.config = PcnnaConfig::small_core();
    small.tag = "small";
    auto runner = std::make_unique<BatchRunner>(
        std::vector<PcuSpec>{big, big, small, small}, m.net, m.a,
        timing_options(DispatchPolicy::kLeastLoaded));
    Stream s;
    s.arrivals = poisson_at(*runner, 2000, 0.9, 3);
    cases.push_back({"least-loaded fifo", std::move(runner), std::move(s)});
  }

  // Multi-tenant EDF with shedding, overloaded so shedding fires.
  {
    BatchRunnerOptions o = timing_options(DispatchPolicy::kEdf);
    o.num_pcus = 4;
    o.shed_expired = true;
    auto runner = std::make_unique<BatchRunner>(PcnnaConfig::paper_defaults(),
                                                m.net, m.a, o);
    Stream s = slo_stream(*runner, 1500, 1.2, 5, 1);
    cases.push_back({"edf + shed", std::move(runner), std::move(s)});
  }

  // Model affinity over two models with crashes, transients and degrades:
  // retries succeed on other PCUs, so the kept schedule drops destroyed
  // attempts.
  {
    BatchRunnerOptions o = timing_options(DispatchPolicy::kModelAffinity);
    o.num_pcus = 4;
    runtime::FaultModel hazard;
    hazard.mtbf = 40.0 * interval;
    hazard.horizon = 400.0 * interval;
    hazard.mean_time_to_repair = 15.0 * interval;
    hazard.crash_weight = 3.0;
    o.faults.schedule = runtime::poisson_faults(4, hazard, 11);
    o.faults.detection_latency = 0.5 * interval;
    o.faults.retry.backoff_base = 0.25 * interval;
    o.faults.repair_time = 2.0 * interval;
    auto runner = std::make_unique<BatchRunner>(PcnnaConfig::paper_defaults(),
                                                m.net, m.a, o);
    runner->register_model(m.net, m.b);
    Stream s = slo_stream(*runner, 1500, 0.8, 9, 2);
    cases.push_back({"affinity + faults", std::move(runner), std::move(s)});
  }

  // Model 1 pipelined over PCUs {0, 1}; model 0 on the rest.
  {
    BatchRunnerOptions o = timing_options(DispatchPolicy::kPipeline);
    o.num_pcus = 4;
    auto runner = std::make_unique<BatchRunner>(PcnnaConfig::paper_defaults(),
                                                m.net, m.a, o);
    runner->register_model(m.net, m.b);
    runner->build_pipeline(/*model=*/1, {0, 1},
                           /*handoff_time=*/1e-7);
    Stream s = slo_stream(*runner, 1500, 0.6, 13, 2);
    s.slos.clear();
    cases.push_back({"pipeline", std::move(runner), std::move(s)});
  }

  // The autoscaler parking and waking PCUs under light, bursty load.
  {
    BatchRunnerOptions o = timing_options(DispatchPolicy::kLeastLoaded);
    o.num_pcus = 8;
    o.autoscaler.enabled = true;
    o.autoscaler.min_active = 1;
    o.autoscaler.backlog_per_pcu = 1.0;
    o.autoscaler.shrink_after_idle = 2.0 * interval;
    auto runner = std::make_unique<BatchRunner>(PcnnaConfig::paper_defaults(),
                                                m.net, m.a, o);
    Stream s;
    s.arrivals = poisson_at(*runner, 1500, 0.3, 17);
    cases.push_back({"autoscaler", std::move(runner), std::move(s)});
  }
  return cases;
}

TEST(OpenLoopGolden, ReportsMatchPinnedDigests) {
  const Models m;
  std::vector<Case> cases = make_cases(m);
  // report_digest per case, in make_cases order: simulate_open_loop over
  // the whole stream, then run_open_loop over its first inputs.size()
  // requests.
  const std::uint64_t simulated[] = {
      0x2DC153D4F62D1744ull, 0xDE60047FCE62857Dull, 0x0A923FB5D226FF95ull,
      0xC9B7D3ADE1B38399ull, 0xA89EC3D6AEAAEA5Bull};
  const std::uint64_t served[] = {
      0x76D740E40E4A3DDAull, 0xC278F2A4EB99F26Full, 0x662097DD83CB846Bull,
      0x112B02ABE2FF5349ull, 0x54B178345CD2D1AAull};
  ASSERT_EQ(std::size(simulated), cases.size());

  for (std::size_t i = 0; i < cases.size(); ++i) {
    Case& c = cases[i];
    SCOPED_TRACE(c.name);
    const OpenLoopReport sim = c.runner->simulate_open_loop(
        c.stream.arrivals, c.stream.slos, c.stream.models);
    EXPECT_EQ(simulated[i], report_digest(sim))
        << std::hex << std::uppercase << "0x" << report_digest(sim);

    const Stream head = c.stream.head(m.inputs.size());
    OpenLoopReport run;
    c.runner->run_open_loop(m.inputs, head.arrivals, &run, head.slos,
                            head.models);
    EXPECT_EQ(served[i], report_digest(run))
        << std::hex << std::uppercase << "0x" << report_digest(run);

    // Each configuration exercises what it is named for.
    EXPECT_EQ(sim.requests, c.stream.arrivals.size());
    switch (i) {
      case 1:
        EXPECT_GT(sim.shed_requests, 0u);
        EXPECT_GT(sim.per_tenant.size(), 1u);
        break;
      case 2:
        EXPECT_GT(sim.fault.attempts.size(), 0u);
        EXPECT_GT(sim.fault.recovered_requests, 0u);
        EXPECT_GT(sim.retry_latency.count, 0u);
        EXPECT_GT(sim.model_swaps, 0u);
        break;
      case 3:
        EXPECT_GT(sim.pipeline.pipelined_requests, 0u);
        EXPECT_LT(sim.pipeline.pipelined_requests, sim.served_requests);
        break;
      case 4:
        EXPECT_GT(sim.autoscaler.scale_ups, 0u);
        EXPECT_GT(sim.autoscaler.scale_downs, 0u);
        break;
      default:
        break;
    }
  }

  // run(): the closed batch on the FIFO fleet and on the faulty one.
  const std::uint64_t fleets[] = {0xAD6036FDA21BE635ull,
                                  0x52835D618362B385ull};
  for (std::size_t k = 0; k < std::size(fleets); ++k) {
    Case& c = cases[k == 0 ? 0 : 2];
    SCOPED_TRACE(c.name);
    FleetReport fleet;
    c.runner->run(m.inputs, &fleet);
    EXPECT_EQ(fleets[k], fleet_digest(fleet))
        << std::hex << std::uppercase << "0x" << fleet_digest(fleet);
  }
}

} // namespace
