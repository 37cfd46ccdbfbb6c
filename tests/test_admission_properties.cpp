// Property tests over the admission loop itself.
//
// The load-bearing guarantees pinned here:
//  * simulate_admission is a pure function of (requests, options): two
//    runs with identical inputs produce bitwise-identical schedules, shed
//    decisions, and autoscaler stats — even on the fully event-driven
//    path (affinity + shedding + autoscaler + multiple models);
//  * engine_threads is a host-parallelism knob: no virtual-time quantity
//    may depend on it, so schedules are bit-identical across settings;
//  * adversarial EDF tie-breaks: requests tied on (class, deadline,
//    arrival) are ordered by id and nothing else — push order, model ids
//    and PCU history must not leak into the order;
//  * randomized property sweep: for every dispatch policy x seed x fault
//    schedule, admission conserves requests (offered == served + shed +
//    lost), virtual time is monotone on the event-driven path, and no two
//    services — including pipeline stage spans — overlap on one PCU;
//  * golden FIFO schedules: the commit-at-arrival policies reproduce
//    pinned schedule digests on a homogeneous and a mixed fleet;
//  * golden admission results across fleet shapes, warmup policies,
//    serial pricing, two models, 2048 PCUs and every deferral mode, and
//    golden outcomes (stage spans, fault counters, per-PCU health,
//    pipeline totals) over the deferral modes and their combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/planner.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/pcu_pool.hpp"
#include "runtime/arrival.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::TimingFidelity;
using runtime::AdmissionOptions;
using runtime::AdmissionResult;
using runtime::ArrivalSchedule;
using runtime::DispatchPolicy;
using runtime::InferenceRequest;
using runtime::PcuPool;
using runtime::PcuSpec;
using runtime::PriorityClass;
using runtime::ScheduledService;

struct TwoModels {
  nn::Network net;
  nn::NetWeights weights_a;
  nn::NetWeights weights_b;
};

TwoModels make_two_models(std::uint64_t seed = 31) {
  Rng rng(seed);
  TwoModels t{nn::tiny_cnn(), {}, {}};
  t.weights_a = nn::make_network_weights(t.net, rng);
  t.weights_b = nn::make_network_weights(t.net, rng);
  return t;
}

AdmissionResult admit(PcuPool& pool,
                      const std::vector<InferenceRequest>& requests,
                      const AdmissionOptions& admission) {
  return pool.simulate_admission(requests, admission);
}

/// Bitwise equality over every ScheduledService field — doubles compared
/// exactly, because determinism means identical bits, not "close".
void expect_bit_identical(const AdmissionResult& a, const AdmissionResult& b) {
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    const ScheduledService& x = a.schedule[i];
    const ScheduledService& y = b.schedule[i];
    EXPECT_EQ(x.id, y.id) << "entry " << i;
    EXPECT_EQ(x.pcu, y.pcu) << "entry " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "entry " << i;
    EXPECT_EQ(x.start, y.start) << "entry " << i;
    EXPECT_EQ(x.completion, y.completion) << "entry " << i;
    EXPECT_EQ(x.warmup, y.warmup) << "entry " << i;
    EXPECT_EQ(x.tenant, y.tenant) << "entry " << i;
    EXPECT_EQ(x.priority, y.priority) << "entry " << i;
    EXPECT_EQ(x.deadline, y.deadline) << "entry " << i;
    EXPECT_EQ(x.model, y.model) << "entry " << i;
    EXPECT_EQ(x.swap, y.swap) << "entry " << i;
    EXPECT_EQ(x.swapped, y.swapped) << "entry " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "entry " << i;
    ASSERT_EQ(x.stages.size(), y.stages.size()) << "entry " << i;
    for (std::size_t j = 0; j < x.stages.size(); ++j) {
      EXPECT_EQ(x.stages[j].stage, y.stages[j].stage) << i << "/" << j;
      EXPECT_EQ(x.stages[j].pcu, y.stages[j].pcu) << i << "/" << j;
      EXPECT_EQ(x.stages[j].op_begin, y.stages[j].op_begin) << i << "/" << j;
      EXPECT_EQ(x.stages[j].op_end, y.stages[j].op_end) << i << "/" << j;
      EXPECT_EQ(x.stages[j].start, y.stages[j].start) << i << "/" << j;
      EXPECT_EQ(x.stages[j].completion, y.stages[j].completion)
          << i << "/" << j;
      EXPECT_EQ(x.stages[j].pin, y.stages[j].pin) << i << "/" << j;
      EXPECT_EQ(x.stages[j].handoff, y.stages[j].handoff) << i << "/" << j;
    }
  }
  EXPECT_EQ(a.pipeline.groups, b.pipeline.groups);
  EXPECT_EQ(a.pipeline.pipelined_requests, b.pipeline.pipelined_requests);
  EXPECT_EQ(a.pipeline.stage_spans, b.pipeline.stage_spans);
  EXPECT_EQ(a.pipeline.replacements, b.pipeline.replacements);
  EXPECT_EQ(a.pipeline.pin_time, b.pipeline.pin_time);
  EXPECT_EQ(a.pipeline.handoff_time, b.pipeline.handoff_time);
  ASSERT_EQ(a.shed.shed, b.shed.shed);
  ASSERT_EQ(a.shed.decisions.size(), b.shed.decisions.size());
  for (std::size_t i = 0; i < a.shed.decisions.size(); ++i) {
    EXPECT_EQ(a.shed.decisions[i].id, b.shed.decisions[i].id);
    EXPECT_EQ(a.shed.decisions[i].decision_time,
              b.shed.decisions[i].decision_time);
  }
  EXPECT_EQ(a.autoscaler.scale_ups, b.autoscaler.scale_ups);
  EXPECT_EQ(a.autoscaler.scale_downs, b.autoscaler.scale_downs);
  EXPECT_EQ(a.autoscaler.mean_active, b.autoscaler.mean_active);
}

/// The nastiest stream we can build deterministically: two models, three
/// tenant classes, finite deadlines, overload — exercising affinity
/// deferral, swap fallback, shedding and the autoscaler in one run.
std::vector<InferenceRequest> adversarial_stream(const PcuPool& pool,
                                                 std::size_t count) {
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  const double warmup = pool.pcu(0).warmup_time(0);
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(count, 2.2 / interval, 13);
  Rng rng(99);
  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < count; ++id) {
    InferenceRequest r;
    r.id = id;
    r.arrival_time = arrivals[id];
    r.model_id = static_cast<std::uint32_t>(rng.next_u64() % 2);
    const std::uint64_t cls = rng.next_u64() % 3;
    r.priority = cls == 0 ? PriorityClass::kInteractive
                          : (cls == 1 ? PriorityClass::kStandard
                                      : PriorityClass::kBestEffort);
    r.tenant = static_cast<std::uint32_t>(cls);
    r.deadline = arrivals[id] + warmup +
                 (2.0 + static_cast<double>(rng.next_u64() % 8)) * interval;
    requests.push_back(r);
  }
  return requests;
}

// --- Determinism across repeated runs (satellite) ---

TEST(AdmissionDeterminism, EventDrivenScheduleBitIdenticalAcrossRuns) {
  const TwoModels t = make_two_models();
  PcuPool pool(3, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  const double interval = pool.pcu(0).request_interval_overlapped(0);

  AdmissionOptions o;
  o.policy = DispatchPolicy::kModelAffinity;
  o.shed_expired = true;
  o.autoscaler.enabled = true;
  o.autoscaler.min_active = 1;
  o.autoscaler.backlog_per_pcu = 1.5;
  o.autoscaler.shrink_after_idle = 3.0 * interval;

  const AdmissionResult a = admit(pool, adversarial_stream(pool, 400), o);
  const AdmissionResult b = admit(pool, adversarial_stream(pool, 400), o);
  ASSERT_GT(a.schedule.size(), 0u);
  expect_bit_identical(a, b);
}

TEST(AdmissionDeterminism, EagerScheduleBitIdenticalAcrossRuns) {
  const TwoModels t = make_two_models();
  PcuPool pool(2, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  const AdmissionResult a =
      admit(pool, adversarial_stream(pool, 300), {});
  const AdmissionResult b =
      admit(pool, adversarial_stream(pool, 300), {});
  expect_bit_identical(a, b);
}

// --- Determinism across engine_threads (satellite) ---

TEST(AdmissionDeterminism, EngineThreadsNeverPerturbsTheSchedule) {
  const TwoModels t = make_two_models();

  const auto build = [&](std::size_t threads) {
    PcuSpec spec;
    spec.config = PcnnaConfig::paper_defaults();
    spec.engine_threads = threads;
    return PcuPool(std::vector<PcuSpec>(3, spec), TimingFidelity::kFull,
                   t.net, t.weights_a);
  };
  PcuPool one = build(1);
  PcuPool many = build(8);
  one.register_model(t.net, t.weights_b);
  many.register_model(t.net, t.weights_b);
  const double interval = one.pcu(0).request_interval_overlapped(0);

  AdmissionOptions o;
  o.policy = DispatchPolicy::kModelAffinity;
  o.shed_expired = true;
  o.autoscaler.enabled = true;
  o.autoscaler.min_active = 1;
  o.autoscaler.backlog_per_pcu = 1.5;
  o.autoscaler.shrink_after_idle = 3.0 * interval;

  // Virtual-time accounting must be a function of the device models only:
  // the host thread count may change who computes, never what is computed
  // or when the schedule says it happens.
  const AdmissionResult a = admit(one, adversarial_stream(one, 400), o);
  const AdmissionResult b = admit(many, adversarial_stream(many, 400), o);
  expect_bit_identical(a, b);

  AdmissionOptions edf;
  edf.policy = DispatchPolicy::kEdf;
  const AdmissionResult c = admit(one, adversarial_stream(one, 200), edf);
  const AdmissionResult d = admit(many, adversarial_stream(many, 200), edf);
  expect_bit_identical(c, d);
}

// --- Fault machinery off means OFF: the bit-identity contract ---

// An empty FaultSchedule must bypass every fault code path: for every
// dispatch policy, a run with default-constructed FaultOptions (plus
// arbitrary knob settings behind the empty schedule) reproduces the
// schedule of a run that never heard of faults, bit for bit — and reports
// no fault activity at all.
TEST(AdmissionDeterminism, EmptyFaultScheduleIsBitIdenticalForEveryPolicy) {
  const TwoModels t = make_two_models();
  PcuPool pool(3, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);

  for (DispatchPolicy policy : runtime::kAllDispatchPolicies) {
    AdmissionOptions plain;
    plain.policy = policy;
    plain.shed_expired = true;

    AdmissionOptions with_knobs = plain;
    // Every fault knob armed — but the schedule is empty, so none of it
    // may run. The non-schedule knobs alone must not flip the loop into
    // its event-driven mode or perturb a single double.
    with_knobs.faults.detection_latency = 1.0;
    with_knobs.faults.retry.max_retries = 7;
    with_knobs.faults.retry.backoff_base = 0.5;
    with_knobs.faults.repair_time = 2.0;

    const AdmissionResult a =
        admit(pool, adversarial_stream(pool, 300), plain);
    const AdmissionResult b =
        admit(pool, adversarial_stream(pool, 300), with_knobs);
    ASSERT_GT(a.schedule.size(), 0u)
        << runtime::dispatch_policy_name(policy);
    expect_bit_identical(a, b);
    EXPECT_EQ(0u, b.fault.injections);
    EXPECT_TRUE(b.fault.per_pcu.empty());
    EXPECT_TRUE(b.fault.losses.empty());
    for (const ScheduledService& s : b.schedule) EXPECT_EQ(1u, s.attempts);
  }
}

// With a non-empty schedule the whole fault pipeline must itself be a pure
// function of its inputs: two identical runs agree on every FaultReport
// field, bit for bit.
TEST(AdmissionDeterminism, FaultReportBitIdenticalAcrossRuns) {
  const TwoModels t = make_two_models();
  PcuPool pool(3, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  const double interval = pool.pcu(0).request_interval_overlapped(0);

  runtime::FaultModel hazard;
  hazard.mtbf = 60.0 * interval;
  hazard.horizon = 250.0 * interval;
  hazard.mean_time_to_repair = 20.0 * interval;

  AdmissionOptions o;
  o.policy = DispatchPolicy::kModelAffinity;
  o.shed_expired = true;
  o.faults.schedule = runtime::poisson_faults(3, hazard, 41);
  o.faults.detection_latency = 0.5 * interval;
  o.faults.retry.backoff_base = 0.25 * interval;
  o.faults.repair_time = 2.0 * interval;
  ASSERT_FALSE(o.faults.schedule.empty());

  const AdmissionResult a = admit(pool, adversarial_stream(pool, 400), o);
  const AdmissionResult b = admit(pool, adversarial_stream(pool, 400), o);
  expect_bit_identical(a, b);
  EXPECT_GT(a.fault.injections, 0u);
  EXPECT_EQ(a.fault.injections, b.fault.injections);
  EXPECT_EQ(a.fault.retries, b.fault.retries);
  EXPECT_EQ(a.fault.lost_requests, b.fault.lost_requests);
  ASSERT_EQ(a.fault.attempts.size(), b.fault.attempts.size());
  for (std::size_t i = 0; i < a.fault.attempts.size(); ++i) {
    EXPECT_EQ(a.fault.attempts[i].id, b.fault.attempts[i].id);
    EXPECT_EQ(a.fault.attempts[i].pcu, b.fault.attempts[i].pcu);
    EXPECT_EQ(a.fault.attempts[i].start, b.fault.attempts[i].start);
    EXPECT_EQ(a.fault.attempts[i].end, b.fault.attempts[i].end);
  }
  ASSERT_EQ(a.fault.per_pcu.size(), b.fault.per_pcu.size());
  for (std::size_t p = 0; p < a.fault.per_pcu.size(); ++p) {
    EXPECT_EQ(a.fault.per_pcu[p].availability,
              b.fault.per_pcu[p].availability);
    EXPECT_EQ(a.fault.per_pcu[p].healthy_time,
              b.fault.per_pcu[p].healthy_time);
    EXPECT_EQ(a.fault.per_pcu[p].failed_time, b.fault.per_pcu[p].failed_time);
  }
}

// --- Adversarial EDF tie-breaks (satellite) ---

TEST(EdfTieBreak, FullTiesAreBrokenOnlyById) {
  const TwoModels t = make_two_models();
  PcuPool pool(1, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  const double interval = pool.pcu(0).request_interval_overlapped();

  // Four requests tied on (class, deadline, arrival), pushed in scrambled
  // id order: the dispatch order must come out ascending by id — push
  // order must not leak through the pending set.
  const double deadline = 100.0 * interval;
  std::vector<InferenceRequest> requests;
  for (const std::uint64_t id : {3u, 1u, 2u, 0u}) {
    InferenceRequest r;
    r.id = id;
    r.arrival_time = 0.0;
    r.priority = PriorityClass::kStandard;
    r.deadline = deadline;
    requests.push_back(r);
  }
  AdmissionOptions edf;
  edf.policy = DispatchPolicy::kEdf;
  const AdmissionResult r = admit(pool, std::move(requests), edf);
  ASSERT_EQ(4u, r.schedule.size());
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(i, r.schedule[i].id) << "position " << i;
}

TEST(EdfTieBreak, ArrivalBreaksDeadlineTiesBeforeId) {
  const TwoModels t = make_two_models();
  PcuPool pool(1, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  const double interval = pool.pcu(0).request_interval_overlapped();

  // Request 9 arrives before request 1, same class and deadline; both are
  // queued behind request 5 when the PCU frees. The earlier *arrival*
  // must win even though its id is larger.
  const double deadline = 100.0 * interval;
  std::vector<InferenceRequest> requests;
  InferenceRequest head;
  head.id = 5;
  head.arrival_time = 0.0;
  head.deadline = deadline;
  requests.push_back(head);
  InferenceRequest nine;
  nine.id = 9;
  nine.arrival_time = 0.2 * interval;
  nine.deadline = deadline;
  requests.push_back(nine);
  InferenceRequest one;
  one.id = 1;
  one.arrival_time = 0.3 * interval;
  one.deadline = deadline;
  requests.push_back(one);

  AdmissionOptions edf;
  edf.policy = DispatchPolicy::kEdf;
  const AdmissionResult r = admit(pool, std::move(requests), edf);
  ASSERT_EQ(3u, r.schedule.size());
  EXPECT_EQ(5u, r.schedule[0].id);
  EXPECT_EQ(9u, r.schedule[1].id) << "earlier arrival beats smaller id";
  EXPECT_EQ(1u, r.schedule[2].id);
}

TEST(EdfTieBreak, ClassOutranksDeadlineAndIdUnderFullAdversity) {
  const TwoModels t = make_two_models();
  PcuPool pool(1, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  const double interval = pool.pcu(0).request_interval_overlapped();

  // Interactive with the LATEST deadline and LARGEST id still goes first;
  // best-effort with the tightest deadline and smallest id still goes
  // last.
  std::vector<InferenceRequest> requests;
  InferenceRequest be;
  be.id = 0;
  be.arrival_time = 0.0;
  be.priority = PriorityClass::kBestEffort;
  be.deadline = 1.0 * interval;
  requests.push_back(be);
  InferenceRequest std_r;
  std_r.id = 1;
  std_r.arrival_time = 0.0;
  std_r.priority = PriorityClass::kStandard;
  std_r.deadline = 2.0 * interval;
  requests.push_back(std_r);
  InferenceRequest inter;
  inter.id = 2;
  inter.arrival_time = 0.0;
  inter.priority = PriorityClass::kInteractive;
  inter.deadline = 500.0 * interval;
  requests.push_back(inter);

  AdmissionOptions edf;
  edf.policy = DispatchPolicy::kEdf;
  const AdmissionResult r = admit(pool, std::move(requests), edf);
  ASSERT_EQ(3u, r.schedule.size());
  EXPECT_EQ(2u, r.schedule[0].id);
  EXPECT_EQ(1u, r.schedule[1].id);
  EXPECT_EQ(0u, r.schedule[2].id);
}

TEST(EdfTieBreak, ModelAffinityUsesTheSameUrgencyOrderOnTies) {
  const TwoModels t = make_two_models();
  PcuPool pool(1, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  const double interval = pool.pcu(0).request_interval_overlapped(0);

  // Full ties again, but under kModelAffinity with mixed models on one
  // PCU: urgency (id) decides who runs next, and the swap pattern follows
  // from that order — never the other way around.
  const double deadline = 200.0 * interval;
  std::vector<InferenceRequest> requests;
  for (const std::uint64_t id : {2u, 0u, 3u, 1u}) {
    InferenceRequest r;
    r.id = id;
    r.arrival_time = 0.0;
    r.deadline = deadline;
    r.model_id = static_cast<std::uint32_t>(id % 2);
    requests.push_back(r);
  }
  AdmissionOptions affinity;
  affinity.policy = DispatchPolicy::kModelAffinity;
  const AdmissionResult r = admit(pool, std::move(requests), affinity);
  ASSERT_EQ(4u, r.schedule.size());
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(i, r.schedule[i].id) << "position " << i;
  // Ids alternate models, so the single PCU swaps on every dispatch after
  // the first.
  EXPECT_FALSE(r.schedule[0].swapped);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_TRUE(r.schedule[i].swapped);
}

// --- Randomized property sweep (satellite) ---
//
// Structural invariants every admission run must satisfy, no matter the
// policy, seed, or fault schedule:
//  1. conservation — every offered request is served, shed, or lost,
//     exactly once: offered == schedule + shed + fault losses;
//  2. monotone virtual time — on the event-driven path every dispatch
//     commits at the loop's current `now`, so schedule entries (stable
//     under fault compaction) carry nondecreasing start times;
//  3. no double-booking — the service intervals charged to one PCU never
//     overlap, counting pipeline stage spans on their stage PCUs.

/// Like adversarial_stream, but fully re-seedable so the sweep can draw
/// many independent streams. ~1.5x overload on a 4-PCU pool.
std::vector<InferenceRequest> seeded_stream(const PcuPool& pool,
                                            std::size_t count,
                                            std::uint64_t seed) {
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  const double warmup = pool.pcu(0).warmup_time(0);
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(count, 6.0 / interval, seed);
  Rng rng(seed * 7919 + 1);
  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < count; ++id) {
    InferenceRequest r;
    r.id = id;
    r.arrival_time = arrivals[id];
    r.model_id = static_cast<std::uint32_t>(rng.next_u64() % 2);
    const std::uint64_t cls = rng.next_u64() % 3;
    r.priority = cls == 0 ? PriorityClass::kInteractive
                          : (cls == 1 ? PriorityClass::kStandard
                                      : PriorityClass::kBestEffort);
    r.tenant = static_cast<std::uint32_t>(cls);
    r.deadline = arrivals[id] + warmup +
                 (2.0 + static_cast<double>(rng.next_u64() % 8)) * interval;
    requests.push_back(r);
  }
  return requests;
}

void check_admission_invariants(const AdmissionResult& r, std::size_t offered,
                                std::size_t num_pcus, bool event_driven) {
  // 1. Conservation.
  EXPECT_EQ(offered,
            r.schedule.size() + r.shed.shed + r.fault.lost_requests);
  EXPECT_EQ(r.fault.lost_requests, r.fault.losses.size());

  std::vector<std::vector<std::pair<double, double>>> busy(num_pcus);
  double prev_start = -std::numeric_limits<double>::infinity();
  for (const ScheduledService& s : r.schedule) {
    EXPECT_LE(s.arrival, s.start) << "request " << s.id;
    EXPECT_LT(s.start, s.completion) << "request " << s.id;
    // 2. Monotone virtual time (event-driven dispatches commit at `now`;
    // fault compaction is stable, so the order survives retries).
    if (event_driven) {
      EXPECT_GE(s.start, prev_start) << "request " << s.id;
      prev_start = s.start;
    }
    if (s.stages.empty()) {
      ASSERT_LT(s.pcu, num_pcus);
      busy[s.pcu].push_back({s.start, s.completion});
    } else {
      // Pipelined entry: spans chain forward through the group and the
      // head entry brackets the chain exactly.
      EXPECT_EQ(s.stages.front().start, s.start) << "request " << s.id;
      EXPECT_EQ(s.stages.back().completion, s.completion)
          << "request " << s.id;
      for (std::size_t j = 0; j < s.stages.size(); ++j) {
        const runtime::StageService& st = s.stages[j];
        EXPECT_EQ(j, st.stage) << "request " << s.id;
        ASSERT_LT(st.pcu, num_pcus);
        EXPECT_LT(st.start, st.completion) << "request " << s.id;
        if (j > 0) {
          EXPECT_GE(st.start, s.stages[j - 1].completion + st.handoff)
              << "request " << s.id << " stage " << j;
        }
        busy[st.pcu].push_back({st.start, st.completion});
      }
    }
  }
  // 3. No double-booking per PCU.
  for (std::size_t p = 0; p < num_pcus; ++p) {
    std::sort(busy[p].begin(), busy[p].end());
    for (std::size_t i = 1; i < busy[p].size(); ++i) {
      EXPECT_GE(busy[p][i].first, busy[p][i - 1].second)
          << "PCU " << p << " double-booked: [" << busy[p][i - 1].first
          << ", " << busy[p][i - 1].second << ") overlaps ["
          << busy[p][i].first << ", " << busy[p][i].second << ")";
    }
  }
}

TEST(AdmissionInvariants, HoldForEveryPolicySeedAndFaultSchedule) {
  const TwoModels t = make_two_models();
  PcuPool pool(4, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  // Model 1 pinned across a 2-stage chain (tiny_cnn has 2 conv ops);
  // non-pipeline policies ignore the group, kPipeline routes model 1
  // through it and model 0 to the unreserved remainder.
  pool.build_pipeline(/*model=*/1, {0, 1});
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  constexpr std::size_t kCount = 300;

  runtime::FaultModel hazard;
  hazard.mtbf = 50.0 * interval;
  hazard.horizon = 200.0 * interval;
  hazard.mean_time_to_repair = 15.0 * interval;
  hazard.crash_weight = 3.0;

  for (const DispatchPolicy policy : runtime::kAllDispatchPolicies) {
    for (const std::uint64_t seed : {7u, 21u, 63u}) {
      for (const int fault_mode : {0, 1, 2}) {
        AdmissionOptions o;
        o.policy = policy;
        o.shed_expired = true; // forces the event-driven path everywhere
        if (fault_mode > 0) {
          o.faults.schedule =
              runtime::poisson_faults(4, hazard, 100 + seed);
          o.faults.health_aware = fault_mode == 2;
          o.faults.detection_latency = 0.5 * interval;
          o.faults.retry.backoff_base = 0.25 * interval;
          o.faults.repair_time = 2.0 * interval;
        }
        SCOPED_TRACE(std::string(runtime::dispatch_policy_name(policy)) +
                     " seed " + std::to_string(seed) + " faults " +
                     std::to_string(fault_mode));
        const AdmissionResult a =
            admit(pool, seeded_stream(pool, kCount, seed), o);
        ASSERT_GT(a.schedule.size(), 0u);
        check_admission_invariants(a, kCount, 4, /*event_driven=*/true);
        // Purity: the same inputs reproduce the same schedule, bit for
        // bit — across policies, seeds and fault schedules alike.
        const AdmissionResult b =
            admit(pool, seeded_stream(pool, kCount, seed), o);
        expect_bit_identical(a, b);
      }
    }
  }
}

TEST(AdmissionInvariants, ConservationHoldsOnTheEagerPath) {
  const TwoModels t = make_two_models();
  PcuPool pool(3, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  // Eager FIFO (no shed, no deferral): start times follow per-PCU queues,
  // not a global clock, so only conservation and non-overlap apply.
  for (const DispatchPolicy policy :
       {DispatchPolicy::kEarliestFree, DispatchPolicy::kLeastLoaded,
        DispatchPolicy::kCapabilityAware}) {
    AdmissionOptions o;
    o.policy = policy;
    SCOPED_TRACE(runtime::dispatch_policy_name(policy));
    const AdmissionResult r =
        admit(pool, seeded_stream(pool, 200, 5), o);
    check_admission_invariants(r, 200, 3, /*event_driven=*/false);
  }
}

TEST(AdmissionInvariants, PipelineScheduleBitIdenticalAcrossEngineThreads) {
  const TwoModels t = make_two_models();
  const auto build = [&](std::size_t threads) {
    PcuSpec spec;
    spec.config = PcnnaConfig::paper_defaults();
    spec.engine_threads = threads;
    return PcuPool(std::vector<PcuSpec>(4, spec), TimingFidelity::kFull,
                   t.net, t.weights_a);
  };
  PcuPool one = build(1);
  PcuPool many = build(8);
  for (PcuPool* pool : {&one, &many}) {
    pool->register_model(t.net, t.weights_b);
    pool->build_pipeline(/*model=*/1, {0, 1});
  }
  const double interval = one.pcu(0).request_interval_overlapped(0);

  AdmissionOptions o;
  o.policy = DispatchPolicy::kPipeline;
  o.shed_expired = true;
  o.autoscaler.enabled = true;
  o.autoscaler.min_active = 1;
  o.autoscaler.backlog_per_pcu = 1.5;
  o.autoscaler.shrink_after_idle = 3.0 * interval;

  const AdmissionResult a = admit(one, seeded_stream(one, 400, 17), o);
  const AdmissionResult b = admit(many, seeded_stream(many, 400, 17), o);
  ASSERT_GT(a.pipeline.pipelined_requests, 0u);
  expect_bit_identical(a, b);
  check_admission_invariants(a, 400, 4, /*event_driven=*/true);
}

// --- Golden FIFO schedules ---
//
// The FIFO policies commit each request at its arrival. Their schedules
// are pinned bit for bit by an FNV-1a digest over every entry's id, PCU,
// and the bit patterns of start, completion, warmup and swap, so any
// restructuring of the admission loop must reproduce them exactly.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t schedule_digest(const AdmissionResult& r) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const ScheduledService& s : r.schedule) {
    h = fnv1a(h, s.id);
    h = fnv1a(h, s.pcu);
    for (const double v : {s.start, s.completion, s.warmup, s.swap})
      h = fnv1a(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

/// 2000 Poisson arrivals at `load` x the pool's steady-state capacity.
std::vector<InferenceRequest> fifo_stream(const PcuPool& pool,
                                          double load = 0.9) {
  double capacity = 0.0;
  for (std::size_t p = 0; p < pool.size(); ++p)
    capacity += 1.0 / pool.pcu(p).request_interval_overlapped(0);
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(2000, load * capacity, 1);
  std::vector<InferenceRequest> requests(arrivals.size());
  for (std::size_t id = 0; id < arrivals.size(); ++id) {
    requests[id].id = id;
    requests[id].arrival_time = arrivals[id];
  }
  return requests;
}

TEST(FifoGolden, SchedulesMatchPinnedDigests) {
  const TwoModels t = make_two_models();
  PcuPool homogeneous(8, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
                      t.net, t.weights_a);
  PcuSpec big;
  big.config = PcnnaConfig::paper_defaults();
  PcuSpec small;
  small.config = PcnnaConfig::small_core();
  PcuPool mixed({big, big, small, small}, TimingFidelity::kFull, t.net,
                t.weights_a);

  struct Case {
    const char* fleet;
    PcuPool* pool;
    DispatchPolicy policy;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"8 homogeneous", &homogeneous,
       DispatchPolicy::kEarliestFree, 0x768F29E537FFA7F8ull},
      {"8 homogeneous", &homogeneous,
       DispatchPolicy::kLeastLoaded, 0xAED005D81C8327F9ull},
      {"8 homogeneous", &homogeneous,
       DispatchPolicy::kCapabilityAware, 0xAED005D81C8327F9ull},
      {"2 big + 2 small", &mixed,
       DispatchPolicy::kEarliestFree, 0x8B7CB80A4167D9D4ull},
      {"2 big + 2 small", &mixed,
       DispatchPolicy::kLeastLoaded, 0x1C0FE6D6D385EAD8ull},
      {"2 big + 2 small", &mixed,
       DispatchPolicy::kCapabilityAware, 0x0BE4EDAFF1FDDB83ull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.fleet) + " " +
                 runtime::dispatch_policy_name(c.policy));
    AdmissionOptions o;
    o.policy = c.policy;
    const AdmissionResult r = admit(*c.pool, fifo_stream(*c.pool), o);
    ASSERT_EQ(2000u, r.schedule.size());
    EXPECT_EQ(c.digest, schedule_digest(r));
  }
}

// --- Golden schedules over every free-PCU search ---
//
// The searches for a free PCU (the FIFO pick at arrival and at a PCU-free
// event, the next dispatch instant, the next event when everything defers)
// see each fleet shape, warmup policy, service pricing and deferral mode
// differently. These digests pin them all, together with every shed
// decision, autoscaler count and fault outcome, so no change to how the
// searches are answered can move a single bit.

/// schedule_digest plus the shed, autoscaler and fault outcomes.
std::uint64_t admission_digest(const AdmissionResult& r) {
  std::uint64_t h = schedule_digest(r);
  for (const runtime::ShedDecision& d : r.shed.decisions) {
    h = fnv1a(h, d.id);
    h = fnv1a(h, std::bit_cast<std::uint64_t>(d.decision_time));
  }
  h = fnv1a(h, r.autoscaler.scale_ups);
  h = fnv1a(h, r.autoscaler.scale_downs);
  h = fnv1a(h, std::bit_cast<std::uint64_t>(r.autoscaler.mean_active));
  for (const runtime::FaultedAttempt& a : r.fault.attempts) {
    h = fnv1a(h, a.id);
    h = fnv1a(h, a.pcu);
    h = fnv1a(h, std::bit_cast<std::uint64_t>(a.end));
  }
  for (const runtime::RequestLoss& l : r.fault.losses) h = fnv1a(h, l.id);
  return h;
}

/// `count` requests, every one arriving at t = 0: a closed batch.
std::vector<InferenceRequest> closed_batch(std::size_t count) {
  std::vector<InferenceRequest> requests(count);
  for (std::size_t id = 0; id < count; ++id) requests[id].id = id;
  return requests;
}

/// fifo_stream with each request's model drawn uniformly from {0, 1}.
std::vector<InferenceRequest> two_model_stream(const PcuPool& pool) {
  std::vector<InferenceRequest> requests = fifo_stream(pool);
  Rng rng(5);
  for (InferenceRequest& r : requests)
    r.model_id = static_cast<std::uint32_t>(rng.next_u64() % 2);
  return requests;
}

/// A one-channel network: per-channel ring allocation maps it in the same
/// single pass as per-kernel allocation, so small cores are capable of it
/// while big cores alone are capable of tiny_cnn.
nn::Network mono_cnn() {
  nn::Network net("mono_cnn", nn::Shape4{1, 1, 8, 8});
  net.add_conv({"m1", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1, /*nc=*/1, /*K=*/4})
      .add_relu();
  net.add_fc(10).add_softmax();
  return net;
}

struct GoldenCase {
  const char* name;
  PcuPool* pool;
  AdmissionOptions options;
  std::vector<InferenceRequest> requests;
  std::uint64_t digest;
};

void expect_golden(const std::vector<GoldenCase>& cases,
                   std::uint64_t (*digest)(const AdmissionResult&) =
                       admission_digest) {
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(std::string(c.name) + " " +
                 runtime::dispatch_policy_name(c.options.policy));
    const AdmissionResult r = admit(*c.pool, c.requests, c.options);
    ASSERT_GT(r.schedule.size(), 0u);
    EXPECT_EQ(c.digest, digest(r))
        << std::hex << std::uppercase << "0x" << digest(r);
  }
}

AdmissionOptions with_policy(DispatchPolicy policy) {
  AdmissionOptions o;
  o.policy = policy;
  return o;
}

TEST(AdmissionGolden, CommitAtArrivalMatchesPinnedDigests) {
  const TwoModels t = make_two_models();
  PcuPool eight(8, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
                t.net, t.weights_a);
  PcuPool fleet2048(2048, PcnnaConfig::paper_defaults(),
                    TimingFidelity::kFull, t.net, t.weights_a);

  // Every warmup policy on both core sizes: six PCUs, six tiers.
  PcuSpec big;
  big.config = PcnnaConfig::paper_defaults();
  PcuSpec small;
  small.config = PcnnaConfig::small_core();
  std::vector<PcuSpec> specs;
  for (const runtime::WarmupPolicy w :
       {runtime::WarmupPolicy::kPinnedAfterFirst,
        runtime::WarmupPolicy::kRechargeAfterIdle,
        runtime::WarmupPolicy::kAlwaysCold}) {
    big.warmup = w;
    small.warmup = w;
    specs.push_back(big);
    specs.push_back(small);
  }
  PcuPool warmups(specs, TimingFidelity::kFull, t.net, t.weights_a);

  // Two models on 2 big + 2 small: small cores are capable of mono_cnn
  // only, so kCapabilityAware splits the fleet per model.
  const nn::Network mono = mono_cnn();
  Rng rng(3);
  const nn::NetWeights mono_weights = nn::make_network_weights(mono, rng);
  big.warmup = runtime::WarmupPolicy::kRechargeAfterIdle;
  small.warmup = runtime::WarmupPolicy::kRechargeAfterIdle;
  PcuPool mixed({big, big, small, small}, TimingFidelity::kFull, t.net,
                t.weights_a);
  mixed.register_model(mono, mono_weights);
  ASSERT_NE(mixed.pcu(2).channel_split_passes(0), mixed.min_split_passes(0));
  ASSERT_EQ(mixed.pcu(2).channel_split_passes(1), mixed.min_split_passes(1));

  AdmissionOptions serial_ll = with_policy(DispatchPolicy::kLeastLoaded);
  serial_ll.double_buffer = false;
  AdmissionOptions serial_ef = with_policy(DispatchPolicy::kEarliestFree);
  serial_ef.double_buffer = false;

  using P = DispatchPolicy;
  expect_golden({
      {"closed batch, 8", &eight, with_policy(P::kEarliestFree),
       closed_batch(200), 0xC7ECB63C59F09F95ull},
      {"closed batch, 8", &eight, with_policy(P::kLeastLoaded),
       closed_batch(200), 0xC7ECB63C59F09F95ull},
      {"warmup policies", &warmups, with_policy(P::kEarliestFree),
       fifo_stream(warmups), 0x2B967006FF420AC6ull},
      {"warmup policies", &warmups, with_policy(P::kLeastLoaded),
       fifo_stream(warmups), 0xEB6AA4FEDE0A0A44ull},
      {"warmup policies, closed batch", &warmups,
       with_policy(P::kLeastLoaded), closed_batch(200),
       0xFA3EF19A14C1B655ull},
      {"serial, warmup policies", &warmups, serial_ll, fifo_stream(warmups),
       0x1829710AA75ECE50ull},
      {"serial, warmup policies", &warmups, serial_ef, fifo_stream(warmups),
       0x83CBD88AE5BDE0B2ull},
      {"serial, 8", &eight, serial_ll, fifo_stream(eight),
       0x57B1D8EB27DC5FF6ull},
      {"two models, 2 big + 2 small", &mixed, with_policy(P::kCapabilityAware),
       two_model_stream(mixed), 0x70E1C903D1BDCCBCull},
      {"two models, 2 big + 2 small", &mixed, with_policy(P::kLeastLoaded),
       two_model_stream(mixed), 0x7C72EC9FC69505C4ull},
      {"2048", &fleet2048, with_policy(P::kLeastLoaded),
       fifo_stream(fleet2048), 0x4155E97D39A4F8C9ull},
      {"2048", &fleet2048, with_policy(P::kEarliestFree),
       fifo_stream(fleet2048), 0xEA1331F1BCCCF1CFull},
  });
}

/// The fleets and options of the deferred golden cases, shared by the
/// admission digests and the outcome digests below.
struct DeferredFleets {
  TwoModels t = make_two_models();
  PcuPool four{4, PcnnaConfig::paper_defaults(), TimingFidelity::kFull, t.net,
               t.weights_a};
  PcuPool piped{4, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
                t.net, t.weights_a};
  PcuPool mixed = make_mixed();
  // Many idle PCUs, some degraded and never repaired: a degraded PCU must
  // lose to an idle healthy one from the moment its degrade strikes.
  PcuPool sixteen{16, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
                  t.net, t.weights_a};
  // Light, bursty load: the autoscaler parks and wakes PCUs all run long.
  PcuPool eight{8, PcnnaConfig::paper_defaults(), TimingFidelity::kFull,
                t.net, t.weights_a};
  double interval = four.pcu(0).request_interval_overlapped(0);

  DeferredFleets() {
    four.register_model(t.net, t.weights_b);
    piped.register_model(t.net, t.weights_b);
    piped.build_pipeline(/*model=*/1, {0, 1});
  }

  PcuPool make_mixed() const {
    PcuSpec big;
    big.config = PcnnaConfig::paper_defaults();
    PcuSpec small;
    small.config = PcnnaConfig::small_core();
    small.warmup = runtime::WarmupPolicy::kPinnedAfterFirst;
    return PcuPool({big, small, big, small}, TimingFidelity::kFull, t.net,
                   t.weights_a);
  }

  AdmissionOptions scaled(DispatchPolicy policy) const {
    AdmissionOptions o = with_policy(policy);
    o.autoscaler.enabled = true;
    o.autoscaler.min_active = 1;
    o.autoscaler.backlog_per_pcu = 1.5;
    o.autoscaler.shrink_after_idle = 3.0 * interval;
    return o;
  }

  AdmissionOptions faulty(DispatchPolicy policy, std::uint64_t seed) const {
    runtime::FaultModel hazard;
    hazard.mtbf = 50.0 * interval;
    hazard.horizon = 200.0 * interval;
    hazard.mean_time_to_repair = 15.0 * interval;
    hazard.crash_weight = 3.0;
    AdmissionOptions o = with_policy(policy);
    o.faults.schedule = runtime::poisson_faults(4, hazard, seed);
    o.faults.detection_latency = 0.5 * interval;
    o.faults.retry.backoff_base = 0.25 * interval;
    o.faults.repair_time = 2.0 * interval;
    return o;
  }

  std::vector<GoldenCase> cases() {
    AdmissionOptions edf_shed = with_policy(DispatchPolicy::kEdf);
    edf_shed.shed_expired = true;
    AdmissionOptions blind = faulty(DispatchPolicy::kLeastLoaded, 104);
    blind.faults.health_aware = false;
    runtime::FaultModel drift;
    drift.mtbf = 100.0 * interval;
    drift.horizon = 150.0 * interval;
    drift.transient_weight = 0.0;
    drift.crash_weight = 0.0;
    AdmissionOptions drifting = with_policy(DispatchPolicy::kLeastLoaded);
    drifting.faults.schedule = runtime::poisson_faults(16, drift, 108);
    drifting.faults.health_aware = false;
    AdmissionOptions parking = scaled(DispatchPolicy::kLeastLoaded);
    parking.autoscaler.backlog_per_pcu = 1.0;
    parking.autoscaler.shrink_after_idle = 1.0 * interval;

    using P = DispatchPolicy;
    return {
        {"edf + shed", &four, edf_shed, seeded_stream(four, 300, 7),
         0x24E9A96BC3901A78ull},
        {"autoscaler", &four, scaled(P::kLeastLoaded),
         seeded_stream(four, 300, 7), 0xCE7339B6A183347Dull},
        {"autoscaler", &four, scaled(P::kEdf), seeded_stream(four, 300, 21),
         0x7282396B8B4793BCull},
        {"autoscaler", &four, scaled(P::kModelAffinity),
         seeded_stream(four, 300, 21), 0x0DFD240974A13192ull},
        {"autoscaler", &piped, scaled(P::kPipeline),
         seeded_stream(piped, 300, 17), 0x6904812AFB7E20E0ull},
        {"autoscaler, 0.9x load", &mixed, scaled(P::kLeastLoaded),
         fifo_stream(mixed), 0x19857605E87F735Bull},
        {"health-aware faults", &four, faulty(P::kLeastLoaded, 101),
         seeded_stream(four, 300, 7), 0x63D630B1EA5AB3ABull},
        {"health-aware faults", &four, faulty(P::kEarliestFree, 102),
         seeded_stream(four, 300, 21), 0xEE3BD71D990E961Bull},
        {"health-aware faults", &mixed, faulty(P::kCapabilityAware, 103),
         fifo_stream(mixed), 0x14787A8405EDC260ull},
        {"health-aware faults", &four, faulty(P::kEdf, 105),
         seeded_stream(four, 300, 63), 0x891353AA87DE0D45ull},
        {"health-aware faults", &four, faulty(P::kModelAffinity, 106),
         seeded_stream(four, 300, 63), 0xEA1EE3EA353C32A2ull},
        {"health-aware faults", &piped, faulty(P::kPipeline, 107),
         seeded_stream(piped, 300, 17), 0x2FDA942EF9CAA51Full},
        {"fault-blind", &four, blind, seeded_stream(four, 300, 7),
         0xD6396EE3797D5AD4ull},
        {"fault-blind degrades, 0.5x load", &sixteen, drifting,
         fifo_stream(sixteen, 0.5), 0x07B15C130D54521Eull},
        {"autoscaler, 0.3x load", &eight, parking, fifo_stream(eight, 0.3),
         0xF834ACF9192FE29Eull},
    };
  }
};

TEST(AdmissionGolden, DeferredPathsMatchPinnedDigests) {
  DeferredFleets f;
  expect_golden(f.cases());
}

// --- Golden outcomes admission_digest does not hash ---
//
// admission_digest covers the schedule's (id, PCU, start, completion,
// warmup, swap), the shed decisions, the autoscaler counts and the fault
// losses. outcome_digest adds everything else a restructured loop could
// move: every pipeline stage span, the fault counters, each PCU's dwell
// times and availability, and the pipeline totals.

/// admission_digest plus stage spans, fault counters, per-PCU health and
/// pipeline totals.
std::uint64_t outcome_digest(const AdmissionResult& r) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t h = admission_digest(r);
  for (const ScheduledService& s : r.schedule) {
    h = fnv1a(h, s.attempts);
    for (const runtime::StageService& st : s.stages) {
      for (const std::uint64_t w :
           {std::uint64_t{st.stage}, std::uint64_t{st.pcu},
            std::uint64_t{st.op_begin}, std::uint64_t{st.op_end},
            bits(st.start), bits(st.completion), bits(st.pin),
            bits(st.handoff)})
        h = fnv1a(h, w);
    }
  }
  const runtime::FaultReport& f = r.fault;
  for (const std::uint64_t w :
       {std::uint64_t{f.injections}, std::uint64_t{f.transient_corruptions},
        std::uint64_t{f.crash_losses}, std::uint64_t{f.retries},
        std::uint64_t{f.recovered_requests}, std::uint64_t{f.lost_requests},
        std::uint64_t{f.quarantines}, std::uint64_t{f.repairs},
        bits(f.repair_time), std::uint64_t{f.plan_epoch_bumps}})
    h = fnv1a(h, w);
  for (const runtime::PcuHealthStats& hs : f.per_pcu) {
    for (const double v : {hs.healthy_time, hs.degraded_time,
                           hs.quarantined_time, hs.failed_time,
                           hs.availability, hs.lost_time})
      h = fnv1a(h, bits(v));
    h = fnv1a(h, hs.lost_attempts);
  }
  const runtime::PipelineStats& p = r.pipeline;
  for (const std::uint64_t w :
       {std::uint64_t{p.groups}, std::uint64_t{p.pipelined_requests},
        std::uint64_t{p.stage_spans}, std::uint64_t{p.replacements},
        bits(p.pin_time), bits(p.handoff_time)})
    h = fnv1a(h, w);
  return h;
}

TEST(AdmissionGolden, OutcomesMatchPinnedDigests) {
  DeferredFleets f;
  std::vector<GoldenCase> cases = f.cases();
  // outcome_digest of each deferred case, in DeferredFleets::cases order.
  const std::uint64_t outcomes[] = {
      0x56877AB5B6D89679ull, 0x80A850D82CF57F3Dull, 0xAA9CC12C02DA147Cull,
      0x44C46FB626CE3752ull, 0x2581F35E5C1428D3ull, 0x58E9CF4219AB7A5Bull,
      0x504086D46F365382ull, 0xC8227BBA76DBCFECull, 0x0BB6C4B444B2B3D1ull,
      0x27EF796547F3E677ull, 0x9D125EBDFB948069ull, 0xEDE3A40730755DB7ull,
      0x32E6D1413103A2D2ull, 0x39562AE5DDCDC1C8ull, 0x09AA9485E883F79Eull,
  };
  ASSERT_EQ(std::size(outcomes), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i)
    cases[i].digest = outcomes[i];

  using P = DispatchPolicy;
  // Three combinations no other golden pins. Pipeline + shed: model 1
  // through its group, model 0 on the unreserved PCUs, both shedding.
  AdmissionOptions piped_shed = with_policy(P::kPipeline);
  piped_shed.shed_expired = true;
  // Faults + autoscaler, with a plan cache so repairs bump its epochs.
  core::PlanCache plans;
  AdmissionOptions scaled_faults = f.faulty(P::kLeastLoaded, 109);
  scaled_faults.autoscaler = f.scaled(P::kLeastLoaded).autoscaler;
  scaled_faults.faults.plan_cache = &plans;
  // Affinity + shed + faults.
  AdmissionOptions affine = f.faulty(P::kModelAffinity, 110);
  affine.shed_expired = true;
  cases.push_back({"pipeline + shed", &f.piped, piped_shed,
                   seeded_stream(f.piped, 300, 19), 0x819149E29570794Bull});
  cases.push_back({"faults + autoscaler", &f.four, scaled_faults,
                   seeded_stream(f.four, 300, 23), 0x916FE323F9F1D7BAull});
  cases.push_back({"affinity + shed + faults", &f.four, affine,
                   seeded_stream(f.four, 300, 29), 0xC9FF1E6B7DE963D0ull});
  expect_golden(cases, outcome_digest);

  // Every ingredient of each new combination fires.
  const AdmissionResult ps = admit(f.piped, cases[15].requests, piped_shed);
  EXPECT_GT(ps.shed.shed, 0u);
  EXPECT_GT(ps.pipeline.pipelined_requests, 0u);
  const AdmissionResult sf = admit(f.four, cases[16].requests, scaled_faults);
  EXPECT_GT(sf.autoscaler.scale_ups, 0u);
  EXPECT_GT(sf.fault.plan_epoch_bumps, 0u);
  EXPECT_GT(sf.fault.retries, 0u);
  const AdmissionResult af = admit(f.four, cases[17].requests, affine);
  EXPECT_GT(af.shed.shed, 0u);
  EXPECT_GT(af.fault.retries, 0u);
}

} // namespace
