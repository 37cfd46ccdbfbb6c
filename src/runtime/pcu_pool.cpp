#include "runtime/pcu_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "core/planner.hpp"
#include "core/stage_partitioner.hpp"
#include "runtime/arrival.hpp"
#include "runtime/free_time_index.hpp"
#include "runtime/telemetry.hpp"

namespace pcnna::runtime {

const char* dispatch_policy_name(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kEarliestFree: return "earliest-free";
    case DispatchPolicy::kLeastLoaded: return "least-loaded";
    case DispatchPolicy::kCapabilityAware: return "capability-aware";
    case DispatchPolicy::kEdf: return "edf";
    case DispatchPolicy::kModelAffinity: return "model-affinity";
    case DispatchPolicy::kPipeline: return "pipeline";
  }
  // -Werror=switch makes the switch exhaustive at build time; reaching
  // here means an out-of-range cast, not a missing case.
  throw Error("invalid DispatchPolicy");
}

namespace {

/// Effective per-PCU config: the spec's engine-thread override applied.
core::PcnnaConfig effective_config(const PcuSpec& spec) {
  core::PcnnaConfig config = spec.config;
  if (spec.engine_threads > 0) config.engine_threads = spec.engine_threads;
  return config;
}

/// One model's slots across a fleet, one per distinct PCU config.
using SlotTable = std::vector<std::pair<core::PcnnaConfig, ModelSlot>>;

/// The slot of `net` on `config`: computed for the first PCU with that
/// config, then shared by every later one (a homogeneous fleet computes
/// one). Valid until the next call on `slots`.
const ModelSlot& shared_slot(SlotTable& slots, const core::PcnnaConfig& config,
                             core::TimingFidelity fidelity,
                             const nn::Network& net,
                             const nn::NetWeights& weights) {
  for (const auto& [c, slot] : slots)
    if (c == config) return slot;
  slots.emplace_back(config, make_model_slot(config, fidelity, net, weights));
  return slots.back().second;
}

} // namespace

PcuPool::PcuPool(std::vector<PcuSpec> specs, core::TimingFidelity fidelity,
                 const nn::Network& net, const nn::NetWeights& weights) {
  PCNNA_CHECK_MSG(!specs.empty(), "a PcuPool needs at least one PCU");
  pcus_.reserve(specs.size());
  std::size_t min_passes = std::numeric_limits<std::size_t>::max();
  SlotTable slots;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const core::PcnnaConfig config = effective_config(specs[i]);
    pcus_.emplace_back(i, config, fidelity,
                       shared_slot(slots, config, fidelity, net, weights),
                       specs[i].warmup, std::move(specs[i].tag));
    min_passes = std::min(min_passes, pcus_.back().channel_split_passes());
  }
  min_split_passes_.push_back(min_passes);
}

std::uint32_t PcuPool::register_model(const nn::Network& net,
                                      const nn::NetWeights& weights) {
  std::uint32_t id = 0;
  std::size_t min_passes = std::numeric_limits<std::size_t>::max();
  SlotTable slots;
  for (Pcu& pcu : pcus_) {
    id = pcu.add_model(
        shared_slot(slots, pcu.config(), pcu.fidelity(), net, weights));
    PCNNA_CHECK_MSG(id == min_split_passes_.size(),
                    "model registry out of sync across the fleet");
    min_passes = std::min(min_passes, pcu.channel_split_passes(id));
  }
  min_split_passes_.push_back(min_passes);
  return id;
}

const PipelineGroup* PcuPool::pipeline_for_model(std::uint32_t model) const {
  for (const PipelineGroup& g : groups_)
    if (g.model == model) return &g;
  return nullptr;
}

void PcuPool::place_pipeline(PipelineGroup& g,
                             const std::vector<std::size_t>& candidates) const {
  // Healthy members in member order (deterministic: `members` is fixed).
  std::vector<std::size_t> avail;
  for (std::size_t m : g.members) {
    if (std::find(candidates.begin(), candidates.end(), m) !=
        candidates.end())
      avail.push_back(m);
  }
  g.stages.clear();
  if (avail.empty()) return; // the group is down until a member heals

  std::size_t convs = 0;
  for (std::size_t c : g.op_costs)
    if (c > 0) convs += 1;
  const std::size_t k = std::min(avail.size(), convs);
  const std::vector<core::StageRange> ranges =
      core::partition_costs(g.op_costs, k);
  std::vector<std::size_t> passes;
  passes.reserve(avail.size());
  for (std::size_t p : avail)
    passes.push_back(pcus_[p].channel_split_passes(g.model));
  const std::vector<std::size_t> placement =
      core::assign_stages(ranges, avail, passes);

  g.stages.reserve(ranges.size());
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    PipelineStage st;
    st.pcu = placement[j];
    st.op_begin = ranges[j].op_begin;
    st.op_end = ranges[j].op_end;
    st.cost = ranges[j].cost;
    st.timings = pcus_[st.pcu].stage_timings(g.model, st.op_begin, st.op_end);
    g.stages.push_back(st);
  }
}

std::size_t PcuPool::build_pipeline(std::uint32_t model,
                                    const std::vector<std::size_t>& pcus,
                                    double handoff_time) {
  PCNNA_CHECK_MSG(model < min_split_passes_.size(),
                  "cannot pipeline unregistered model " << model);
  PCNNA_CHECK_MSG(!pcus.empty(), "a pipeline group needs at least one PCU");
  PCNNA_CHECK_MSG(std::isfinite(handoff_time) && handoff_time >= 0.0,
                  "hand-off time must be finite and >= 0, got "
                      << handoff_time);
  PCNNA_CHECK_MSG(pipeline_for_model(model) == nullptr,
                  "model " << model << " already has a pipeline group");
  std::vector<unsigned char> seen(pcus_.size(), 0);
  for (std::size_t p : pcus) {
    PCNNA_CHECK_MSG(p < pcus_.size(), "pipeline PCU " << p << " out of range");
    PCNNA_CHECK_MSG(!seen[p], "duplicate PCU " << p << " in pipeline group");
    seen[p] = 1;
    for (const PipelineGroup& g : groups_) {
      PCNNA_CHECK_MSG(std::find(g.members.begin(), g.members.end(), p) ==
                          g.members.end(),
                      "PCU " << p
                             << " is already reserved by the pipeline group "
                                "of model "
                             << g.model);
    }
  }
  const nn::Network& net = pcus_.front().model_network(model);
  PCNNA_CHECK_MSG(pcus.size() <= core::StagePartitioner::max_stages(net),
                  "network '" << net.name() << "' has only "
                              << core::StagePartitioner::max_stages(net)
                              << " conv ops; cannot build " << pcus.size()
                              << " pipeline stages");

  PipelineGroup g;
  g.model = model;
  g.handoff_time = handoff_time;
  g.members = pcus;
  // Partition weights are priced once, on the strongest member (fewest
  // whole-model passes, ties toward the lowest index), so re-placement
  // after a quarantine re-partitions the *same* cost vector and stays a
  // pure function of the healthy-member set.
  std::size_t strongest = pcus.front();
  for (std::size_t p : pcus) {
    if (pcus_[p].channel_split_passes(model) <
        pcus_[strongest].channel_split_passes(model))
      strongest = p;
  }
  g.op_costs =
      core::StagePartitioner(pcus_[strongest].config()).op_costs(net);
  place_pipeline(g, pcus);
  PCNNA_CHECK_MSG(!g.stages.empty(), "pipeline group construction failed");
  groups_.push_back(std::move(g));
  return groups_.size() - 1;
}

PcuPool::PcuPool(std::size_t num_pcus, const core::PcnnaConfig& config,
                 core::TimingFidelity fidelity, const nn::Network& net,
                 const nn::NetWeights& weights)
    : PcuPool(std::vector<PcuSpec>(num_pcus, PcuSpec{config, 0,
                                                     WarmupPolicy::
                                                         kRechargeAfterIdle,
                                                     {}}),
              fidelity, net, weights) {
  // num_pcus == 0 is rejected by the delegated constructor's empty-fleet
  // check.
}

namespace {

/// One request of the AdmissionSource, parked in the event-driven pending
/// set between arrival and dispatch.
struct PendingRequest {
  std::uint64_t id = 0;
  double arrival = 0.0;
  std::uint32_t tenant = 0;
  PriorityClass priority = PriorityClass::kStandard;
  double deadline = std::numeric_limits<double>::infinity();
  std::uint32_t model = 0;
  /// 1-based service attempt the next dispatch of this request will be;
  /// bumped by the fault machinery's retry path, 1 everywhere else.
  std::uint32_t attempts = 1;
};

/// Sentinel for a PCU whose weight banks have never been programmed: its
/// first dispatch programs them as part of the normal pipeline fill, so no
/// swap is charged — there is no outgoing model to tear down.
inline constexpr std::uint32_t kNoModel =
    std::numeric_limits<std::uint32_t>::max();

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dispatch order of the pending set. Under kEdf: strict PriorityClass
/// precedence, then earliest absolute deadline (class-partitioned EDF —
/// a near-expiry best-effort request must not overtake fresh interactive
/// traffic). Every other policy keeps FIFO order. (arrival, id) always
/// closes the ordering, so the set is a strict weak order with unique keys.
struct UrgencyOrder {
  bool edf = false;
  bool operator()(const PendingRequest& a, const PendingRequest& b) const {
    if (edf) {
      if (a.priority != b.priority) return a.priority < b.priority;
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
    }
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  }
};

/// One request parked between loss detection and re-enqueue — the fault
/// machinery's retry queue, ordered by when the backoff expires.
struct RetryEntry {
  double ready = 0.0; ///< virtual time the retry re-enters the pending set
  PendingRequest req;
};

struct RetryOrder {
  bool operator()(const RetryEntry& a, const RetryEntry& b) const {
    if (a.ready != b.ready) return a.ready < b.ready;
    return a.req.id < b.req.id; // ids are unique: strict weak order
  }
};

/// A dispatched attempt that may still be running — the fault machinery's
/// answer to "who dies if this PCU fails right now". Its schedule entry
/// holds its spans: one PCU, or one per pipeline stage.
struct InFlight {
  std::size_t sched_index = 0; ///< index into the uncompacted schedule
  PendingRequest req;
};

/// Pending health-system action on one PCU (at most one at a time; a crash
/// supersedes whatever was pending).
enum class TimerKind : unsigned char {
  kNone,
  kDetectCrash,   ///< crash noticed: pull the dead PCU from dispatch
  kDetectDegrade, ///< drift noticed: enter quarantine, schedule the repair
  kRepairDone,    ///< quarantine repair complete: rejoin healthy
};

/// A pick function's verdict on one pending request: dispatch it to `pcu`
/// (through pipeline group `group`, whose chain AdmissionState::chain
/// holds, when group != kNone), or defer it while others get their turn.
struct Decision {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t pcu = kNone; ///< kNone: defer
  std::size_t group = kNone;
};

/// Whether a fault of `kind` on PCU p at time t reaches attempt s. A
/// transient corrupts the span on p that covers t; a crash kills every span
/// on p not yet complete at t, future pipeline spans included (their
/// activation would arrive at a dead PCU).
bool reaches(const ScheduledService& s, std::size_t p, FaultKind kind,
             double t) {
  const auto hit = [&](std::size_t q, double start, double end) {
    return q == p && end > t && (kind == FaultKind::kCrash || start <= t);
  };
  if (s.stages.empty()) return hit(s.pcu, s.start, s.completion);
  return std::any_of(s.stages.begin(), s.stages.end(),
                     [&](const StageService& st) {
                       return hit(st.pcu, st.start, st.completion);
                     });
}

/// Everything one admission run knows: the per-PCU state, the free-PCU
/// index, the pending and retry sets, the fault cursor and the result.
/// PcuPool::run_admission drives it; each scheduling step is one member.
struct AdmissionState {
  AdmissionState(const PcuPool& pool, const std::vector<Pcu>& pcus,
                 const std::vector<std::size_t>& min_split_passes,
                 const std::vector<PipelineGroup>& built_groups,
                 const AdmissionSource& source,
                 const AdmissionOptions& options);

  const PcuPool& pool;
  const std::vector<Pcu>& pcus;
  const std::vector<std::size_t>& min_split_passes;
  const AdmissionSource source;
  const FaultOptions& faults;
  const AutoscalerPolicy& scaler;
  const DispatchPolicy policy;
  /// kCapabilityAware and kModelAffinity: only capable PCUs serve a model.
  const bool capability_bound;
  const bool double_buffer;
  // fault_active == false is the contract that every path is bit-identical
  // to a run without fault machinery: all fault state stays inert.
  const bool fault_active;
  const bool pipelined;
  // FIFO policies without shedding, autoscaler or faults commit each
  // request at its arrival: their scores depend only on the deterministic
  // per-PCU free times, so a later arrival can never change an earlier
  // commitment. Everything else defers commitments to the moment a PCU
  // frees: EDF lets a later tighter-deadline arrival overtake, shedding is
  // decided at the would-start moment, the autoscaler changes the eligible
  // set over time, model affinity may hold a request for a busy PCU
  // programmed with its model, and faults change PCU health mid-run.
  const bool deferred;
  // kEarliestFree scores a PCU by its free time alone. Every other FIFO
  // score charges the warmup an idle gap drains, so the index must rank
  // PCUs that freed before `now` from `now` (advance_to keeps it there).
  const bool rank_idle_from_now;
  // Opt-in, read-only hooks: the schedule is bitwise identical with or
  // without them (pinned by the telemetry property tests).
  Telemetry* const telemetry;
  std::size_t max_active = 0;
  std::size_t min_active = 0;

  AdmissionResult result;
  /// Analytical request energy per (PCU, model), row-major by PCU.
  std::vector<double> request_energy;

  // --- per PCU ---
  std::vector<double> free_at;
  std::vector<std::size_t> served;
  /// Which model's weights sit in the banks; a dispatch that switches it
  /// pays the swap.
  std::vector<std::uint32_t> programmed;
  /// Autoscaler state: without it every PCU is active and force_cold never
  /// fires.
  std::vector<unsigned char> active;
  std::vector<unsigned char> force_cold;
  std::vector<double> activated_at;
  std::size_t active_count = 0;
  /// Health state (inert without faults). `excluded`: pulled from
  /// dispatch — quarantined, or failed once detection fires.
  std::vector<HealthState> health;
  std::vector<double> degrade_mult;
  std::vector<unsigned char> excluded;
  std::vector<double> health_since;
  std::vector<TimerKind> timer_kind;
  std::vector<double> timer_at;

  // --- pipelines (kPipeline only) ---
  /// A copy of the built groups: re-placement mutates stages mid-run, and
  /// a run must stay a pure function of the pool's built state.
  std::vector<PipelineGroup> groups;
  /// reserved[p]: p belongs to a group — never a fallback target and never
  /// parked by the autoscaler. All zero unless pipelined.
  std::vector<unsigned char> reserved;
  /// pinned[g][j]: stage j of group g has paid its one-time pin. Reset on
  /// re-placement: new stage ranges mean freshly reprogrammed banks.
  std::vector<std::vector<unsigned char>> pinned;
  /// The member subset each group is currently placed over.
  std::vector<std::vector<std::size_t>> last_healthy;
  /// Stage spans of the pipelined Decision being made.
  std::vector<StageService> chain;

  // --- faults (see fault_plan.hpp) ---
  /// Attempts that may still be running, in dispatch order; entries that
  /// completed by `now` or were destroyed are dropped before each scan.
  std::vector<InFlight> inflight;
  /// Tombstones parallel to result.schedule (only with faults): destroyed
  /// attempts stay in place until the final stable compaction.
  std::vector<unsigned char> cancelled;
  std::set<RetryEntry, RetryOrder> retries;
  std::size_t fault_cursor = 0;

  // --- free-PCU index (free_time_index.hpp) ---
  //
  // Every search for a free PCU goes through `index`: the FIFO pick, the
  // next dispatch instant, and the next PCU-free event. A tier groups the
  // PCUs that blind_service prices alike — same per-model interval, warmup,
  // serial time and split passes (hence capability), same warmup policy,
  // same degrade multiplier — so a fault that changes a PCU's multiplier
  // moves it to another tier. A PCU is listed while it is active, not
  // pulled from dispatch, and capable of some registered model.
  /// device[p]: the first PCU priced like p, standing in for all of them
  /// in capability tests.
  std::vector<std::size_t> device;
  std::vector<unsigned char> serves_any;
  /// Tier k: the PCUs of device tier_device[k] at multiplier tier_mult[k].
  std::vector<std::size_t> tier_device;
  std::vector<double> tier_mult;
  FreeTimeIndex index;

  // --- requests and clock ---
  /// Arrived requests awaiting a deferred commitment, in urgency order
  /// (kModelAffinity and kPipeline reuse EDF's: without SLO metadata it
  /// degenerates to FIFO).
  std::set<PendingRequest, UrgencyOrder> pending;
  /// The next source request not yet admitted.
  std::size_t cursor = 0;
  double now = 0.0;
  double last_event = 0.0;
  double active_integral = 0.0; ///< ∫ active_count dt for mean_active

  // --- service pricing ---

  /// Pipeline-fill charge for dispatching model m to PCU p at `start`, per
  /// its warmup policy. Zero on the serial schedule: without double
  /// buffering every layer pays its recalibration inline. A PCU the
  /// autoscaler just (re)activated is cold regardless of policy.
  double warmup_charge(std::size_t p, std::uint32_t m, double start) const {
    if (!double_buffer) return 0.0;
    bool cold = true;
    switch (pcus[p].warmup_policy()) {
      case WarmupPolicy::kRechargeAfterIdle:
        // An idle gap drains the double-buffer pipeline; within a
        // back-to-back streak only the steady-state interval is charged.
        // start == free_at[p] is back-to-back — strictly greater-than, or
        // a request landing exactly when the PCU frees is double-charged.
        cold = served[p] == 0 || start > free_at[p];
        break;
      case WarmupPolicy::kPinnedAfterFirst:
        cold = served[p] == 0;
        break;
      case WarmupPolicy::kAlwaysCold:
        cold = true;
        break;
    }
    return (cold || force_cold[p]) ? pcus[p].warmup_time(m) : 0.0;
  }

  /// Dispatching model m to PCU p would reprogram its banks from a
  /// *different* model — the swap event. Only on the double-buffered
  /// schedule (serial requests reprogram inline), never on a PCU's first
  /// programming.
  bool would_swap(std::size_t p, std::uint32_t m) const {
    return double_buffer && programmed[p] != kNoModel && programmed[p] != m;
  }

  /// Calibration-drift inflation: a degraded PCU's whole service span is
  /// stretched by its worst unrepaired severity (1.0 without faults).
  double degrade_factor(std::size_t p) const {
    return fault_active ? degrade_mult[p] : 1.0;
  }

  /// The one service formula: a model-m span on PCU p whose pipeline fill
  /// (warmup or swap) is `fill`; the serial schedule ignores the fill.
  double service(std::size_t p, std::uint32_t m, double fill) const {
    return (double_buffer ? pcus[p].request_interval_overlapped(m) + fill
                          : pcus[p].request_time_serial(m)) *
           degrade_factor(p);
  }

  /// Truthful span, swap included: what dispatch charges. Used for shed
  /// decisions and kModelAffinity's scoring.
  double true_service(std::size_t p, std::uint32_t m, double start) const {
    return service(p, m,
                   would_swap(p, m) ? pcus[p].swap_time(m)
                                    : warmup_charge(p, m, start));
  }

  /// Model-blind span: the FIFO policies' score, which deliberately ignores
  /// the swap — least-loaded is a load balancer, not a placement policy,
  /// and that blindness is what kModelAffinity fixes (and what the
  /// multi-model bench measures). Equals true_service on one model.
  double blind_service(std::size_t p, std::uint32_t m, double start) const {
    return service(p, m, warmup_charge(p, m, start));
  }

  // --- eligibility ---

  /// A capability-bound policy's PCU must map model m with the
  /// fleet-minimum number of segmented bank passes.
  bool capable(std::size_t p, std::uint32_t m) const {
    return !capability_bound ||
           pcus[p].channel_split_passes(m) == min_split_passes[m];
  }

  /// Health-aware capability downgrade: under the capability-sensitive
  /// policies a degraded PCU no longer meets the bar — unless no healthy
  /// capable PCU is dispatchable for model m, when degraded beats none.
  bool allow_degraded(std::uint32_t m) const {
    if (!fault_active || !capability_bound) return true;
    for (std::size_t p = 0; p < pcus.size(); ++p) {
      if (active[p] && !excluded[p] && capable(p, m) &&
          health[p] == HealthState::kHealthy)
        return false;
    }
    return true;
  }

  /// Dispatch eligibility of PCU p for a model-m request; exactly active
  /// && capable without faults.
  bool eligible(std::size_t p, std::uint32_t m, bool degraded_ok) const {
    if (!active[p] || !capable(p, m)) return false;
    if (!fault_active) return true;
    if (excluded[p]) return false;
    return degraded_ok || health[p] != HealthState::kDegraded;
  }

  // --- free-PCU index ---

  std::size_t tier_of(std::size_t p) {
    std::size_t k = 0;
    while (k < tier_device.size() &&
           (tier_device[k] != device[p] || tier_mult[k] != degrade_mult[p]))
      ++k;
    if (k == tier_device.size()) {
      tier_device.push_back(device[p]);
      tier_mult.push_back(degrade_mult[p]);
    }
    return k;
  }

  /// The one write into the index: every change to a PCU's free time,
  /// served count, forced-cold flag, degrade multiplier or dispatch
  /// eligibility is followed by reindex(p).
  void reindex(std::size_t p) {
    const WarmupPolicy warmup = pcus[p].warmup_policy();
    // Mirrors warmup_charge: a served PCU not forced cold starts warm at
    // its free time; only kPinnedAfterFirst stays warm across an idle gap.
    const bool warm = double_buffer && served[p] > 0 && !force_cold[p] &&
                      warmup != WarmupPolicy::kAlwaysCold;
    index.update(p, {tier_of(p), free_at[p], warm,
                     warm && warmup == WarmupPolicy::kPinnedAfterFirst,
                     active[p] && !excluded[p] && serves_any[p] != 0});
  }

  /// FIFO-policy choice for a model-m request at time t among the PCUs
  /// `elig` admits: kEarliestFree takes the longest-free PCU, the others
  /// the earliest predicted (model-blind) completion; ties go to the lowest
  /// index. Deferred, only PCUs already free at t compete; a commit at
  /// arrival also weighs busy PCUs, starting when they free. pcus.size()
  /// when none qualifies.
  template <class Eligible>
  std::size_t pick_fifo(std::uint32_t m, double t, const Eligible& elig) const {
    return index.pick(
        t, /*busy_ok=*/!deferred,
        [&](std::size_t tier) { return capable(tier_device[tier], m); },
        [&](std::size_t p) {
          const double start = std::max(t, free_at[p]);
          return policy == DispatchPolicy::kEarliestFree
                     ? free_at[p]
                     : start + blind_service(p, m, start);
        },
        elig);
  }

  // --- the three pick functions ---

  /// Defer a request no free PCU can take. Without faults some active PCU
  /// must be able to take it later, or admission could never finish.
  Decision defer_unserved(std::uint32_t m) const {
    if (!fault_active) {
      bool any = false;
      for (std::size_t p = 0; p < pcus.size(); ++p)
        any = any || (active[p] && !reserved[p] && capable(p, m));
      PCNNA_CHECK_MSG(any, "no active PCU capable of model "
                               << m << " (every capable PCU is parked or "
                                       "reserved by a pipeline group)");
    }
    return {};
  }

  /// FIFO policies (kEdf included) and kPipeline's fallback: the best free
  /// eligible PCU outside every pipeline group.
  Decision pick_free(const PendingRequest& r) const {
    const bool degraded_ok = allow_degraded(r.model);
    const std::size_t p = pick_fifo(r.model, now, [&](std::size_t q) {
      return !reserved[q] && eligible(q, r.model, degraded_ok);
    });
    return p < pcus.size() ? Decision{p} : defer_unserved(r.model);
  }

  /// kModelAffinity: a free PCU already programmed with r.model wins on
  /// earliest truthful completion (no swap by construction). Failing that,
  /// r waits for the soonest busy affine PCU — its free time plus a warm
  /// interval — when that both meets the deadline and is no later than
  /// swapping onto the best free PCU now; otherwise it swaps.
  Decision pick_affinity(const PendingRequest& r) const {
    const bool degraded_ok = allow_degraded(r.model);
    std::size_t affine = pcus.size();
    std::size_t best = pcus.size();
    double affine_score = kInf;
    double best_score = kInf;
    double affine_busy = kInf;
    for (std::size_t p = 0; p < pcus.size(); ++p) {
      if (!eligible(p, r.model, degraded_ok)) continue;
      if (free_at[p] > now) {
        if (programmed[p] == r.model)
          affine_busy = std::min(
              affine_busy, free_at[p] + pcus[p].request_interval_overlapped(
                                            r.model) *
                                            degrade_factor(p));
        continue;
      }
      const double score = now + true_service(p, r.model, now);
      if (programmed[p] == r.model && score < affine_score) {
        affine_score = score;
        affine = p;
      }
      if (score < best_score) {
        best_score = score;
        best = p;
      }
    }
    if (affine < pcus.size()) return {affine};
    if (std::isfinite(affine_busy) && affine_busy <= r.deadline &&
        affine_busy <= best_score)
      return {}; // hold out for the busy affine PCU
    return best < pcus.size() ? Decision{best} : defer_unserved(r.model);
  }

  /// The group serving model m with at least one placed stage, or
  /// groups.size().
  std::size_t live_group(std::uint32_t m) const {
    for (std::size_t g = 0; g < groups.size(); ++g)
      if (groups[g].model == m) return groups[g].stages.empty() ? groups.size() : g;
    return groups.size();
  }

  /// kPipeline: route r to its model's group as soon as the head PCU is
  /// free, chaining the stage spans into `chain`: stage j starts once the
  /// previous stage's activation has crossed the link AND its PCU is free
  /// (busy with image i-1 of the same stream). A model without a live
  /// group falls back to pick_free over the unreserved fleet.
  Decision pick_pipeline(const PendingRequest& r) {
    const std::size_t gi = live_group(r.model);
    if (gi == groups.size()) return pick_free(r);
    const PipelineGroup& g = groups[gi];
    if (free_at[g.stages.front().pcu] > now) return {};
    chain.clear();
    double prev = now;
    for (std::size_t j = 0; j < g.stages.size(); ++j) {
      const PipelineStage& st = g.stages[j];
      const double handoff = j == 0 ? 0.0 : g.handoff_time;
      const double start = std::max(prev + handoff, free_at[st.pcu]);
      // The pin (the range's first-layer recalibration) is paid once per
      // placement; afterwards the stage's banks never change.
      const double pin =
          (pinned[gi][j] ? 0.0 : st.timings.pin) * degrade_factor(st.pcu);
      const double span = st.timings.interval * degrade_factor(st.pcu) + pin;
      chain.push_back({j, st.pcu, st.op_begin, st.op_end, start,
                       start + span, pin, handoff});
      prev = start + span;
    }
    return {g.stages.front().pcu, gi};
  }

  // --- commit, shed, loss ---

  /// PCU p serves a model-m span until `completion`.
  void occupy(std::size_t p, std::uint32_t m, double completion) {
    free_at[p] = completion;
    served[p] += 1;
    force_cold[p] = 0;
    programmed[p] = m;
    reindex(p);
  }

  /// Entry s joins the final schedule: at commit without faults, as
  /// finish() keeps it with them. Every column is written here, so each sum
  /// runs in final-schedule order.
  void keep(const ScheduledService& s) {
    ScheduleColumns& c = result.columns;
    c.makespan = std::max(c.makespan, s.completion);
    const double latency = s.completion - s.arrival;
    const double wait = s.start - s.arrival;
    c.latency.push_back(latency);
    c.wait.push_back(wait);
    c.wait_sum += wait;
    // A served retry carries its original arrival, so its sojourn includes
    // every destroyed attempt and backoff delay.
    if (s.attempts > 1) c.retry_latency.push_back(latency);
    c.energy += request_energy[s.pcu * min_split_passes.size() + s.model];
    PcuBreakdown& head = c.per_pcu[s.pcu];
    head.requests += 1;
    if (s.stages.empty()) {
      head.busy_time += s.completion - s.start;
      head.warmup_time += s.warmup;
      head.swaps += s.swapped ? 1 : 0;
      head.swap_time += s.swap;
    } else {
      // The whole-chain span would overcount the head, which is busy only
      // for its own stage; pipelined service never swaps.
      for (const StageService& st : s.stages) {
        c.per_pcu[st.pcu].busy_time += st.completion - st.start;
        c.per_pcu[st.pcu].warmup_time += st.pin;
      }
    }
    if (source.slos.empty()) return;
    c.slo_metadata = c.slo_metadata || s.tenant != 0 ||
                     s.priority != PriorityClass::kStandard ||
                     std::isfinite(s.deadline);
    TenantBreakdown& t = c.tenants[s.tenant];
    t.served += 1;
    t.slo_misses += s.completion > s.deadline ? 1 : 0;
    c.tenant_latency[s.tenant].push_back(latency);
  }

  /// Append a dispatched attempt whose PCUs are already occupied; without
  /// faults it is final, and kept at once. With faults it is tracked in
  /// flight — or, when it runs on a failed PCU the dispatcher has not
  /// noticed (fault-blind, or inside the detection window), lost at once:
  /// the dispatcher learns only at the predicted completion that it never
  /// came back.
  void commit(const PendingRequest& r, ScheduledService&& entry) {
    if (telemetry) telemetry->on_dispatch(entry.swapped, !entry.stages.empty());
    result.schedule.push_back(std::move(entry));
    const ScheduledService& s = result.schedule.back();
    if (!fault_active) return keep(s);
    const std::size_t idx = result.schedule.size() - 1;
    cancelled.push_back(0);
    // The first failed PCU the attempt runs on (else its last PCU).
    std::size_t dead = s.pcu;
    for (const StageService& st : s.stages) {
      dead = st.pcu;
      if (health[dead] == HealthState::kFailed) break;
    }
    if (health[dead] == HealthState::kFailed) {
      lose_attempt(r, idx, dead, FaultKind::kCrash, s.completion,
                   s.completion);
    } else {
      inflight.push_back({idx, r});
    }
  }

  /// Dispatch r to PCU p at `start`, charging the swap or the warmup per
  /// the programmed state.
  void dispatch(const PendingRequest& r, std::size_t p, double start) {
    const bool swapped = would_swap(p, r.model);
    const double swap = swapped ? pcus[p].swap_time(r.model) : 0.0;
    const double warmup = swapped ? 0.0 : warmup_charge(p, r.model, start);
    const double completion = start + service(p, r.model, swap + warmup);
    occupy(p, r.model, completion);
    commit(r, {r.id, p, r.arrival, start, completion, warmup, r.tenant,
               r.priority, r.deadline, r.model, swap, swapped, r.attempts,
               {}});
  }

  /// Dispatch r through group gi along `chain`: every stage PCU occupied,
  /// every stage pinned.
  void dispatch_chain(const PendingRequest& r, std::size_t gi) {
    double pin = 0.0;
    double handoff = 0.0;
    for (std::size_t j = 0; j < chain.size(); ++j) {
      occupy(chain[j].pcu, r.model, chain[j].completion);
      pinned[gi][j] = 1;
      pin += chain[j].pin;
      handoff += chain[j].handoff;
    }
    result.pipeline.pipelined_requests += 1;
    result.pipeline.stage_spans += chain.size();
    result.pipeline.pin_time += pin;
    result.pipeline.handoff_time += handoff;
    const StageService head = chain.front();
    const double completion = chain.back().completion;
    commit(r, {r.id, head.pcu, r.arrival, head.start, completion, pin,
               r.tenant, r.priority, r.deadline, r.model, 0.0, false,
               r.attempts, std::move(chain)});
  }

  /// Reject r now: its predicted completion blows its deadline.
  void shed(const PendingRequest& r) {
    result.shed.shed += 1;
    result.shed.per_tenant[r.tenant] += 1;
    result.shed.decisions.push_back(
        {r.id, r.tenant, r.priority, r.arrival, r.deadline, now});
  }

  void record_loss(const PendingRequest& r, double t, std::uint32_t attempts) {
    result.fault.lost_requests += 1;
    result.fault.losses.push_back(
        {r.id, r.tenant, r.priority, r.arrival, t, attempts});
  }

  /// Fastest base service any PCU offers for model m — the bound behind
  /// deadline-aware backoff.
  double fleet_min_service(std::uint32_t m) const {
    double best = kInf;
    for (const Pcu& pcu : pcus) {
      best = std::min(best, double_buffer ? pcu.request_interval_overlapped(m)
                                          : pcu.request_time_serial(m));
    }
    return best;
  }

  /// A destroyed attempt of `req` was detected at `detect`: re-enqueue it
  /// with exponential backoff if the budget allows, else record the
  /// permanent loss. The backoff is capped so the retry could still start
  /// early enough to meet a finite deadline on the fastest PCU.
  void schedule_retry(const PendingRequest& req, double detect) {
    if (!faults.health_aware || req.attempts > faults.retry.max_retries) {
      record_loss(req, detect, req.attempts);
      return;
    }
    double delay = faults.retry.backoff_base;
    for (std::uint32_t k = 1; k < req.attempts; ++k)
      delay *= faults.retry.backoff_factor;
    double ready = detect + delay;
    if (std::isfinite(req.deadline)) {
      ready = std::max(
          detect, std::min(ready, req.deadline - fleet_min_service(req.model)));
    }
    PendingRequest next = req;
    next.attempts += 1;
    retries.insert({ready, next});
    result.fault.retries += 1;
  }

  /// Destroy one dispatched attempt: tombstone its schedule entry, record
  /// it, and route the request into retry (or permanent loss). `end` is
  /// when the PCU time was wasted until; `detect` when the loss is known.
  void lose_attempt(const PendingRequest& req, std::size_t sched_index,
                    std::size_t p, FaultKind kind, double end, double detect) {
    cancelled[sched_index] = 1;
    const double start = result.schedule[sched_index].start;
    result.fault.attempts.push_back({req.id, p, start, end, kind, req.attempts});
    result.fault.per_pcu[p].lost_attempts += 1;
    result.fault.per_pcu[p].lost_time += end - start;
    if (kind == FaultKind::kCrash) {
      result.fault.crash_losses += 1;
    } else {
      result.fault.transient_corruptions += 1;
    }
    schedule_retry(req, detect);
  }

  /// Everything still waiting is permanently lost: the fleet died (or
  /// stayed incapable) and no future event can change that.
  void drain_all_lost() {
    for (const PendingRequest& r : pending) record_loss(r, now, r.attempts - 1);
    for (const RetryEntry& e : retries)
      record_loss(e.req, now, e.req.attempts - 1);
    pending.clear();
    retries.clear();
  }

  // --- health ---

  /// Close the current health-state dwell bucket of PCU p at time t.
  void close_health(std::size_t p, double t) {
    const double dt = t - health_since[p];
    if (dt <= 0.0) return;
    PcuHealthStats& hs = result.fault.per_pcu[p];
    switch (health[p]) {
      case HealthState::kHealthy: hs.healthy_time += dt; break;
      case HealthState::kDegraded: hs.degraded_time += dt; break;
      case HealthState::kQuarantined: hs.quarantined_time += dt; break;
      case HealthState::kFailed: hs.failed_time += dt; break;
    }
    health_since[p] = t;
  }

  void set_timer(std::size_t p, TimerKind kind, double at) {
    timer_kind[p] = kind;
    timer_at[p] = at;
  }

  /// Move PCU p into `state` at time t.
  void set_health(std::size_t p, HealthState state, double t) {
    close_health(p, t);
    health[p] = state;
  }

  /// PCU p rejoins healthy at t — a quarantine repair completing, or an
  /// external kRecover — with freshly re-trimmed, unprogrammed banks: the
  /// next dispatch recalibrates from cold, and every calibration artifact
  /// planned for its configuration goes stale.
  void rejoin(std::size_t p, double t) {
    set_health(p, HealthState::kHealthy, t);
    excluded[p] = 0;
    degrade_mult[p] = 1.0;
    programmed[p] = kNoModel;
    force_cold[p] = 1;
    free_at[p] = std::max(free_at[p], t);
    reindex(p);
    set_timer(p, TimerKind::kNone, kInf);
    result.fault.repairs += 1;
    result.fault.per_pcu[p].repairs += 1;
    if (faults.plan_cache != nullptr) {
      faults.plan_cache->bump_epoch(
          core::plan_config_key(pcus[p].config(), pcus[p].fidelity()));
      result.fault.plan_epoch_bumps += 1;
    }
  }

  /// Fire the pending health timer of PCU p at its due time t.
  void fire_timer(std::size_t p, double t) {
    const TimerKind kind = timer_kind[p];
    set_timer(p, TimerKind::kNone, kInf);
    switch (kind) {
      case TimerKind::kNone:
        return;
      case TimerKind::kDetectCrash:
        // The crash is noticed: pull the dead PCU from dispatch. (A
        // recovery before detection clears this timer.)
        if (health[p] == HealthState::kFailed) {
          excluded[p] = 1;
          reindex(p);
        }
        return;
      case TimerKind::kDetectDegrade: {
        if (health[p] != HealthState::kDegraded) return;
        // Quarantine: out of dispatch, drain the in-flight request, then
        // pay the full repair recalibration (fixed repair time plus the
        // full serial reprogram of whatever model is in the banks).
        set_health(p, HealthState::kQuarantined, t);
        excluded[p] = 1;
        result.fault.quarantines += 1;
        result.fault.per_pcu[p].quarantines += 1;
        const std::uint32_t m = programmed[p] == kNoModel ? 0u : programmed[p];
        const double repair_start = std::max(t, free_at[p]);
        const double repair_end =
            repair_start + faults.repair_time + pcus[p].swap_time(m);
        result.fault.repair_time += repair_end - repair_start;
        free_at[p] = std::max(free_at[p], repair_end);
        reindex(p);
        set_timer(p, TimerKind::kRepairDone, repair_end);
        return;
      }
      case TimerKind::kRepairDone:
        rejoin(p, t);
        return;
    }
    throw Error("invalid TimerKind");
  }

  /// Destroy every live attempt a `kind` fault on PCU p at t reaches. A
  /// corruption surfaces when the attempt completes (a pipelined one at
  /// its final stage); a crash loss is noticed after the detection latency.
  void strike(std::size_t p, FaultKind kind, double t) {
    prune_inflight();
    for (const InFlight& f : inflight) {
      const ScheduledService& s = result.schedule[f.sched_index];
      if (cancelled[f.sched_index] || !reaches(s, p, kind, t)) continue;
      if (kind == FaultKind::kCrash) {
        lose_attempt(f.req, f.sched_index, p, kind, t,
                     t + faults.detection_latency);
      } else {
        lose_attempt(f.req, f.sched_index, p, kind, s.completion,
                     s.completion);
      }
    }
  }

  /// Apply one FaultEvent at its timestamp.
  void apply_fault(const FaultEvent& e) {
    result.fault.injections += 1;
    const std::size_t p = e.pcu;
    PcuHealthStats& stats = result.fault.per_pcu[p];
    switch (e.kind) {
      case FaultKind::kTransient:
        stats.transients += 1;
        if (health[p] != HealthState::kFailed) strike(p, e.kind, e.time);
        return;
      case FaultKind::kDegrade:
        if (health[p] == HealthState::kFailed) return; // dead already
        stats.degrades += 1;
        degrade_mult[p] = std::max(degrade_mult[p], e.severity);
        reindex(p);
        if (health[p] == HealthState::kHealthy)
          set_health(p, HealthState::kDegraded, e.time);
        // A quarantined PCU is being repaired anyway; an earlier pending
        // detection keeps its (earlier) due time.
        if (faults.health_aware && health[p] == HealthState::kDegraded &&
            timer_kind[p] == TimerKind::kNone)
          set_timer(p, TimerKind::kDetectDegrade,
                    e.time + faults.detection_latency);
        return;
      case FaultKind::kCrash:
        stats.crashes += 1;
        if (health[p] == HealthState::kFailed) return; // dead already
        set_health(p, HealthState::kFailed, e.time);
        // A crash supersedes any pending detection and aborts a repair in
        // progress (no repair counted, no epoch bump: the banks were never
        // re-trimmed).
        set_timer(p, faults.health_aware ? TimerKind::kDetectCrash
                                         : TimerKind::kNone,
                  faults.health_aware ? e.time + faults.detection_latency
                                      : kInf);
        strike(p, e.kind, e.time);
        return;
      case FaultKind::kRecover:
        // External repair: a mid-quarantine recover completes the repair
        // early; a recover on a healthy PCU is an external re-trim. Both
        // count as a repair and bump the epoch.
        rejoin(p, e.time);
        return;
    }
    throw Error("invalid FaultKind");
  }

  /// Re-place every pipeline group whose healthy member set changed. Pure
  /// function of the surviving members, so deterministic; pins reset.
  void refresh_pipelines() {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<std::size_t> healthy_members;
      for (std::size_t p : groups[g].members)
        if (!excluded[p]) healthy_members.push_back(p);
      if (healthy_members == last_healthy[g]) continue;
      last_healthy[g] = healthy_members;
      pool.place_pipeline(groups[g], healthy_members);
      pinned[g].assign(groups[g].stages.size(), 0);
      result.pipeline.replacements += 1;
    }
  }

  // --- events and the clock ---

  double next_arrival() const {
    return cursor < source.arrivals.size() ? source.arrivals[cursor] : kInf;
  }

  /// Source request k as it enters admission.
  PendingRequest arrival(std::size_t k) const {
    const RequestSlo slo = source.slos.empty() ? RequestSlo{} : source.slos[k];
    return {source.ids.empty() ? k : source.ids[k], source.arrivals[k],
            slo.tenant, slo.priority, slo.deadline,
            source.models.empty() ? 0u : source.models[k]};
  }

  /// Earliest pending health timer and its PCU (ties: lowest index).
  std::pair<double, std::size_t> next_timer() const {
    const auto it = std::min_element(timer_at.begin(), timer_at.end());
    return {*it, static_cast<std::size_t>(it - timer_at.begin())};
  }

  double next_fault_time() const {
    return fault_cursor < faults.schedule.size()
               ? faults.schedule[fault_cursor].time
               : kInf;
  }

  /// Drop (stably) the attempts that completed by `now` or were
  /// destroyed. Bit-safe: every health event still to come is later than
  /// `now`, and a fault reaches only an attempt completing after it.
  void prune_inflight() {
    std::erase_if(inflight, [&](const InFlight& f) {
      return cancelled[f.sched_index] ||
             result.schedule[f.sched_index].completion <= now;
    });
  }

  /// Latest completion among attempts still in flight; -inf when none.
  double in_flight_until() {
    prune_inflight();
    double until = -kInf;
    for (const InFlight& f : inflight)
      until = std::max(until, result.schedule[f.sched_index].completion);
    return until;
  }

  /// The next event that can change the picture: an arrival, a retry whose
  /// backoff expires, or a health timer or fault event; +inf when none.
  /// `idle` (nothing pending): a health event counts only while some
  /// attempt is still in flight for it to strike — later ones are past the
  /// end of the simulated timeline.
  double next_event(bool idle = false) {
    double t = next_arrival();
    if (!fault_active) return t;
    if (!retries.empty()) t = std::min(t, retries.begin()->ready);
    const double health_event =
        std::min(next_timer().first, next_fault_time());
    if (!idle || health_event <= in_flight_until())
      t = std::min(t, health_event);
    return t;
  }

  void advance_to(double t) {
    if (t > last_event) {
      active_integral += static_cast<double>(active_count) * (t - last_event);
      last_event = t;
    }
    now = std::max(now, t);
    if (rank_idle_from_now) index.advance(now);
  }

  /// Every clock advance of the loop: first each health timer and fault
  /// event due by t, each at its own timestamp — timers first on exact
  /// ties, so detection and repair outcomes are visible to a fault striking
  /// at the same instant — re-placing pipeline groups after each.
  void step_to(double t) {
    while (fault_active) {
      const auto [tt, tp] = next_timer();
      const double ft = next_fault_time();
      if (std::min(tt, ft) > t) break;
      advance_to(std::min(tt, ft));
      if (tt <= ft) {
        fire_timer(tp, tt);
      } else {
        apply_fault(faults.schedule[fault_cursor++]);
      }
      if (pipelined) refresh_pipelines();
    }
    advance_to(t);
  }

  // --- autoscaler ---

  /// Lowest-indexed parked PCU not pulled from dispatch (outside every
  /// pipeline group with `unreserved`); pcus.size() when there is none.
  std::size_t first_parked(bool unreserved) const {
    std::size_t p = 0;
    while (p < pcus.size() &&
           (active[p] || excluded[p] || (unreserved && reserved[p])))
      ++p;
    return p;
  }

  /// Activation forces a cold start: the pipeline of a parked PCU has
  /// drained no matter its WarmupPolicy.
  void activate(std::size_t p) {
    active[p] = 1;
    force_cold[p] = 1;
    reindex(p);
    activated_at[p] = now;
    active_count += 1;
    result.autoscaler.scale_ups += 1;
  }

  /// Deactivate PCUs idle at least shrink_after_idle, highest index first,
  /// never below min_active. A busy PCU has negative idle time; a pipeline
  /// member is never parked (the whole chain would stall).
  void shrink_idle() {
    if (scaler.shrink_after_idle <= 0.0) return;
    for (std::size_t i = pcus.size(); i-- > 0 && active_count > min_active;) {
      if (!active[i] || reserved[i]) continue;
      const double idle_from = std::max(free_at[i], activated_at[i]);
      if (now - idle_from >= scaler.shrink_after_idle) {
        active[i] = 0;
        reindex(i);
        active_count -= 1;
        result.autoscaler.scale_downs += 1;
      }
    }
  }

  /// Activate the lowest parked PCU while the pending backlog exceeds the
  /// per-PCU budget (skipping health-excluded ones). Under kPipeline,
  /// reserved members inflate active_count but never serve group-less
  /// models, so when such a request waits and no unreserved PCU is awake,
  /// one is forced up: the fallback must never starve behind the groups.
  void grow_on_backlog() {
    while (active_count < max_active &&
           static_cast<double>(pending.size()) >
               scaler.backlog_per_pcu * static_cast<double>(active_count)) {
      const std::size_t p = first_parked(/*unreserved=*/false);
      if (p == pcus.size()) break;
      activate(p);
    }
    if (!pipelined || active_count >= max_active) return;
    const bool groupless_pending =
        std::any_of(pending.begin(), pending.end(), [&](const auto& r) {
          return live_group(r.model) == groups.size();
        });
    bool unreserved_awake = false;
    for (std::size_t p = 0; p < pcus.size(); ++p)
      unreserved_awake =
          unreserved_awake || (active[p] && !reserved[p] && !excluded[p]);
    const std::size_t p = first_parked(/*unreserved=*/true);
    if (groupless_pending && !unreserved_awake && p < pcus.size()) activate(p);
  }

  /// The result once the loop has drained: remaining repairs complete,
  /// destroyed attempts leave the schedule, and the mean-active integral
  /// and health dwell buckets close at the makespan.
  AdmissionResult finish();
};

AdmissionState::AdmissionState(const PcuPool& pool,
                               const std::vector<Pcu>& pcus,
                               const std::vector<std::size_t>& min_split_passes,
                               const std::vector<PipelineGroup>& built_groups,
                               const AdmissionSource& source,
                               const AdmissionOptions& options)
    : pool(pool),
      pcus(pcus),
      min_split_passes(min_split_passes),
      source(source),
      faults(options.faults),
      scaler(options.autoscaler),
      policy(options.policy),
      capability_bound(policy == DispatchPolicy::kCapabilityAware ||
                       policy == DispatchPolicy::kModelAffinity),
      double_buffer(options.double_buffer),
      fault_active(options.faults.enabled()),
      pipelined(options.policy == DispatchPolicy::kPipeline),
      deferred(policy == DispatchPolicy::kEdf ||
               policy == DispatchPolicy::kModelAffinity || pipelined ||
               options.shed_expired || scaler.enabled || fault_active),
      rank_idle_from_now(policy != DispatchPolicy::kEarliestFree),
      telemetry(options.telemetry),
      free_at(pcus.size(), 0.0),
      served(pcus.size(), 0),
      programmed(pcus.size(), kNoModel),
      active(pcus.size(), 0),
      force_cold(pcus.size(), 0),
      activated_at(pcus.size(), 0.0),
      health(pcus.size(), HealthState::kHealthy),
      degrade_mult(pcus.size(), 1.0),
      excluded(pcus.size(), 0),
      health_since(pcus.size(), 0.0),
      timer_kind(pcus.size(), TimerKind::kNone),
      timer_at(pcus.size(), kInf),
      groups(pipelined ? built_groups : std::vector<PipelineGroup>{}),
      reserved(pcus.size(), 0),
      pinned(groups.size()),
      last_healthy(groups.size()),
      device(pcus.size()),
      serves_any(pcus.size(), 0),
      index(pcus.size()),
      pending(UrgencyOrder{policy == DispatchPolicy::kEdf ||
                           policy == DispatchPolicy::kModelAffinity ||
                           pipelined}) {
  const std::size_t n = pcus.size();
  max_active = scaler.enabled && scaler.max_active > 0
                   ? std::min(scaler.max_active, n)
                   : n;
  min_active = scaler.enabled ? scaler.min_active : n;
  if (scaler.enabled) {
    PCNNA_CHECK_MSG(min_active >= 1 && min_active <= max_active,
                    "autoscaler needs 1 <= min_active <= max_active, got ["
                        << min_active << ", " << max_active << "]");
  }
  result.schedule.reserve(source.arrivals.size());
  result.columns.latency.reserve(source.arrivals.size());
  result.columns.wait.reserve(source.arrivals.size());
  result.columns.per_pcu.resize(n);
  active_count = min_active;
  std::fill_n(active.begin(), active_count, 1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    pinned[g].assign(groups[g].stages.size(), 0);
    last_healthy[g] = groups[g].members;
    for (std::size_t p : groups[g].members) reserved[p] = 1;
  }
  result.pipeline.groups = groups.size();
  // Pipeline members are statically placed; parking one would stall its
  // whole group, so they are always active.
  for (std::size_t p = 0; p < n; ++p) {
    if (reserved[p] && !active[p]) {
      active[p] = 1;
      active_count += 1;
    }
  }
  if (fault_active) result.fault.per_pcu.resize(n);

  // Tiers: PCUs that agree on every constant blind_service reads.
  const auto same_device = [&](std::size_t p, std::size_t q) {
    const Pcu& a = pcus[p];
    const Pcu& b = pcus[q];
    if (a.warmup_policy() != b.warmup_policy()) return false;
    for (std::uint32_t m = 0; m < min_split_passes.size(); ++m) {
      if (a.request_interval_overlapped(m) !=
              b.request_interval_overlapped(m) ||
          a.warmup_time(m) != b.warmup_time(m) ||
          a.request_time_serial(m) != b.request_time_serial(m) ||
          a.channel_split_passes(m) != b.channel_split_passes(m))
        return false;
    }
    return true;
  };
  std::vector<std::size_t> firsts;
  for (std::size_t p = 0; p < n; ++p) {
    const auto first =
        std::find_if(firsts.begin(), firsts.end(),
                     [&](std::size_t q) { return same_device(p, q); });
    device[p] = first == firsts.end() ? p : *first;
    if (device[p] == p) firsts.push_back(p);
    result.columns.per_pcu[p].tag = pcus[p].tag();
    for (std::uint32_t m = 0; m < min_split_passes.size(); ++m) {
      if (capable(p, m)) serves_any[p] = 1;
      request_energy.push_back(pcus[p].request_energy(m));
    }
  }
  for (std::size_t p = 0; p < n; ++p) reindex(p);
}

AdmissionResult AdmissionState::finish() {
  if (fault_active) {
    // Repairs complete even after the last request — fire every remaining
    // health timer for the availability and repair accounting. (Remaining
    // fault *events* are past the end of the simulated timeline.)
    while (true) {
      const auto [t, p] = next_timer();
      if (!std::isfinite(t)) break;
      advance_to(t);
      fire_timer(p, t);
    }
    // Drop destroyed attempts (stable), keeping only the attempt that
    // actually served each request.
    std::vector<ScheduledService> kept;
    kept.reserve(result.schedule.size());
    for (std::size_t i = 0; i < result.schedule.size(); ++i) {
      if (cancelled[i]) continue;
      kept.push_back(std::move(result.schedule[i]));
      keep(kept.back());
      if (kept.back().attempts > 1) result.fault.recovered_requests += 1;
    }
    result.schedule = std::move(kept);
  }
  const double served_until = result.columns.makespan;
  if (served_until > 0.0) {
    for (PcuBreakdown& b : result.columns.per_pcu)
      b.utilization = b.busy_time / served_until;
  }

  // Close the mean-active integral at the makespan: the last completion,
  // destroyed attempts included, or the last event when all were shed.
  double makespan = std::max(last_event, served_until);
  for (const FaultedAttempt& a : result.fault.attempts)
    makespan = std::max(makespan, a.end);
  advance_to(makespan);
  // Without the autoscaler the whole pool is active throughout; report it
  // exactly rather than as a sum of active_count * dt pieces.
  result.autoscaler.mean_active =
      scaler.enabled && makespan > 0.0 ? active_integral / makespan
                                       : static_cast<double>(active_count);

  // Close every health dwell bucket and derive per-PCU availability (the
  // in-service fraction of the run).
  for (std::size_t p = 0; p < result.fault.per_pcu.size(); ++p) {
    close_health(p, makespan);
    PcuHealthStats& hs = result.fault.per_pcu[p];
    hs.availability = makespan > 0.0
                          ? (hs.healthy_time + hs.degraded_time) / makespan
                          : 1.0;
  }
  return std::move(result);
}

/// The one boundary check of an admission run. The loop walks the source
/// with one cursor and peeks the next arrival as the earliest pending one,
/// so an unsorted trace must be rejected here rather than silently corrupt
/// the schedule.
void validate_source(const AdmissionSource& source, std::size_t num_models) {
  const std::size_t n = source.arrivals.size();
  PCNNA_CHECK_MSG(source.slos.empty() || source.slos.size() == n,
                  "SLO schedule covers " << source.slos.size()
                                         << " requests but " << n << " arrive");
  PCNNA_CHECK_MSG(source.models.empty() || source.models.size() == n,
                  "model schedule covers " << source.models.size()
                                           << " requests but " << n
                                           << " arrive");
  validate_arrival_schedule(source.arrivals);
  for (std::size_t k = 0; k < source.models.size(); ++k)
    PCNNA_CHECK_MSG(source.models[k] < num_models,
                    "request " << k << " targets model " << source.models[k]
                               << " but only " << num_models
                               << " models are registered");
}

} // namespace

AdmissionResult PcuPool::simulate_admission(
    const std::vector<InferenceRequest>& requests,
    const AdmissionOptions& options) {
  std::vector<double> arrivals;
  std::vector<RequestSlo> slos;
  std::vector<std::uint32_t> models;
  std::vector<std::uint64_t> ids;
  for (const InferenceRequest& r : requests) {
    arrivals.push_back(r.arrival_time);
    slos.push_back({r.tenant, r.priority, r.deadline});
    models.push_back(r.model_id);
    ids.push_back(r.id);
  }
  AdmissionResult result =
      run_admission({arrivals, slos, models, ids}, options);
  if (options.telemetry)
    options.telemetry->record_admission(result, *this, options);
  return result;
}

AdmissionResult PcuPool::run_admission(const AdmissionSource& source,
                                       const AdmissionOptions& options) {
  validate_source(source, min_split_passes_.size());
  validate_fault_options(options.faults, pcus_.size());

  AdmissionState s(*this, pcus_, min_split_passes_, groups_, source,
                   options);
  // Events are arrivals, PCU-free instants, retry expiries and health
  // events; the clock only moves forward, so the schedule is
  // deterministic.
  while (true) {
    // Retries whose backoff has expired re-enter the pending set (only
    // here, at the top of the loop) with their original arrival and id,
    // hence seed, and compete under the normal urgency order.
    while (!s.retries.empty() && s.retries.begin()->ready <= s.now) {
      s.pending.insert(s.retries.begin()->req);
      s.retries.erase(s.retries.begin());
    }

    // Admit everything that has arrived by `now`: into the pending set, or
    // straight onto a PCU when commitments are not deferred.
    for (; s.next_arrival() <= s.now; ++s.cursor) {
      const PendingRequest r = s.arrival(s.cursor);
      if (s.deferred) {
        s.pending.insert(r);
        continue;
      }
      // Capability is the tier filter; every listed PCU is eligible.
      const std::size_t p =
          s.pick_fifo(r.model, r.arrival, [](std::size_t) { return true; });
      s.dispatch(r, p, std::max(r.arrival, s.free_at[p]));
    }

    if (s.pending.empty()) {
      const double next = s.next_event(/*idle=*/true);
      if (!std::isfinite(next)) break; // drained: done
      s.step_to(next);
      continue;
    }

    if (s.scaler.enabled) {
      s.shrink_idle();
      s.grow_on_backlog();
    }

    // The next dispatch opportunity: the earliest instant a listed
    // (active, not health-excluded, capable-of-some-model) PCU is free.
    // An arrival at or before it is admitted first (under EDF it may be
    // more urgent than anything pending); so is a retry or health event —
    // a fault could kill the very PCU the dispatch would pick.
    const double free_time = s.index.earliest_free(s.now);
    bool acted = false;
    if (std::isfinite(free_time)) {
      const double event = s.next_arrival() <= free_time ? s.next_arrival()
                                                         : s.next_event();
      if (event <= free_time) {
        s.step_to(event);
        continue;
      }
      s.step_to(free_time);

      // Walk the pending set in urgency order and act on the first request
      // that can: dispatch it, or shed it when its predicted completion
      // blows its deadline. A request may instead defer — under
      // kModelAffinity for a busy PCU programmed with its model, under
      // kPipeline until its head stage frees, under multi-model
      // kCapabilityAware while every capable PCU is busy — and the next
      // pending request gets its chance. On a single-model stream nothing
      // defers: the free event guarantees a free capable PCU.
      if (s.telemetry) s.telemetry->on_queue_depth(s.now, s.pending.size());
      for (auto it = s.pending.begin(); it != s.pending.end(); ++it) {
        const PendingRequest r = *it;
        Decision d;
        switch (options.policy) {
          case DispatchPolicy::kEarliestFree:
          case DispatchPolicy::kLeastLoaded:
          case DispatchPolicy::kCapabilityAware:
          case DispatchPolicy::kEdf: d = s.pick_free(r); break;
          case DispatchPolicy::kModelAffinity: d = s.pick_affinity(r); break;
          case DispatchPolicy::kPipeline: d = s.pick_pipeline(r); break;
        }
        if (d.pcu == Decision::kNone) continue;
        const bool chained = d.group != Decision::kNone;
        if (options.shed_expired &&
            (chained ? s.chain.back().completion
                     : s.now + s.true_service(d.pcu, r.model, s.now)) >
                r.deadline) {
          s.shed(r);
        } else if (chained) {
          s.dispatch_chain(r, d.group);
        } else {
          s.dispatch(r, d.pcu, s.now);
        }
        s.pending.erase(it);
        acted = true;
        break;
      }
    } else {
      // The whole fleet is dead, quarantined or parked.
      PCNNA_CHECK_MSG(s.fault_active,
                      "no active capable PCU to dispatch to — autoscaler "
                      "min_active excludes every capable PCU");
    }
    if (acted) continue;

    // Nothing can start at `now`: advance to the next event that can
    // change the picture — including the next strictly-later free time of
    // a listed PCU. If nothing ever will, what remains is lost.
    const double next = std::min(s.next_event(), s.index.next_free_after(s.now));
    if (!std::isfinite(next)) {
      PCNNA_CHECK_MSG(s.fault_active,
                      "admission deadlock: every pending request is "
                      "deferred with no future event");
      s.drain_all_lost();
      break;
    }
    s.step_to(next);
  }
  return s.finish();
}

} // namespace pcnna::runtime
