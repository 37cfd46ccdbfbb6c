// PcuPool::serve, the functional executor: runs each request (or each
// pipeline stage) of a finished virtual-time schedule on the PCU the
// schedule named, one host thread per busy PCU. It lives apart from the
// admission loop (pcu_pool.cpp) so that an edit to either one leaves the
// other's machine code, and so its speed, alone.
#include "runtime/pcu_pool.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"

namespace pcnna::runtime {

std::vector<RequestResult> PcuPool::serve(
    std::vector<InferenceRequest> requests,
    const std::vector<ScheduledService>& schedule, bool simulate_values) {
  PCNNA_CHECK_MSG(schedule.size() <= requests.size(),
                  "schedule covers " << schedule.size()
                                     << " requests but only "
                                     << requests.size() << " were given");
  // Result slots are addressed by position, and every slot is labelled
  // with its position below: a request whose own id differs would come
  // back under another request's id.
  for (std::size_t k = 0; k < requests.size(); ++k)
    PCNNA_CHECK_MSG(requests[k].id == k,
                    "requests must have dense ids: requests["
                        << k << "] has id " << requests[k].id);
  constexpr std::size_t kWhole = std::numeric_limits<std::size_t>::max();

  /// One unit of PCU work: a whole request (stage == kWhole) or one stage
  /// of a pipelined request. Ordered by virtual span start — the admission
  /// loop guarantees per-PCU spans never overlap, so start order is the
  /// execution order.
  struct Exec {
    std::size_t sched = 0; ///< index into `schedule`
    std::size_t stage = kWhole;
    double start = 0.0;
  };
  std::vector<std::vector<Exec>> assigned(pcus_.size());
  std::vector<unsigned char> seen(requests.size(), 0);
  // Hand-off chain per pipelined schedule entry: promise/future pairs, one
  // per stage boundary. Stage j fulfills boundary j; stage j+1 consumes it.
  std::vector<std::vector<std::promise<StageHandoff>>> chains(schedule.size());
  std::vector<std::vector<std::future<StageHandoff>>> handoffs(
      schedule.size());

  for (std::size_t si = 0; si < schedule.size(); ++si) {
    const ScheduledService& s = schedule[si];
    PCNNA_CHECK_MSG(s.id < requests.size() && !seen[s.id],
                    "schedule must name each request id at most once (id "
                        << s.id << ")");
    seen[s.id] = 1;
    if (s.stages.empty()) {
      PCNNA_CHECK_MSG(s.pcu < pcus_.size(),
                      "scheduled PCU " << s.pcu << " out of range");
      assigned[s.pcu].push_back({si, kWhole, s.start});
      continue;
    }
    for (std::size_t j = 0; j < s.stages.size(); ++j) {
      PCNNA_CHECK_MSG(s.stages[j].pcu < pcus_.size(),
                      "scheduled stage PCU " << s.stages[j].pcu
                                             << " out of range");
      assigned[s.stages[j].pcu].push_back({si, j, s.stages[j].start});
    }
    chains[si].resize(s.stages.size() - 1);
    handoffs[si].reserve(s.stages.size() - 1);
    for (std::size_t j = 0; j + 1 < s.stages.size(); ++j)
      handoffs[si].push_back(chains[si][j].get_future());
  }
  for (std::vector<Exec>& list : assigned) {
    std::sort(list.begin(), list.end(), [](const Exec& a, const Exec& b) {
      if (a.start != b.start) return a.start < b.start;
      if (a.sched != b.sched) return a.sched < b.sched;
      return a.stage < b.stage;
    });
  }

  std::vector<RequestResult> results(requests.size());
  for (std::size_t id = 0; id < results.size(); ++id) {
    results[id].id = id;
    results[id].model_id = requests[id].model_id;
    results[id].tenant = requests[id].tenant;
  }
  std::mutex error_mu;
  std::exception_ptr first_error;

  // One worker per busy PCU over its own execution list. A stage past the
  // head blocks on the previous stage's future; the virtual-time schedule
  // is acyclic (every dependency points to an earlier span), so in-order
  // processing cannot deadlock. On error the worker poisons every hand-off
  // it still owes so downstream stages fail instead of waiting forever.
  auto worker = [&](std::size_t p) {
    std::size_t done = 0;
    try {
      for (const Exec& e : assigned[p]) {
        const ScheduledService& s = schedule[e.sched];
        if (e.stage == kWhole) {
          results[s.id] = pcus_[p].serve(requests[s.id], simulate_values);
          done += 1;
          continue;
        }
        const StageService& span = s.stages[e.stage];
        StageHandoff in;
        const nn::Tensor* input = nullptr;
        const Rng::State* rng = nullptr;
        if (e.stage == 0) {
          input = &requests[s.id].input;
        } else {
          in = handoffs[e.sched][e.stage - 1].get();
          input = &in.activation;
          rng = &in.rng;
        }
        StageHandoff out = pcus_[p].serve_stage(
            s.model, span.op_begin, span.op_end, *input, rng,
            requests[s.id].seed, e.stage == 0 ? 0.0 : in.energy,
            simulate_values);
        if (e.stage > 0) out.work += in.work; // chain the work counters
        if (e.stage + 1 < s.stages.size()) {
          chains[e.sched][e.stage].set_value(std::move(out));
        } else {
          RequestResult& r = results[s.id];
          r.pcu_index = s.pcu;
          r.output = std::move(out.activation);
          r.service_time_serial = pcus_[s.pcu].request_time_serial(s.model);
          r.service_time_overlapped =
              pcus_[s.pcu].request_interval_overlapped(s.model);
          r.energy = out.energy;
          r.work = out.work;
        }
        done += 1;
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      for (std::size_t i = done; i < assigned[p].size(); ++i) {
        const Exec& e = assigned[p][i];
        if (e.stage != kWhole && e.stage + 1 < schedule[e.sched].stages.size())
          chains[e.sched][e.stage].set_exception(std::current_exception());
      }
    }
  };

  // A thread only for a PCU with work: a small batch on a large fleet
  // starts as many threads as PCUs it touches, not one per PCU.
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < pcus_.size(); ++p)
    if (!assigned[p].empty()) threads.emplace_back(worker, p);
  for (std::thread& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

} // namespace pcnna::runtime
