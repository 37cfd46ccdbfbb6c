// The request stream simulate_admission walks: FIFO commitment in vector
// order, arrival ordering validated on entry, virtual-time starts, plus
// priority-class names and per-request seed derivation.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/pcu_pool.hpp"
#include "runtime/request_queue.hpp"

namespace {

using namespace pcnna;
using runtime::AdmissionResult;
using runtime::derive_request_seed;
using runtime::InferenceRequest;
using runtime::PcuPool;

InferenceRequest make_request(std::uint64_t id, double arrival = 0.0) {
  InferenceRequest r;
  r.id = id;
  r.seed = derive_request_seed(7, id);
  r.arrival_time = arrival;
  return r;
}

/// A tiny_cnn pool the admission tests below dispatch onto.
struct Fleet {
  nn::Network net = nn::tiny_cnn();
  nn::NetWeights weights;
  PcuPool pool;

  explicit Fleet(std::size_t pcus)
      : weights(make_weights(net)),
        pool(pcus, core::PcnnaConfig::paper_defaults(),
             core::TimingFidelity::kFull, net, weights) {}

  static nn::NetWeights make_weights(const nn::Network& net) {
    Rng rng(5);
    return nn::make_network_weights(net, rng);
  }
};

TEST(SimulateAdmission, CommitsFifoInVectorOrder) {
  Fleet f(1);
  std::vector<InferenceRequest> requests;
  for (std::uint64_t id = 0; id < 5; ++id) requests.push_back(make_request(id));
  const AdmissionResult r = f.pool.simulate_admission(requests, {});
  ASSERT_EQ(5u, r.schedule.size());
  for (std::uint64_t id = 0; id < 5; ++id) EXPECT_EQ(id, r.schedule[id].id);
  // One PCU, everything at t = 0: each request starts when the previous
  // one completes.
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_EQ(r.schedule[i - 1].completion, r.schedule[i].start);
}

TEST(SimulateAdmission, AdmitsEveryRequestExactlyOnce) {
  Fleet f(3);
  std::vector<InferenceRequest> requests;
  for (std::uint64_t id = 0; id < 40; ++id)
    requests.push_back(make_request(id, static_cast<double>(id / 4) * 1e-6));
  const AdmissionResult r = f.pool.simulate_admission(requests, {});
  std::set<std::uint64_t> ids;
  for (const runtime::ScheduledService& s : r.schedule) ids.insert(s.id);
  EXPECT_EQ(40u, r.schedule.size());
  EXPECT_EQ(40u, ids.size());
}

TEST(SimulateAdmission, NoRequestStartsBeforeItsArrival) {
  Fleet f(1);
  const double interval = f.pool.pcu(0).request_interval_overlapped();
  const double warmup = f.pool.pcu(0).warmup_time();
  // Request 1 arrives exactly when request 0 completes (boundary
  // inclusive: it starts back to back, without warmup); request 2 arrives
  // long after the PCU went idle.
  const std::vector<InferenceRequest> requests = {
      make_request(0, 0.0), make_request(1, interval + warmup),
      make_request(2, 10.0 * (interval + warmup))};
  const AdmissionResult r = f.pool.simulate_admission(requests, {});
  ASSERT_EQ(3u, r.schedule.size());
  EXPECT_EQ(0.0, r.schedule[0].start);
  EXPECT_EQ(r.schedule[0].completion, r.schedule[1].start);
  EXPECT_EQ(0.0, r.schedule[1].warmup);
  EXPECT_EQ(requests[2].arrival_time, r.schedule[2].start);
  for (const runtime::ScheduledService& s : r.schedule)
    EXPECT_LE(s.arrival, s.start);
}

TEST(SimulateAdmission, RejectsOutOfOrderArrivals) {
  // The loop peeks the next vector element as the earliest pending
  // arrival, so an unsorted trace must be rejected on entry — not silently
  // corrupt admission.
  Fleet f(1);
  EXPECT_THROW(f.pool.simulate_admission(
                   {make_request(0, 2e-3), make_request(1, 1e-3)}, {}),
               Error);
  // Equal timestamps are fine (nondecreasing, not strictly increasing).
  EXPECT_NO_THROW(f.pool.simulate_admission(
      {make_request(0, 2e-3), make_request(1, 2e-3)}, {}));
}

TEST(SimulateAdmission, ShuffledTraceIsRejectedNotReordered) {
  // Regression: replaying a shuffled trace used to slip through and feed
  // the admission loop out-of-order timestamps.
  Fleet f(2);
  const std::vector<double> shuffled = {0.0, 3e-3, 1e-3, 2e-3};
  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < shuffled.size(); ++id)
    requests.push_back(make_request(id, shuffled[id]));
  try {
    f.pool.simulate_admission(requests, {});
    ADD_FAILURE() << "a shuffled trace must be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(std::string::npos, what.find("out-of-order"));
    EXPECT_NE(std::string::npos, what.find("request 2"))
        << "the error names the first offending index";
  }
}

TEST(SimulateAdmission, RejectsInvalidTimestampsAndModelsByIndex) {
  // The one boundary check: every timestamp finite and nonnegative, every
  // model registered — each error names the offending request index.
  Fleet f(2);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, nan, -1e-3}) {
    SCOPED_TRACE(bad);
    try {
      f.pool.simulate_admission({make_request(0, 0.0), make_request(9, bad)},
                                {});
      ADD_FAILURE() << "an invalid timestamp must be rejected";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(std::string::npos, what.find("request 1 ")) << what;
    }
  }
  std::vector<InferenceRequest> unknown = {make_request(0), make_request(1)};
  unknown[1].model_id = 1;
  try {
    f.pool.simulate_admission(unknown, {});
    ADD_FAILURE() << "an unregistered model must be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(std::string::npos, what.find("targets model 1")) << what;
  }
}

TEST(PriorityClass, NamesAreExhaustive) {
  using runtime::PriorityClass;
  EXPECT_STREQ("interactive",
               runtime::priority_class_name(PriorityClass::kInteractive));
  EXPECT_STREQ("standard",
               runtime::priority_class_name(PriorityClass::kStandard));
  EXPECT_STREQ("best-effort",
               runtime::priority_class_name(PriorityClass::kBestEffort));
  EXPECT_THROW(runtime::priority_class_name(static_cast<PriorityClass>(99)),
               Error);
}

TEST(RequestSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(derive_request_seed(42, 0), derive_request_seed(42, 0));
  // Adjacent ids and adjacent base seeds map to distinct streams.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t id = 0; id < 100; ++id)
    seeds.insert(derive_request_seed(42, id));
  EXPECT_EQ(100u, seeds.size());
  EXPECT_NE(derive_request_seed(42, 5), derive_request_seed(43, 5));
}

} // namespace
