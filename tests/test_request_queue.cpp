// RequestQueue: FIFO order, shutdown semantics, thread-safe draining, the
// virtual-time interface, and per-request seed derivation.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "runtime/request_queue.hpp"

namespace {

using namespace pcnna;
using runtime::derive_request_seed;
using runtime::InferenceRequest;
using runtime::RequestQueue;

constexpr double kForever = std::numeric_limits<double>::infinity();

InferenceRequest make_request(std::uint64_t id) {
  InferenceRequest r;
  r.id = id;
  r.seed = derive_request_seed(7, id);
  return r;
}

TEST(RequestQueue, PopsInFifoOrder) {
  RequestQueue q;
  for (std::uint64_t id = 0; id < 5; ++id) q.push(make_request(id));
  EXPECT_EQ(5u, q.size());

  InferenceRequest out;
  for (std::uint64_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(q.pop_arrived(kForever, out));
    EXPECT_EQ(id, out.id);
  }
  EXPECT_EQ(0u, q.size());
}

TEST(RequestQueue, CloseDrainsThenExhausts) {
  RequestQueue q;
  q.push(make_request(0));
  q.push(make_request(1));
  q.close();
  EXPECT_TRUE(q.closed());

  InferenceRequest out;
  EXPECT_TRUE(q.pop_arrived(kForever, out));
  EXPECT_TRUE(q.pop_arrived(kForever, out));
  EXPECT_FALSE(q.pop_arrived(kForever, out))
      << "closed and empty must report exhaustion";
}

TEST(RequestQueue, PushAfterCloseThrows) {
  RequestQueue q;
  q.close();
  EXPECT_THROW(q.push(make_request(0)), Error);
}

// Every member takes the internal mutex: consumers on several threads
// split the stream between them without losing or duplicating a request.
TEST(RequestQueue, ConcurrentConsumersPartitionTheStream) {
  constexpr std::uint64_t kRequests = 200;
  constexpr int kConsumers = 4;

  RequestQueue q;
  for (std::uint64_t id = 0; id < kRequests; ++id) q.push(make_request(id));
  q.close();

  std::vector<std::vector<std::uint64_t>> seen(kConsumers);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      InferenceRequest out;
      while (q.pop_arrived(kForever, out)) seen[c].push_back(out.id);
    });
  }
  for (std::thread& t : threads) t.join();

  // Every id consumed exactly once across all consumers.
  std::set<std::uint64_t> all;
  std::size_t total = 0;
  for (const auto& ids : seen) {
    total += ids.size();
    all.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(kRequests, total);
  EXPECT_EQ(kRequests, all.size());
}

TEST(RequestQueue, PopArrivedHonorsVirtualTime) {
  RequestQueue q;
  for (std::uint64_t id = 0; id < 3; ++id) {
    InferenceRequest r = make_request(id);
    r.arrival_time = static_cast<double>(id) * 1e-3; // 0, 1 ms, 2 ms
    q.push(std::move(r));
  }
  q.close();

  InferenceRequest out;
  double when = -1.0;
  ASSERT_TRUE(q.next_arrival(when));
  EXPECT_EQ(0.0, when);

  // At t = 1 ms exactly two requests have arrived (boundary inclusive).
  EXPECT_TRUE(q.pop_arrived(1e-3, out));
  EXPECT_EQ(0u, out.id);
  EXPECT_TRUE(q.pop_arrived(1e-3, out));
  EXPECT_EQ(1u, out.id);
  EXPECT_FALSE(q.pop_arrived(1e-3, out))
      << "request 2 is still in the virtual future at t = 1 ms";

  ASSERT_TRUE(q.next_arrival(when));
  EXPECT_EQ(2e-3, when);
  EXPECT_TRUE(q.pop_arrived(5e-3, out));
  EXPECT_EQ(2u, out.id);
  EXPECT_FALSE(q.next_arrival(when)) << "drained queue has no next arrival";
  EXPECT_FALSE(q.pop_arrived(1.0, out));
}

TEST(RequestQueue, RejectsOutOfOrderArrivals) {
  // The virtual-time interface peeks the FIFO front as the earliest
  // pending arrival, so an unsorted trace must be rejected at push() —
  // not silently corrupt admission.
  RequestQueue q;
  InferenceRequest r = make_request(0);
  r.arrival_time = 2e-3;
  q.push(std::move(r));

  InferenceRequest late = make_request(1);
  late.arrival_time = 1e-3; // earlier than the request already pushed
  EXPECT_THROW(q.push(std::move(late)), Error);

  // Equal timestamps are fine (nondecreasing, not strictly increasing).
  InferenceRequest tie = make_request(2);
  tie.arrival_time = 2e-3;
  EXPECT_NO_THROW(q.push(std::move(tie)));
}

TEST(RequestQueue, ShuffledTraceIsRejectedNotReordered) {
  // Regression: replaying a shuffled trace used to slip through and feed
  // the admission loop out-of-order timestamps.
  const std::vector<double> shuffled = {0.0, 3e-3, 1e-3, 2e-3};
  RequestQueue q;
  std::uint64_t id = 0;
  bool threw = false;
  try {
    for (double t : shuffled) {
      InferenceRequest r = make_request(id++);
      r.arrival_time = t;
      q.push(std::move(r));
    }
  } catch (const Error& e) {
    threw = true;
    EXPECT_NE(std::string::npos, std::string(e.what()).find("out-of-order"));
  }
  EXPECT_TRUE(threw);
  // The queue keeps only the prefix pushed before the violation.
  EXPECT_EQ(2u, q.size());
}

TEST(RequestQueue, OrderingPersistsAcrossPops) {
  // last-arrival tracking must survive the queue being drained: a push
  // that precedes an already-*popped* arrival is still out of order.
  RequestQueue q;
  InferenceRequest r = make_request(0);
  r.arrival_time = 5e-3;
  q.push(std::move(r));
  InferenceRequest out;
  ASSERT_TRUE(q.pop_arrived(kForever, out));

  InferenceRequest late = make_request(1);
  late.arrival_time = 1e-3;
  EXPECT_THROW(q.push(std::move(late)), Error);
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
