// Open-loop arrival generators: seeded Poisson statistics and determinism,
// trace-file round trips, schedule validation, and offered-rate accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "runtime/arrival.hpp"

namespace {

using namespace pcnna;
using runtime::ArrivalSchedule;
using runtime::closed_batch_arrivals;
using runtime::load_arrival_trace;
using runtime::offered_rate;
using runtime::parse_arrival_trace;
using runtime::poisson_arrivals;
using runtime::uniform_arrivals;
using runtime::validate_arrival_schedule;
using runtime::write_arrival_trace;

TEST(PoissonArrivals, DeterministicAcrossRuns) {
  const ArrivalSchedule a = poisson_arrivals(500, 1000.0, 42);
  const ArrivalSchedule b = poisson_arrivals(500, 1000.0, 42);
  EXPECT_EQ(a, b) << "same (count, rate, seed) must be bitwise reproducible";

  const ArrivalSchedule c = poisson_arrivals(500, 1000.0, 43);
  EXPECT_NE(a, c) << "a different seed must draw a different schedule";
}

TEST(PoissonArrivals, MeanInterArrivalMatchesRate) {
  constexpr std::size_t kCount = 20000;
  constexpr double kRate = 1000.0; // mean gap 1 ms
  const ArrivalSchedule a = poisson_arrivals(kCount, kRate, 7);

  ASSERT_EQ(kCount, a.size());
  validate_arrival_schedule(a); // nonnegative + nondecreasing
  const double mean_gap = a.back() / static_cast<double>(kCount);
  // Standard error of the mean gap is 1/(rate*sqrt(n)) ~ 0.7 %; 5 % is a
  // comfortable deterministic bound for this fixed seed.
  EXPECT_NEAR(1.0 / kRate, mean_gap, 0.05 / kRate);

  // Exponential gaps: about 1/e of them exceed the mean (burstiness that
  // uniform arrivals lack).
  std::size_t above = 0;
  double prev = 0.0;
  for (double t : a) {
    if (t - prev > 1.0 / kRate) ++above;
    prev = t;
  }
  const double frac = static_cast<double>(above) / kCount;
  EXPECT_NEAR(std::exp(-1.0), frac, 0.02);
}

TEST(PoissonArrivals, RejectsNonPositiveRate) {
  EXPECT_THROW(poisson_arrivals(10, 0.0, 1), Error);
  EXPECT_THROW(poisson_arrivals(10, -5.0, 1), Error);
}

TEST(UniformArrivals, EvenSpacingAtRate) {
  const ArrivalSchedule a = uniform_arrivals(5, 100.0);
  ASSERT_EQ(5u, a.size());
  EXPECT_DOUBLE_EQ(0.0, a[0]);
  EXPECT_DOUBLE_EQ(0.04, a[4]);
}

TEST(ClosedBatchArrivals, AllAtTimeZero) {
  const ArrivalSchedule a = closed_batch_arrivals(4);
  ASSERT_EQ(4u, a.size());
  for (double t : a) EXPECT_EQ(0.0, t);
  EXPECT_TRUE(std::isinf(offered_rate(a)))
      << "a closed batch offers infinite load";
}

TEST(ArrivalTrace, RoundTripsBitExactly) {
  const ArrivalSchedule original = poisson_arrivals(200, 12345.0, 9);
  std::stringstream io;
  write_arrival_trace(io, original);
  const ArrivalSchedule parsed = parse_arrival_trace(io);
  ASSERT_EQ(original.size(), parsed.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(original[i], parsed[i]) << "timestamp " << i << " drifted";
}

TEST(ArrivalTrace, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# a header comment\n"
      "\n"
      "0.001\n"
      "   \t \n"
      "  2.5e-3  \n"
      "# trailing comment\n"
      "0.004\r\n");
  const ArrivalSchedule a = parse_arrival_trace(in);
  ASSERT_EQ(3u, a.size());
  EXPECT_DOUBLE_EQ(0.001, a[0]);
  EXPECT_DOUBLE_EQ(0.0025, a[1]);
  EXPECT_DOUBLE_EQ(0.004, a[2]);
}

TEST(ArrivalTrace, RejectsMalformedAndInvalidSchedules) {
  std::istringstream junk("0.001\nnot-a-number\n");
  EXPECT_THROW(parse_arrival_trace(junk), Error);

  std::istringstream decreasing("0.002\n0.001\n");
  EXPECT_THROW(parse_arrival_trace(decreasing), Error);

  std::istringstream negative("-0.5\n");
  EXPECT_THROW(parse_arrival_trace(negative), Error);
}

TEST(ArrivalTrace, LoadsFromFile) {
  const std::string path = "pcnna_test_arrival_trace.txt";
  const ArrivalSchedule original = uniform_arrivals(16, 500.0);
  {
    std::ofstream out(path);
    write_arrival_trace(out, original);
  }
  const ArrivalSchedule loaded = load_arrival_trace(path);
  EXPECT_EQ(original, loaded);
  std::remove(path.c_str());

  EXPECT_THROW(load_arrival_trace("definitely/not/a/real/path.txt"), Error);
}

TEST(ValidateArrivalSchedule, RejectsNonFiniteTimestamps) {
  EXPECT_THROW(validate_arrival_schedule(ArrivalSchedule{0.0, std::nan("")}),
               Error);
  EXPECT_THROW(validate_arrival_schedule(
                   ArrivalSchedule{std::numeric_limits<double>::infinity()}),
               Error);
  validate_arrival_schedule({}); // empty is fine
  validate_arrival_schedule(ArrivalSchedule{0.0, 0.0, 1.0});
}

TEST(OfferedRate, CountOverLastArrival) {
  const ArrivalSchedule a = uniform_arrivals(100, 1000.0);
  // 100 arrivals, last at 99 ms -> 100/0.099 req/s.
  EXPECT_NEAR(100.0 / 0.099, offered_rate(a), 1e-6);
  EXPECT_TRUE(std::isinf(offered_rate({})));
}

} // namespace
