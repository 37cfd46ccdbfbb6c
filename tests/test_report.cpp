// Text table and CSV writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/report.hpp"
#include "common/rng.hpp"

namespace {

using pcnna::CsvWriter;
using pcnna::TextTable;

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"layer", "rings"});
  t.add_row({"conv1", "34848"});
  t.add_row({"conv4", "3456"});
  const std::string s = t.to_string("Fig 5");
  EXPECT_NE(std::string::npos, s.find("Fig 5"));
  EXPECT_NE(std::string::npos, s.find("conv1"));
  EXPECT_NE(std::string::npos, s.find("34848"));
  // Header separator exists.
  EXPECT_NE(std::string::npos, s.find("+--"));
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), pcnna::Error);
}

TEST(TextTable, SeparatorRows) {
  TextTable t({"a"});
  t.add_row({"x"});
  t.add_separator();
  t.add_row({"y"});
  const std::string s = t.to_string();
  // 4 rules: top, under header, separator, bottom.
  size_t rules = 0, pos = 0;
  while ((pos = s.find("+-", pos)) != std::string::npos) {
    ++rules;
    pos = s.find('\n', pos);
  }
  EXPECT_EQ(4u, rules);
}

TEST(TextTable, EmptyHeadersThrow) {
  EXPECT_THROW(TextTable({}), pcnna::Error);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/pcnna_test.csv";
  {
    CsvWriter csv(path, {"layer", "value"});
    csv.write_row({"conv1", "1.5"});
    csv.write_row({"with,comma", "with\"quote"});
    EXPECT_EQ(2u, csv.rows_written());
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(std::string::npos, content.find("layer,value"));
  EXPECT_NE(std::string::npos, content.find("conv1,1.5"));
  // RFC-4180 quoting for the awkward cells.
  EXPECT_NE(std::string::npos, content.find("\"with,comma\""));
  EXPECT_NE(std::string::npos, content.find("\"with\"\"quote\""));
  std::remove(path.c_str());
}

TEST(Csv, ColumnMismatchThrows) {
  const std::string path = ::testing::TempDir() + "/pcnna_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.write_row({"only"}), pcnna::Error);
  std::remove(path.c_str());
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), pcnna::Error);
}

TEST(DistributionSummary, QuantilesOfKnownSamples) {
  // 1..100 shuffled-ish (summarize sorts internally).
  std::vector<double> samples;
  for (int v = 100; v >= 1; --v) samples.push_back(static_cast<double>(v));
  const pcnna::DistributionSummary s =
      pcnna::summarize_distribution(samples);

  EXPECT_EQ(100u, s.count);
  EXPECT_DOUBLE_EQ(50.5, s.mean);
  EXPECT_DOUBLE_EQ(1.0, s.min);
  EXPECT_DOUBLE_EQ(100.0, s.max);
  // Linear interpolation at index q * (n - 1).
  EXPECT_DOUBLE_EQ(50.5, s.p50);   // index 49.5
  EXPECT_DOUBLE_EQ(90.1, s.p90);   // index 89.1
  EXPECT_DOUBLE_EQ(99.01, s.p99);  // index 98.01
  EXPECT_NEAR(99.901, s.p999, 1e-9);
}

TEST(DistributionSummary, EmptyAndSingleton) {
  const pcnna::DistributionSummary empty =
      pcnna::summarize_distribution({});
  EXPECT_EQ(0u, empty.count);
  EXPECT_EQ(0.0, empty.p999);

  const pcnna::DistributionSummary one =
      pcnna::summarize_distribution({3.5});
  EXPECT_EQ(1u, one.count);
  EXPECT_DOUBLE_EQ(3.5, one.min);
  EXPECT_DOUBLE_EQ(3.5, one.p50);
  EXPECT_DOUBLE_EQ(3.5, one.p999);
  EXPECT_DOUBLE_EQ(3.5, one.max);
}

/// The comparison-sort summary summarize_distribution computed before its
/// radix sort: the reference its every field must match bit for bit.
pcnna::DistributionSummary sorted_summary(std::vector<double> samples) {
  pcnna::DistributionSummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.min = samples.front();
  s.max = samples.back();
  s.p50 = pcnna::quantile_sorted(samples, 0.50);
  s.p90 = pcnna::quantile_sorted(samples, 0.90);
  s.p99 = pcnna::quantile_sorted(samples, 0.99);
  s.p999 = pcnna::quantile_sorted(samples, 0.999);
  return s;
}

void expect_same_bits(const pcnna::DistributionSummary& want,
                      const pcnna::DistributionSummary& got) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(bits(want.mean), bits(got.mean)) << want.mean << " " << got.mean;
  EXPECT_EQ(bits(want.min), bits(got.min)) << want.min << " " << got.min;
  EXPECT_EQ(bits(want.max), bits(got.max)) << want.max << " " << got.max;
  EXPECT_EQ(bits(want.p50), bits(got.p50)) << want.p50 << " " << got.p50;
  EXPECT_EQ(bits(want.p90), bits(got.p90)) << want.p90 << " " << got.p90;
  EXPECT_EQ(bits(want.p99), bits(got.p99)) << want.p99 << " " << got.p99;
  EXPECT_EQ(bits(want.p999), bits(got.p999)) << want.p999 << " " << got.p999;
}

TEST(DistributionSummary, RadixSummaryMatchesTheComparisonSortBitwise) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Each shape draws one sample; none yields NaN or -0.0, the two inputs
  // whose order the radix sort does not share with std::sort.
  struct Shape {
    const char* name;
    double (*draw)(pcnna::Rng&);
  };
  const Shape shapes[] = {
      {"latency-like", [](pcnna::Rng& r) { return 2e-5 + 1e-5 * r.uniform(); }},
      {"signed", [](pcnna::Rng& r) { return 1e3 * r.normal(); }},
      {"duplicates",
       [](pcnna::Rng& r) { return 0.25 * static_cast<double>(r.uniform_index(5)) - 0.5; }},
      {"all zeros", [](pcnna::Rng&) { return 0.0; }},
      {"wide exponents",
       [](pcnna::Rng& r) {
         const double mag = std::ldexp(1.0 + r.uniform(),
                                       static_cast<int>(r.uniform_index(600)) - 300);
         return r.uniform() < 0.5 ? -mag : mag;
       }},
      {"with infinities",
       [](pcnna::Rng& r) {
         const std::uint64_t k = r.uniform_index(10);
         return k == 0 ? kInf : k == 1 ? -kInf : r.normal();
       }},
      {"with +inf only",
       [](pcnna::Rng& r) { return r.uniform_index(4) == 0 ? kInf : r.uniform(); }},
  };
  pcnna::Rng rng(20);
  for (const Shape& shape : shapes) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{4}, std::size_t{5}, std::size_t{1000},
          std::size_t{50000}}) {
      SCOPED_TRACE(std::string(shape.name) + ", n = " + std::to_string(n));
      std::vector<double> samples(n);
      for (double& v : samples) v = shape.draw(rng);
      expect_same_bits(sorted_summary(samples),
                       pcnna::summarize_distribution(samples));
    }
  }
}

TEST(QuantileSorted, InterpolatesAndValidates) {
  const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(10.0, pcnna::quantile_sorted(sorted, 0.0));
  EXPECT_DOUBLE_EQ(40.0, pcnna::quantile_sorted(sorted, 1.0));
  EXPECT_DOUBLE_EQ(25.0, pcnna::quantile_sorted(sorted, 0.5));
  EXPECT_THROW(pcnna::quantile_sorted({}, 0.5), pcnna::Error);
  EXPECT_THROW(pcnna::quantile_sorted(sorted, 1.5), pcnna::Error);
}

} // namespace
