// Text-table and CSV report writers used by the bench harness, plus the
// sample-distribution summary the serving runtime reports latency through.
//
// Every bench binary prints the rows of the paper table/figure it reproduces
// through TextTable (aligned, human-readable) and can mirror them to a CSV
// file for plotting. Open-loop serving reports (tail latency, queue wait)
// summarize their per-request samples with DistributionSummary.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace pcnna {

/// Column-aligned ASCII table. Populate with add_row(), render with print().
class TextTable {
 public:
  /// Create a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Append a horizontal separator row.
  void add_separator();

  std::size_t row_count() const { return rows_.size(); }

  /// Render with column alignment, a header rule, and optional title.
  void print(std::ostream& os, std::string_view title = {}) const;

  /// Render to a string (convenience for tests).
  std::string to_string(std::string_view title = {}) const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };
  std::vector<std::string> headers_;
  std::vector<Row> rows_;
};

/// Order statistics of a sample set (units follow the samples; the serving
/// runtime feeds simulated seconds). Zero-initialized for an empty set.
struct DistributionSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Linearly interpolated quantile of an already-sorted (ascending) sample
/// set at rank q in [0, 1]: index q * (n - 1), fractional indices blend the
/// two neighbors. Deterministic; requires a nonempty sorted input.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Sort a copy of `samples` and fill every DistributionSummary field.
/// An empty input yields the zero summary. The sort is a radix sort over
/// the samples' bits: for samples without NaN and without both -0.0 and
/// +0.0 it orders them exactly as std::sort does, so every field (the mean
/// is summed in sorted order) carries the same bits.
DistributionSummary summarize_distribution(std::vector<double> samples);

/// Minimal CSV writer (RFC-4180 quoting). One instance per output file.
class CsvWriter {
 public:
  /// Open `path` for writing and emit the header row. Throws on I/O failure.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Write one data row; must match the header width.
  void write_row(const std::vector<std::string>& cells);

  std::size_t rows_written() const { return rows_written_; }

 private:
  struct Impl;
  Impl* impl_;
  std::size_t columns_;
  std::size_t rows_written_ = 0;
};

} // namespace pcnna
