#include "common/report.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace pcnna {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  PCNNA_CHECK(!headers_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  PCNNA_CHECK_MSG(cells.size() == headers_.size(),
                  "row has " << cells.size() << " cells, expected "
                             << headers_.size());
  rows_.push_back(Row{std::move(cells), /*separator=*/false});
}

void TextTable::add_separator() { rows_.push_back(Row{{}, /*separator=*/true}); }

void TextTable::print(std::ostream& os, std::string_view title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const Row& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c)
      widths[c] = std::max(widths[c], row.cells[c].size());
  }

  const auto rule = [&] {
    os << '+';
    for (std::size_t w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  const auto emit = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c];
      for (std::size_t i = cells[c].size(); i < widths[c] + 1; ++i) os << ' ';
      os << '|';
    }
    os << '\n';
  };

  if (!title.empty()) os << title << '\n';
  rule();
  emit(headers_);
  rule();
  for (const Row& row : rows_) {
    if (row.separator) {
      rule();
    } else {
      emit(row.cells);
    }
  }
  rule();
}

std::string TextTable::to_string(std::string_view title) const {
  std::ostringstream os;
  print(os, title);
  return os.str();
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  PCNNA_CHECK_MSG(!sorted.empty(), "quantile of an empty sample set");
  PCNNA_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile rank " << q
                                                         << " outside [0, 1]");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

namespace {

/// Order-preserving image of a double in the unsigned integers: flip every
/// bit of a negative value, set the sign bit of a non-negative one. Key
/// order is `<` order for every non-NaN value, except that -0.0 sorts
/// before +0.0.
std::uint64_t order_key(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return bits >> 63 ? ~bits : bits | (std::uint64_t{1} << 63);
}

double from_order_key(std::uint64_t key) {
  return std::bit_cast<double>(key >> 63 ? key & ~(std::uint64_t{1} << 63)
                                         : ~key);
}

/// Ascending sort by LSD radix over the order keys, one byte per pass. One
/// counting pass fills every byte's histogram; a pass whose byte every key
/// shares would move nothing and is skipped.
void radix_sort(std::vector<double>& samples) {
  constexpr std::size_t kDigits = 8;
  constexpr std::size_t kRadix = 256;
  const std::size_t n = samples.size();
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint64_t> spare(n);
  std::array<std::array<std::size_t, kRadix>, kDigits> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = order_key(samples[i]);
    keys[i] = k;
    for (std::size_t d = 0; d < kDigits; ++d) ++counts[d][(k >> (8 * d)) & 0xff];
  }
  for (std::size_t d = 0; d < kDigits; ++d) {
    const unsigned shift = static_cast<unsigned>(8 * d);
    std::array<std::size_t, kRadix>& slot = counts[d];
    if (slot[(keys[0] >> shift) & 0xff] == n) continue;
    std::size_t offset = 0;
    for (std::size_t& c : slot) {
      const std::size_t here = c;
      c = offset;
      offset += here;
    }
    for (const std::uint64_t k : keys) spare[slot[(k >> shift) & 0xff]++] = k;
    keys.swap(spare);
  }
  for (std::size_t i = 0; i < n; ++i) samples[i] = from_order_key(keys[i]);
}

} // namespace

DistributionSummary summarize_distribution(std::vector<double> samples) {
  DistributionSummary s;
  if (samples.empty()) return s;
  radix_sort(samples);
  s.count = samples.size();
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.min = samples.front();
  s.max = samples.back();
  s.p50 = quantile_sorted(samples, 0.50);
  s.p90 = quantile_sorted(samples, 0.90);
  s.p99 = quantile_sorted(samples, 0.99);
  s.p999 = quantile_sorted(samples, 0.999);
  return s;
}

struct CsvWriter::Impl {
  std::ofstream out;
};

namespace {
std::string csv_escape(const std::string& cell) {
  const bool needs_quote =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return cell;
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}
} // namespace

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : impl_(new Impl), columns_(header.size()) {
  PCNNA_CHECK(!header.empty());
  impl_->out.open(path);
  if (!impl_->out) {
    delete impl_;
    throw Error("CsvWriter: cannot open '" + path + "' for writing");
  }
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (c) impl_->out << ',';
    impl_->out << csv_escape(header[c]);
  }
  impl_->out << '\n';
}

CsvWriter::~CsvWriter() { delete impl_; }

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  PCNNA_CHECK(cells.size() == columns_);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) impl_->out << ',';
    impl_->out << csv_escape(cells[c]);
  }
  impl_->out << '\n';
  ++rows_written_;
}

} // namespace pcnna
