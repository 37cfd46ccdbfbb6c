// Small numeric helpers shared across the photonic and electronic models.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/error.hpp"

namespace pcnna {

/// Convert a linear power ratio to decibels.
inline double to_db(double linear) {
  PCNNA_DCHECK(linear > 0.0);
  return 10.0 * std::log10(linear);
}

/// Convert decibels to a linear power ratio.
inline double from_db(double db) { return std::pow(10.0, db / 10.0); }

/// Convert absolute power [W] to dBm.
inline double watts_to_dbm(double watts) {
  PCNNA_DCHECK(watts > 0.0);
  return 10.0 * std::log10(watts / 1e-3);
}

/// Convert dBm to absolute power [W].
inline double dbm_to_watts(double dbm) { return 1e-3 * std::pow(10.0, dbm / 10.0); }

/// Clamp helper mirroring std::clamp but tolerant of lo == hi.
inline double clamp(double v, double lo, double hi) {
  PCNNA_DCHECK(lo <= hi);
  return std::min(std::max(v, lo), hi);
}

/// std::round (half away from zero) without a libm call on the range the
/// converters use. For y in [0, 2^52) the truncation t is exact, y - t is
/// the exact fraction and t + 1 is exact, so the result is bit-identical to
/// std::round(y), -0.0 included (copysign). Larger values and NaN fall back
/// to std::round. The rounding itself is branchless: a data-dependent
/// branch on the fraction costs a misprediction per converted sample.
inline double round_half_away(double y) {
  if (!(y >= 0.0 && y < 0x1p52)) [[unlikely]]
    return std::round(y);
  const double t = static_cast<double>(static_cast<std::int64_t>(y));
  return std::copysign(t + static_cast<double>(y - t >= 0.5), y);
}

/// Linear interpolation.
inline double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// |a - b| / max(|a|, |b|, eps): symmetric relative error, safe near zero.
inline double relative_error(double a, double b, double eps = 1e-12) {
  const double scale = std::max({std::abs(a), std::abs(b), eps});
  return std::abs(a - b) / scale;
}

/// True when a and b agree within the given absolute OR relative tolerance.
inline bool approx_equal(double a, double b, double rel_tol = 1e-9,
                         double abs_tol = 1e-12) {
  return std::abs(a - b) <= std::max(abs_tol, rel_tol * std::max(std::abs(a), std::abs(b)));
}

/// Arithmetic mean of a span; 0 for an empty span.
inline double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

/// Population standard deviation of a span; 0 for fewer than two elements.
inline double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

/// Root-mean-square error between two equally sized spans.
inline double rmse(std::span<const double> a, std::span<const double> b) {
  PCNNA_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

/// Ceiling division for nonnegative integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

} // namespace pcnna
