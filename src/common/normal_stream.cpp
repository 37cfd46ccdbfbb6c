#include "common/normal_stream.hpp"

namespace pcnna {
namespace {

ZigguratTables build_ziggurat() {
  // Doornik's recursion: each layer has area V, so the next edge solves
  // x[i] * (f(x[i + 1]) - f(x[i])) = V.
  ZigguratTables t;
  constexpr std::size_t n = ZigguratTables::kLayers;
  double f = std::exp(-0.5 * ZigguratTables::kR * ZigguratTables::kR);
  t.x[0] = ZigguratTables::kV / f;
  t.x[1] = ZigguratTables::kR;
  t.x[n] = 0.0;
  for (std::size_t i = 2; i < n; ++i) {
    t.x[i] = std::sqrt(-2.0 * std::log(ZigguratTables::kV / t.x[i - 1] + f));
    f = std::exp(-0.5 * t.x[i] * t.x[i]);
  }
  for (std::size_t i = 0; i < n; ++i) t.ratio[i] = t.x[i + 1] / t.x[i];
  return t;
}

} // namespace

const ZigguratTables& ziggurat_tables() {
  static const ZigguratTables tables = build_ziggurat();
  return tables;
}

NormalStream::Slow NormalStream::next_slow(std::uint64_t counter,
                                           std::size_t i, double u,
                                           const ZigguratTables& t) {
  const auto next_u64 = [&counter] {
    counter += kGamma;
    return mix64(counter);
  };
  // Uniform in [0, 1).
  const auto uniform = [&next_u64] {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  };
  for (;;) {
    if (i == 0) {
      // Tail beyond R (Marsaglia 1964): x = -ln(U1) / R, accepted when
      // -2 ln(U2) > x^2. The uniforms are taken in (0, 1] so log is finite.
      constexpr double R = ZigguratTables::kR;
      double x, y;
      do {
        x = std::log(1.0 - uniform()) / R;
        y = std::log(1.0 - uniform());
      } while (-2.0 * y < x * x);
      return {counter, u < 0.0 ? x - R : R - x};
    }
    // Wedge: accept x when a uniform height in [f(x[i]), f(x[i + 1])] falls
    // under f(x); both bounds are taken relative to f(x).
    const double x = u * t.x[i];
    const double f0 = std::exp(-0.5 * (t.x[i] * t.x[i] - x * x));
    const double f1 = std::exp(-0.5 * (t.x[i + 1] * t.x[i + 1] - x * x));
    if (f1 + uniform() * (f0 - f1) < 1.0) return {counter, x};

    const std::uint64_t w = next_u64();
    i = w & (ZigguratTables::kLayers - 1);
    u = static_cast<double>(w >> 11) * 0x1.0p-52 - 1.0;
    if (std::abs(u) < t.ratio[i]) return {counter, u * t.x[i]};
  }
}

} // namespace pcnna
