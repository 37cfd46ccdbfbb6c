// Counter-based standard normals: one independent stream per key.
//
// The engine's hot-loop noise (laser RIN, photodiode shot/thermal noise) is
// drawn per kernel location from a stream keyed by (request seed, sweep,
// pixel), so a pixel's draws never depend on which thread or tile runs it
// or on how many pixels came before. The 64-bit sequence of a stream is a
// SplitMix64 Weyl counter: value j is mix64(key + (j + 1) * kGamma), a pure
// function of (key, j). Standard normals come from it through an exact
// 128-layer Marsaglia–Tsang ziggurat (Marsaglia & Tsang 2000), with the
// layer index and the uniform taken from disjoint bits of one 64-bit word
// (Doornik 2005, "An Improved Ziggurat Method to Generate Normal Random
// Samples").
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace pcnna {

/// SplitMix64's output finalizer: a bijection of 64-bit words.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Tables of the 128-layer ziggurat for the standard normal density
/// f(x) = exp(-x^2 / 2). Layer i (i >= 1) is the rectangle
/// [0, x[i]] x [f(x[i]), f(x[i + 1])]; layer 0 is the base strip of width
/// x[0] = V / f(R) holding the rectangle under f(R) and the tail beyond R.
struct ZigguratTables {
  static constexpr std::size_t kLayers = 128;
  /// Right edge of the base strip's tail: x[1].
  static constexpr double kR = 3.442619855899;
  /// Area of every layer.
  static constexpr double kV = 9.91256303526217e-3;

  double x[kLayers + 1] = {}; ///< x[0] = V / f(R), x[1] = R, x[128] = 0
  double ratio[kLayers] = {}; ///< x[i + 1] / x[i]: the always-accept part
};

/// The ziggurat tables, built once on first use (a thread-safe
/// function-local static).
const ZigguratTables& ziggurat_tables();

/// One keyed stream of standard normals.
class NormalStream {
 public:
  /// The Weyl increment (the golden-ratio constant of SplitMix64).
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;

  /// Key of member `index` of a family of streams keyed by `family`: the
  /// engine keys pixel p of a sweep as element_key(sweep_key, p).
  static constexpr std::uint64_t element_key(std::uint64_t family,
                                             std::uint64_t index) {
    return mix64(family ^ mix64(index + 1));
  }

  explicit NormalStream(std::uint64_t key,
                        const ZigguratTables& tables = ziggurat_tables())
      : counter_(key), t_(&tables) {}

  /// Next 64-bit value of the stream.
  std::uint64_t next_u64() {
    counter_ += kGamma;
    return mix64(counter_);
  }

  /// Next standard normal. Bits 0-6 pick the layer and the top 53 bits give
  /// a uniform u in [-1, 1). A draw returns from the first test with
  /// probability sum(ratio) / 128 = 97.24 %; 2.76 % take next_slow.
  double next() {
    const std::uint64_t w = next_u64();
    const std::size_t i = w & (ZigguratTables::kLayers - 1);
    const double u = static_cast<double>(w >> 11) * 0x1.0p-52 - 1.0;
    if (std::abs(u) < t_->ratio[i]) return u * t_->x[i];
    const Slow s = next_slow(counter_, i, u, *t_);
    counter_ = s.counter;
    return s.z;
  }

 private:
  struct Slow {
    std::uint64_t counter; ///< the stream's counter after the draw
    double z;
  };
  /// The wedge and tail cases of next(), drawing again on a rejection. It
  /// takes the counter by value and returns it, so the stream's address
  /// never escapes and a caller's counter stays in a register.
  static Slow next_slow(std::uint64_t counter, std::size_t i, double u,
                        const ZigguratTables& t);

  std::uint64_t counter_;
  const ZigguratTables* t_;
};

} // namespace pcnna
