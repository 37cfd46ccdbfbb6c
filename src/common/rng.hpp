// Deterministic, seedable random number generation.
//
// All stochastic parts of the simulator (synthetic weight and input
// generation, fabrication variation, stuck heaters, the engine's per-sweep
// noise keys) draw from this generator so that every experiment is
// reproducible from a single seed. A chip's set-up draws come from a
// generator seeded with the chip's config seed and restarted at each
// programming call; a request's noise keys come from a generator reseeded
// per offloaded op from the request seed. No generator state is ever
// handed from one engine, PCU or pipeline stage to another.
#pragma once

#include <cstdint>
#include <limits>

namespace pcnna {

/// xoshiro256** by Blackman & Vigna — fast, high-quality, and deterministic
/// across platforms (unlike std::normal_distribution, whose output is
/// implementation-defined). Seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initialize the full state from a 64-bit seed.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (deterministic across platforms).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

 private:
  std::uint64_t state_[4]{};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

} // namespace pcnna
