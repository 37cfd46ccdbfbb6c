// Differential test of the weight bank's drop-fraction cache against the
// direct ring model.
//
// WeightBank answers effective_weight(), channel_splits() and calibrate()
// from cached per-ring drop fractions that it refreshes only when a ring's
// applied heater shift changes; propagate() still evaluates every ring's
// Lorentzian. Random banks (1-96 rings, crosstalk on and off, 0-4
// refinement passes, with and without fabrication disorder, coarse and fine
// heater DACs) go through random sequences of calibrations, ring failures
// and repairs. After every step each channel's cached answers must be
// bitwise equal to propagate() on a unit probe of that channel.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "photonics/weight_bank.hpp"

namespace {

using namespace pcnna;
using phot::WdmSignal;
using phot::WeightBank;
using phot::WeightBankConfig;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// First channel whose cached response differs from propagate(), as a
/// message; empty when every channel matches bit for bit. `achieved` is the
/// last calibrate() result (empty when the step did not calibrate).
std::string cache_mismatch(const WeightBank& bank,
                           const std::vector<double>& achieved) {
  const std::size_t n = bank.channels();
  const std::vector<WeightBank::ChannelSplit> splits = bank.channel_splits();
  const std::vector<double> weights = bank.effective_weights();
  WdmSignal probe(n);
  for (std::size_t c = 0; c < n; ++c) {
    probe[c] = 1.0;
    double drop = 0.0, thru = 0.0;
    bank.propagate(probe, drop, thru);
    probe[c] = 0.0;
    const double w = drop - thru;
    std::ostringstream os;
    if (!same_bits(splits[c].drop, drop) || !same_bits(splits[c].thru, thru))
      os << "channel_splits()";
    else if (!same_bits(bank.effective_weight(c), w))
      os << "effective_weight()";
    else if (!same_bits(weights[c], w))
      os << "effective_weights()";
    else if (!achieved.empty() && !same_bits(achieved[c], w))
      os << "calibrate()";
    if (!os.str().empty()) {
      os << " differs from propagate() at channel " << c << " of " << n;
      return os.str();
    }
  }
  return {};
}

WeightBankConfig random_config(Rng& rng) {
  WeightBankConfig cfg;
  cfg.model_crosstalk = rng.uniform() < 0.5;
  cfg.calibration_iterations = static_cast<int>(rng.uniform_index(5));
  if (rng.uniform() < 0.5) cfg.ring.fab_sigma = 0.05 * units::nm;
  // Coarse heater DACs leave many refinement updates without effect, so
  // the skipped-refresh path is exercised as much as the refresh path.
  const int bits[] = {4, 8, 12, 44};
  cfg.ring.tuning_bits = bits[rng.uniform_index(4)];
  if (rng.uniform() < 0.25) cfg.ring.q_factor = 2.0e6;
  return cfg;
}

TEST(WeightBankCache, MatchesPropagateOnRandomBanks) {
  Rng rng(20261017);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(96);
    const WeightBankConfig cfg = random_config(rng);
    WeightBank bank(phot::WdmGrid(n), cfg, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + std::to_string(n) +
                 " rings, crosstalk " + std::to_string(cfg.model_crosstalk) +
                 ", " + std::to_string(cfg.calibration_iterations) +
                 " passes, " + std::to_string(cfg.ring.tuning_bits) +
                 " heater bits");
    ASSERT_EQ("", cache_mismatch(bank, {})) << "fresh bank";
    const std::size_t steps = 1 + rng.uniform_index(5);
    for (std::size_t step = 0; step < steps; ++step) {
      std::vector<double> achieved;
      const double op = rng.uniform();
      if (op < 0.25) {
        // Fail or repair a ring; the next calibration works around it.
        bank.fail_ring(rng.uniform_index(n), rng.uniform() < 0.75);
      } else {
        // Recalibrating to the same targets moves few heaters.
        const std::span<const double> same = bank.target_weights();
        std::vector<double> w(same.begin(), same.end());
        if (op >= 0.4) {
          for (double& v : w) v = rng.uniform(-1.0, 1.0);
        }
        achieved = bank.calibrate(w);
      }
      ASSERT_EQ("", cache_mismatch(bank, achieved)) << "after step " << step;
    }
  }
}

TEST(WeightBankCache, SplitBufferOverloadMatchesWeights) {
  // calibrate(weights, splits) writes channel_splits(); its drop - thru
  // is the achieved weight calibrate(weights) returns.
  Rng rng(7);
  WeightBank a(phot::WdmGrid(40), WeightBankConfig{}, rng);
  Rng rng_b(7);
  WeightBank b(phot::WdmGrid(40), WeightBankConfig{}, rng_b);
  std::vector<double> w(40);
  for (double& v : w) v = rng.uniform(-1.0, 1.0);
  std::vector<WeightBank::ChannelSplit> splits(40);
  a.calibrate(w, splits);
  const std::vector<double> achieved = b.calibrate(w);
  const std::vector<WeightBank::ChannelSplit> expected = a.channel_splits();
  for (std::size_t c = 0; c < 40; ++c) {
    EXPECT_TRUE(same_bits(expected[c].drop, splits[c].drop)) << c;
    EXPECT_TRUE(same_bits(expected[c].thru, splits[c].thru)) << c;
    EXPECT_TRUE(same_bits(achieved[c], splits[c].drop - splits[c].thru)) << c;
  }
  std::vector<WeightBank::ChannelSplit> short_buffer(39);
  EXPECT_THROW(a.calibrate(w, short_buffer), Error);
}

} // namespace
