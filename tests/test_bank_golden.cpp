// Golden weight-bank and engine bits.
//
// The engine A/B tests compare OpticalConvEngine with ReferenceConvEngine,
// but both program the same WeightBank, so a change to the bank's own
// arithmetic would pass them silently. These FNV-1a digests pin the bank
// directly (achieved weights, channel splits, every ring's heater shift and
// the total heater power) and noisy LeNet-5 forward passes that go
// through every bank-programming path of the engine. Any change to how a
// bank is calibrated or probed must reproduce them bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "photonics/weight_bank.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using phot::WeightBank;
using phot::WeightBankConfig;

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}

/// Achieved weights, channel splits, ring shifts and heater power.
std::uint64_t bank_digest(std::uint64_t h, const WeightBank& bank,
                          std::span<const double> achieved) {
  for (const double w : achieved) h = fnv1a(h, w);
  for (const WeightBank::ChannelSplit& s : bank.channel_splits()) {
    h = fnv1a(h, s.drop);
    h = fnv1a(h, s.thru);
  }
  for (std::size_t i = 0; i < bank.channels(); ++i)
    h = fnv1a(h, bank.ring(i).thermal_shift());
  return fnv1a(h, bank.total_heater_power());
}

std::vector<double> random_targets(std::size_t width, Rng& rng) {
  std::vector<double> w(width);
  for (double& v : w) v = rng.uniform(-1.0, 1.0);
  return w;
}

/// Build a bank of `width` rings, run `prepare` on it, calibrate it to
/// seeded random targets and digest the result.
std::uint64_t calibrated_digest(
    const WeightBankConfig& cfg, std::size_t width, std::uint64_t seed,
    const std::function<void(WeightBank&)>& prepare = {}) {
  Rng rng(seed);
  WeightBank bank(phot::WdmGrid(width), cfg, rng);
  if (prepare) prepare(bank);
  const std::vector<double> achieved =
      bank.calibrate(random_targets(width, rng));
  return bank_digest(kFnvBasis, bank, achieved);
}

TEST(BankGolden, CalibrationMatchesPinnedDigests) {
  WeightBankConfig no_refine;
  no_refine.calibration_iterations = 0;
  WeightBankConfig disordered;
  disordered.ring.fab_sigma = 0.05 * units::nm;
  const WeightBankConfig ideal = PcnnaConfig::ideal().bank;

  struct Case {
    const char* name;
    WeightBankConfig cfg;
    std::size_t width;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"default, 1 ring", WeightBankConfig{}, 1, 0x9B7F6277DE65E093ull},
      {"default, 25 rings", WeightBankConfig{}, 25, 0x731BCE73B1C359F6ull},
      {"default, 80 rings", WeightBankConfig{}, 80, 0x841A403533D523ECull},
      {"default, 96 rings", WeightBankConfig{}, 96, 0xD603A5AE5694A57Cull},
      {"ideal, 25 rings", ideal, 25, 0x7C363569E13E92A2ull},
      {"ideal, 96 rings", ideal, 96, 0x925E32214CEE9CE0ull},
      {"no refinement, 25 rings", no_refine, 25, 0x77F604C5CD211DF6ull},
      {"fab disorder, 25 rings", disordered, 25, 0x83FE6B6C52E8BA03ull},
      {"fab disorder, 96 rings", disordered, 96, 0x0C7C4812E7D49C43ull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.digest, calibrated_digest(c.cfg, c.width, 11));
  }
}

TEST(BankGolden, StuckRingsMatchPinnedDigest) {
  // Rings frozen at their parked drive before the first calibration; the
  // refinement works around them.
  WeightBankConfig disordered;
  disordered.ring.fab_sigma = 0.05 * units::nm;
  const auto fail_three = [](WeightBank& bank) {
    bank.fail_ring(0);
    bank.fail_ring(7);
    bank.fail_ring(24);
  };
  EXPECT_EQ(0xD1E9E7D9DE10EF04ull,
            calibrated_digest(WeightBankConfig{}, 25, 12, fail_three));
  EXPECT_EQ(0xC512A71196CA88BDull,
            calibrated_digest(disordered, 25, 12, fail_three));
}

TEST(BankGolden, RecalibrationMatchesPinnedDigest) {
  // One bank retuned three times, with a ring failing between the second
  // and third calibration: the state carried across calibrations counts.
  Rng rng(13);
  WeightBank bank(phot::WdmGrid(80), WeightBankConfig{}, rng);
  std::uint64_t h = kFnvBasis;
  for (int pass = 0; pass < 3; ++pass) {
    if (pass == 2) bank.fail_ring(40);
    const std::vector<double> achieved =
        bank.calibrate(random_targets(bank.channels(), rng));
    h = bank_digest(h, bank, achieved);
  }
  EXPECT_EQ(0xC064218E1C781D8Cull, h);
}

TEST(BankGolden, UsableRangeMatchesPinnedDigest) {
  WeightBankConfig disordered;
  disordered.ring.fab_sigma = 0.05 * units::nm;
  const struct {
    const char* name;
    WeightBankConfig cfg;
    std::size_t width;
    std::uint64_t digest;
  } cases[] = {
      {"default, 96 rings", WeightBankConfig{}, 96, 0x5D5B4DC700881448ull},
      {"ideal, 96 rings", PcnnaConfig::ideal().bank, 96, 0x2FCD96755B7673C7ull},
      {"fab disorder, 25 rings", disordered, 25, 0x1DF8C833A991895Full},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(14);
    WeightBank bank(phot::WdmGrid(c.width), c.cfg, rng);
    const double range = core::measured_usable_range(bank);
    EXPECT_EQ(c.digest,
              bank_digest(fnv1a(kFnvBasis, range), bank, {}));
  }
}

/// Output bits plus every offloaded layer's calibration and heater totals.
std::uint64_t run_digest(const core::NetworkRunReport& r) {
  std::uint64_t h = kFnvBasis;
  for (const double v : r.output.data()) h = fnv1a(h, v);
  for (const auto* layers : {&r.conv_layers, &r.fc_layers}) {
    for (const core::LayerRunReport& l : *layers) {
      h = fnv1a(h, l.engine.banks_built);
      h = fnv1a(h, l.engine.stuck_rings);
      h = fnv1a(h, l.engine.mean_calibration_error);
      h = fnv1a(h, l.engine.max_calibration_error);
      h = fnv1a(h, l.engine.total_heater_power);
    }
  }
  return h;
}

// Recorded with the keyed per-pixel ziggurat noise (common/normal_stream.hpp).
// The digests cover noisy output bits, so they change whenever the engine's
// noise stream does; the bank digests above do not.
TEST(EngineGolden, NoisyLenet5MatchesPinnedDigests) {
  Rng rng(15);
  const nn::Network net = nn::lenet5();
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  const nn::Tensor input = nn::make_network_input(net, rng);

  PcnnaConfig fc = PcnnaConfig::paper_defaults();
  fc.accelerate_fc = true;
  PcnnaConfig faulty = PcnnaConfig::paper_defaults();
  faulty.stuck_ring_rate = 0.02;
  const struct {
    const char* name;
    PcnnaConfig cfg;
    std::size_t fc_layers;
    std::uint64_t digest;
  } cases[] = {
      {"paper_defaults, full-kernel", PcnnaConfig::paper_defaults(), 0,
       0xA2D384FB1838668Eull},
      {"small_core, per-channel", PcnnaConfig::small_core(), 0,
       0xF75E3E703F643DFAull},
      {"paper_defaults, fully_connected", fc, 2, 0xA905B810A88190B4ull},
      {"paper_defaults, stuck rings", faulty, 0, 0x1B1B0B0C21C57ADBull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.cfg.enable_noise);
    core::Accelerator acc(c.cfg);
    const core::NetworkRunReport r =
        acc.run(net, weights, input, /*simulate_values=*/true,
                /*compare_reference=*/false);
    ASSERT_EQ(3u, r.conv_layers.size());
    ASSERT_EQ(c.fc_layers, r.fc_layers.size());
    EXPECT_EQ(c.digest, run_digest(r));
  }
}

} // namespace
