// Microring weight bank — the photonic MAC unit.
//
// One bank implements the dot product between the broadcast WDM input bundle
// and one kernel's weight vector (paper SS III / Fig. 1): every channel's
// power is split between a drop bus and the surviving through bus by its
// ring, and a balanced photodiode computes
//   I = R * (P_drop_total - P_through_total)
//     = R * sum_i P_i * w_i,      w_i in [-1, +1].
//
// Programming a weight means thermally detuning the ring so the Lorentzian
// drop fraction hits d_i = (w_i + t) / (1 + t) (t = through-path loss
// factor); calibrate() inverts the Lorentzian, applies the quantized heater
// drive, and optionally iterates to cancel inter-channel crosstalk.
//
// The bank caches every ring's drop fraction at every channel wavelength
// (channels() x channels() doubles with crosstalk modeling — 72 KiB at 96
// rings — and channels() without), refreshing a ring's entries only when
// its applied heater shift actually changes. A probe of one channel —
// effective_weight, the crosstalk-cancel passes, channel_splits — is then
// one pass over cached values instead of channels() Lorentzians. With
// crosstalk, one calibrate evaluates at most (1 + calibration_iterations) *
// channels()^2 Lorentzians (fewer when heater quantization or stuck rings
// leave shifts unmoved) and reads (calibration_iterations + 1) *
// channels()^2 cached values. propagate() and detect() still evaluate the
// rings directly: they serve arbitrary input bundles and are the reference
// the cache is tested against.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "photonics/microring.hpp"
#include "photonics/optical_signal.hpp"
#include "photonics/photodiode.hpp"
#include "photonics/wdm.hpp"

namespace pcnna::phot {

struct WeightBankConfig {
  MicroringConfig ring;           ///< per-ring template (resonance set per channel)
  PhotodiodeConfig photodiode;
  bool model_crosstalk = true;    ///< rings also act on neighboring channels
  int calibration_iterations = 4; ///< fixed-point crosstalk-cancel passes

  friend bool operator==(const WeightBankConfig&,
                         const WeightBankConfig&) = default;
};

class WeightBank {
 public:
  /// Drop-bus and through-bus power fractions of one channel.
  struct ChannelSplit {
    double drop = 0.0;
    double thru = 0.0;
  };

  /// Build one ring per grid channel. `rng` drives fabrication disorder.
  WeightBank(const WdmGrid& grid, WeightBankConfig config, Rng& rng);

  std::size_t channels() const { return rings_.size(); }
  const WeightBankConfig& config() const { return config_; }
  const MicroringResonator& ring(std::size_t i) const { return rings_.at(i); }

  /// Largest weight the bank can represent (< 1 for max_drop < 1).
  double max_weight() const;
  /// Most negative weight the bank can represent (> -1 for finite detuning).
  double min_weight() const;

  /// Program the bank. `weights` must have one entry per channel, each in
  /// [min_weight(), max_weight()] — out-of-range targets are clamped.
  /// Writes the calibrated bank's channel_splits() into `splits` (one entry
  /// per channel); the achieved weight of channel i (measured through the
  /// physical model, including tuning quantization and residual crosstalk)
  /// is splits[i].drop - splits[i].thru, bitwise equal to
  /// effective_weight(i).
  void calibrate(std::span<const double> weights,
                 std::span<ChannelSplit> splits);

  /// calibrate() returning the achieved effective weights.
  std::vector<double> calibrate(std::span<const double> weights);

  /// Weight targets from the last calibrate() call (after clamping).
  std::span<const double> target_weights() const { return targets_; }

  /// Measured effective weight of channel `ch` (unit-power probe).
  double effective_weight(std::size_t ch) const;

  /// Measured effective weights of all channels.
  std::vector<double> effective_weights() const;

  /// Per-channel linear response (read off the drop-fraction cache):
  /// fraction of a channel's input power that reaches the drop bus and the
  /// through bus (crosstalk included), bitwise equal to propagate() on a
  /// unit probe of that channel. The bank is linear in the input powers, so
  ///   P_drop  = sum_i in[i] * split[i].drop,
  ///   P_thru  = sum_i in[i] * split[i].thru.
  std::vector<ChannelSplit> channel_splits() const;

  /// Allocation-free variant: writes the splits of all channels into `out`,
  /// which must have channels() entries.
  void channel_splits_into(std::span<ChannelSplit> out) const;

  /// Split an input bundle into total drop-bus and through-bus power [W].
  /// With crosstalk modeling the bundle passes the rings sequentially.
  /// Evaluates every ring's Lorentzian directly (O(channels^2)), not the
  /// cache.
  void propagate(const WdmSignal& in, double& drop_total,
                 double& through_total) const;

  /// Noiseless weighted power: sum_i P_i * w_eff_i [W-equivalent, signed].
  double ideal_weighted_power(const WdmSignal& in) const;

  /// Balanced-photodiode output for an input bundle: signed current [A],
  /// noise integrated over `bandwidth` (0 -> deterministic).
  double detect(const WdmSignal& in, double bandwidth, Rng& rng) const;

  /// Failure injection: freeze ring `i`'s heater at its current drive (see
  /// MicroringResonator::set_stuck). Subsequent calibrations cannot move it;
  /// the fixed-point refinement will still adjust the *other* rings around
  /// the fault.
  void fail_ring(std::size_t i, bool stuck = true);

  /// Number of rings currently stuck.
  std::size_t stuck_rings() const;

  /// Sum of heater powers across rings [W].
  double total_heater_power() const;

  /// Total ring footprint [m^2].
  double total_area() const;

 private:
  /// Solve drop fraction -> detuning and command ring `i`'s heater.
  /// Returns true when the applied shift changed.
  bool tune_ring(std::size_t i, double drop_target);
  /// tune_ring, then refresh ring `i`'s cached drop fractions if it moved.
  void apply_drop_target(std::size_t i, double drop_target);
  /// Recompute ring `i`'s cached drop fraction at every channel it acts on.
  void refresh_ring(std::size_t i);
  /// Unit-probe response of channel `ch`, from the cache.
  ChannelSplit probe(std::size_t ch) const;

  std::vector<double> wavelengths_; ///< channel wavelengths of the grid
  WeightBankConfig config_;
  std::vector<MicroringResonator> rings_;
  /// Drop fraction of ring r at channel c: drop_[c * channels() + r] with
  /// crosstalk modeling (channel-major, so one probe is one contiguous
  /// pass); only each ring's own channel, drop_[c], without.
  std::vector<double> drop_;
  std::vector<double> targets_;
  std::vector<double> drop_targets_;
  BalancedPhotodiode pd_;
  double through_loss_factor_; ///< per-ring through-path transmission
};

} // namespace pcnna::phot
