#include "photonics/weight_bank.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pcnna::phot {

namespace {

/// One ring of propagate()'s loop over a unit-power probe: `s.drop` is the
/// power dropped so far, `s.thru` the power still on the bus. The probe
/// starts at {0, 1}; finishing it adds the survivor to an empty through bus
/// (thru = 0 + p), which is exactly propagate()'s arithmetic.
inline void cross(WeightBank::ChannelSplit& s, double d, double t) {
  s.drop += s.thru * d;
  s.thru *= t * (1.0 - d);
}

constexpr WeightBank::ChannelSplit kUnitProbe{0.0, 1.0};

} // namespace

WeightBank::WeightBank(const WdmGrid& grid, WeightBankConfig config, Rng& rng)
    : wavelengths_(grid.wavelengths()),
      config_(config),
      pd_(config.photodiode),
      through_loss_factor_(from_db(-config.ring.insertion_loss_db)) {
  PCNNA_CHECK(config.calibration_iterations >= 0);
  rings_.reserve(grid.channels());
  for (std::size_t i = 0; i < grid.channels(); ++i) {
    MicroringConfig ring_cfg = config.ring;
    // Bias the design resonance blue of the channel so that the one-sided
    // (red) thermal tuning can always reach the channel even with worst-case
    // fabrication offsets.
    ring_cfg.design_wavelength =
        grid.wavelength(i) - 4.0 * config.ring.fab_sigma;
    rings_.emplace_back(ring_cfg, rng);
  }
  targets_.assign(grid.channels(), 0.0);
  drop_targets_.assign(grid.channels(), 0.0);
  // Park every ring at weight zero, then fill the drop-fraction cache.
  const double zero_drop = through_loss_factor_ / (1.0 + through_loss_factor_);
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    drop_targets_[i] = zero_drop;
    tune_ring(i, zero_drop);
  }
  const std::size_t n = rings_.size();
  drop_.assign(config_.model_crosstalk ? n * n : n, 0.0);
  for (std::size_t i = 0; i < n; ++i) refresh_ring(i);
}

double WeightBank::max_weight() const {
  const double t = through_loss_factor_;
  return config_.ring.max_drop * (1.0 + t) - t;
}

double WeightBank::min_weight() const {
  const double h = 0.5 * config_.ring.design_wavelength / config_.ring.q_factor;
  const double d = config_.ring.max_detuning;
  const double lorentz_far = (h * h) / (d * d + h * h);
  const double d_far = config_.ring.max_drop * lorentz_far;
  const double t = through_loss_factor_;
  return d_far * (1.0 + t) - t;
}

bool WeightBank::tune_ring(std::size_t i, double drop_target) {
  MicroringResonator& ring = rings_[i];
  const double d_max = config_.ring.max_drop;
  // Keep strictly inside (0, d_max] so the Lorentzian inversion is finite.
  const double d = clamp(drop_target, 1e-9, d_max * (1.0 - 1e-12));
  const double h = 0.5 * ring.linewidth();
  double detuning = h * std::sqrt(d_max / d - 1.0);
  detuning = clamp(detuning, 0.0, config_.ring.max_detuning);
  // Park the resonance `detuning` red of the channel; the heater must also
  // make up the (blue-biased) natural-resonance offset.
  const double desired_resonance = wavelengths_[i] + detuning;
  const double shift = desired_resonance - ring.natural_resonance();
  const double before = ring.thermal_shift();
  return ring.set_thermal_shift(shift) != before;
}

void WeightBank::apply_drop_target(std::size_t i, double drop_target) {
  if (tune_ring(i, drop_target)) refresh_ring(i);
}

void WeightBank::refresh_ring(std::size_t i) {
  const MicroringResonator& ring = rings_[i];
  if (!config_.model_crosstalk) {
    drop_[i] = ring.drop_fraction(wavelengths_[i]);
    return;
  }
  // MicroringResonator::drop_fraction, operation for operation, with the
  // ring's constants hoisted out of the channel loop (which vectorizes).
  const std::size_t n = rings_.size();
  const double half_width = 0.5 * ring.linewidth();
  const double hw2 = half_width * half_width;
  const double resonance = ring.resonance();
  const double max_drop = ring.config().max_drop;
  const double* wavelength = wavelengths_.data();
  double* drop = drop_.data() + i;
  for (std::size_t c = 0; c < n; ++c) {
    const double delta = wavelength[c] - resonance;
    drop[c * n] = max_drop * (hw2 / (delta * delta + hw2));
  }
}

WeightBank::ChannelSplit WeightBank::probe(std::size_t ch) const {
  ChannelSplit s = kUnitProbe;
  if (config_.model_crosstalk) {
    const std::size_t n = rings_.size();
    const double* d = drop_.data() + ch * n;
    for (std::size_t r = 0; r < n; ++r) cross(s, d[r], through_loss_factor_);
  } else {
    cross(s, drop_[ch], through_loss_factor_);
  }
  s.thru = 0.0 + s.thru;
  return s;
}

std::vector<double> WeightBank::calibrate(std::span<const double> weights) {
  std::vector<ChannelSplit> splits(rings_.size());
  calibrate(weights, splits);
  std::vector<double> achieved(splits.size());
  for (std::size_t i = 0; i < splits.size(); ++i)
    achieved[i] = splits[i].drop - splits[i].thru;
  return achieved;
}

void WeightBank::calibrate(std::span<const double> weights,
                           std::span<ChannelSplit> splits) {
  PCNNA_CHECK_MSG(weights.size() == rings_.size(),
                  "got " << weights.size() << " weights for " << rings_.size()
                         << " rings");
  PCNNA_CHECK_MSG(splits.size() == rings_.size(),
                  "split buffer has " << splits.size() << " entries, bank has "
                                      << rings_.size());
  const double w_lo = min_weight();
  const double w_hi = max_weight();
  const double t = through_loss_factor_;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    PCNNA_CHECK_MSG(std::abs(weights[i]) <= 1.0 + 1e-9,
                    "weight " << weights[i] << " outside [-1, 1]");
    targets_[i] = clamp(weights[i], w_lo, w_hi);
    drop_targets_[i] = (targets_[i] + t) / (1.0 + t);
    apply_drop_target(i, drop_targets_[i]);
  }
  if (config_.model_crosstalk) {
    // Fixed-point refinement: nudge each ring's drop target by the measured
    // weight error. Crosstalk tails are small, so this converges quickly.
    for (int iter = 0; iter < config_.calibration_iterations; ++iter) {
      for (std::size_t i = 0; i < rings_.size(); ++i) {
        const ChannelSplit s = probe(i);
        const double err = targets_[i] - (s.drop - s.thru);
        drop_targets_[i] =
            clamp(drop_targets_[i] + err / (1.0 + t), 1e-9, config_.ring.max_drop);
        apply_drop_target(i, drop_targets_[i]);
      }
    }
  }
  channel_splits_into(splits);
}

double WeightBank::effective_weight(std::size_t ch) const {
  PCNNA_CHECK(ch < rings_.size());
  const ChannelSplit s = probe(ch);
  return s.drop - s.thru;
}

std::vector<double> WeightBank::effective_weights() const {
  std::vector<double> out(rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) out[i] = effective_weight(i);
  return out;
}

std::vector<WeightBank::ChannelSplit> WeightBank::channel_splits() const {
  std::vector<ChannelSplit> splits(rings_.size());
  channel_splits_into(splits);
  return splits;
}

void WeightBank::channel_splits_into(std::span<ChannelSplit> out) const {
  PCNNA_CHECK_MSG(out.size() == rings_.size(),
                  "split buffer has " << out.size() << " entries, bank has "
                                      << rings_.size());
  if (!config_.model_crosstalk) {
    for (std::size_t c = 0; c < out.size(); ++c) out[c] = probe(c);
    return;
  }
  // probe() for every channel, with all channels' probes crossing the bus
  // together, ring by ring: independent chains instead of one serial chain.
  const std::size_t n = rings_.size();
  const double t = through_loss_factor_;
  std::fill(out.begin(), out.end(), kUnitProbe);
  for (std::size_t r = 0; r < n; ++r) {
    const double* d = drop_.data() + r;
    for (std::size_t c = 0; c < n; ++c) cross(out[c], d[c * n], t);
  }
  for (ChannelSplit& s : out) s.thru = 0.0 + s.thru;
}

void WeightBank::propagate(const WdmSignal& in, double& drop_total,
                           double& through_total) const {
  PCNNA_CHECK_MSG(in.channels() == rings_.size(),
                  "signal has " << in.channels() << " channels, bank has "
                                << rings_.size());
  drop_total = 0.0;
  through_total = 0.0;
  for (std::size_t c = 0; c < in.channels(); ++c) {
    double p = in[c];
    if (p <= 0.0) continue;
    const double lambda = wavelengths_[c];
    if (config_.model_crosstalk) {
      // The channel traverses every ring on the bus in order.
      for (const MicroringResonator& ring : rings_) {
        const double d = ring.drop_fraction(lambda);
        drop_total += p * d;
        p *= through_loss_factor_ * (1.0 - d);
      }
    } else {
      // Idealized: only the channel's own ring interacts with it.
      const double d = rings_[c].drop_fraction(lambda);
      drop_total += p * d;
      p *= through_loss_factor_ * (1.0 - d);
    }
    through_total += p;
  }
}

double WeightBank::ideal_weighted_power(const WdmSignal& in) const {
  double drop = 0.0, thru = 0.0;
  propagate(in, drop, thru);
  return drop - thru;
}

double WeightBank::detect(const WdmSignal& in, double bandwidth,
                          Rng& rng) const {
  double drop = 0.0, thru = 0.0;
  propagate(in, drop, thru);
  return pd_.detect(drop, thru, bandwidth, rng);
}

void WeightBank::fail_ring(std::size_t i, bool stuck) {
  PCNNA_CHECK(i < rings_.size());
  rings_[i].set_stuck(stuck);
}

std::size_t WeightBank::stuck_rings() const {
  std::size_t count = 0;
  for (const MicroringResonator& ring : rings_)
    if (ring.stuck()) ++count;
  return count;
}

double WeightBank::total_heater_power() const {
  double acc = 0.0;
  for (const MicroringResonator& ring : rings_) acc += ring.heater_power();
  return acc;
}

double WeightBank::total_area() const {
  double acc = 0.0;
  for (const MicroringResonator& ring : rings_) acc += ring.area();
  return acc;
}

} // namespace pcnna::phot
