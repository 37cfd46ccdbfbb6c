#include "photonics/photodiode.hpp"

#include "common/error.hpp"

namespace pcnna::phot {

Photodiode::Photodiode(PhotodiodeConfig config) : config_(config) {
  PCNNA_CHECK(config.responsivity > 0.0);
  PCNNA_CHECK(config.dark_current >= 0.0);
  PCNNA_CHECK(config.temperature > 0.0);
  PCNNA_CHECK(config.load_resistance > 0.0);
}

double Photodiode::detect(double power, double bandwidth, Rng& rng) const {
  PCNNA_CHECK(power >= 0.0);
  const double mean = ideal_current(power);
  const double sigma = noise_sigma(mean, bandwidth);
  if (sigma == 0.0) return mean;
  return rng.normal(mean, sigma);
}

} // namespace pcnna::phot
