#include "electronics/adc.hpp"

#include "common/error.hpp"

namespace pcnna::elec {

Adc::Adc(AdcConfig config) : config_(config) {
  PCNNA_CHECK(config.bits >= 1 && config.bits <= 24);
  PCNNA_CHECK(config.sample_rate > 0.0);
  PCNNA_CHECK(config.area >= 0.0 && config.power >= 0.0);
  PCNNA_CHECK(config.full_scale > 0.0);
}

} // namespace pcnna::elec
