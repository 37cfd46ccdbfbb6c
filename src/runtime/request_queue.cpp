#include "runtime/request_queue.hpp"

#include "common/error.hpp"

namespace pcnna::runtime {

std::uint64_t derive_request_seed(std::uint64_t base_seed,
                                  std::uint64_t request_id) {
  // SplitMix64 finalizer over base ^ golden-ratio-scaled id: the same mixing
  // construction common::Rng uses for seeding, so per-request streams are
  // decorrelated even for adjacent ids.
  std::uint64_t z = base_seed + (request_id + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const char* priority_class_name(PriorityClass priority) {
  switch (priority) {
    case PriorityClass::kInteractive: return "interactive";
    case PriorityClass::kStandard: return "standard";
    case PriorityClass::kBestEffort: return "best-effort";
  }
  throw Error("invalid PriorityClass");
}

} // namespace pcnna::runtime
