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

void RequestQueue::push(InferenceRequest request) {
  std::lock_guard<std::mutex> lock(mu_);
  PCNNA_CHECK_MSG(!closed_, "push() on a closed RequestQueue");
  PCNNA_CHECK_MSG(
      request.arrival_time >= last_arrival_,
      "out-of-order push: request " << request.id << " arrives at t="
          << request.arrival_time << " but a request arriving at t="
          << last_arrival_
          << " was already pushed — virtual-time admission needs "
             "nondecreasing arrival_time (sort the trace)");
  last_arrival_ = request.arrival_time;
  queue_.push_back(std::move(request));
}

bool RequestQueue::pop_arrived(double virtual_now, InferenceRequest& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty() || queue_.front().arrival_time > virtual_now)
    return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

bool RequestQueue::next_arrival(double& when) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  when = queue_.front().arrival_time;
  return true;
}

void RequestQueue::close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

} // namespace pcnna::runtime
