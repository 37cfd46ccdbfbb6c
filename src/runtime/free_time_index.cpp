#include "runtime/free_time_index.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pcnna::runtime {

FreeTimeIndex::FreeTimeIndex(std::size_t pcus)
    : slots_(pcus), idle_(pcus, 0), busy_at_(pcus), idle_at_(pcus) {}

void FreeTimeIndex::file(std::size_t p, Busy::node_type node) {
  const Slot& s = slots_[p];
  if (!s.listed) return;
  if (s.tier >= tiers_.size()) tiers_.resize(s.tier + 1);
  Tier& tier = tiers_[s.tier];
  idle_[p] = s.free_at < horizon_;
  if (idle_[p]) {
    idle_at_[p] = tier.idle[s.warm_after_idle].insert(p).first;
  } else {
    Busy& busy = tier.busy[s.warm];
    if (node) node.value() = {s.free_at, p};
    busy_at_[p] = node ? busy.insert(busy.end(), std::move(node))
                       : busy.emplace_hint(busy.end(), s.free_at, p);
  }
}

void FreeTimeIndex::update(std::size_t p, const Slot& slot) {
  // A busy PCU's node is kept, not freed: a commit to a PCU that has not
  // freed yet re-files it without an allocation.
  Busy::node_type node;
  const Slot& old = slots_[p];
  if (old.listed) {
    Tier& tier = tiers_[old.tier];
    if (idle_[p]) {
      tier.idle[old.warm_after_idle].erase(idle_at_[p]);
    } else {
      node = tier.busy[old.warm].extract(busy_at_[p]);
    }
  }
  slots_[p] = slot;
  file(p, std::move(node));
}

void FreeTimeIndex::advance(double t) {
  PCNNA_DCHECK(t >= horizon_);
  horizon_ = t;
  for (Tier& tier : tiers_) {
    for (Busy& busy : tier.busy) {
      while (!busy.empty() && busy.begin()->first < t) {
        const std::size_t p = busy.begin()->second;
        busy.erase(busy.begin());
        idle_[p] = 1;
        idle_at_[p] = tier.idle[slots_[p].warm_after_idle].insert(p).first;
      }
    }
  }
}

double FreeTimeIndex::earliest_free(double t) const {
  PCNNA_DCHECK(t >= horizon_);
  double best = std::numeric_limits<double>::infinity();
  for (const Tier& tier : tiers_) {
    // An idle PCU freed before the horizon, so it is free at t.
    if (!tier.idle[0].empty() || !tier.idle[1].empty()) return t;
    for (const Busy& busy : tier.busy) {
      if (!busy.empty())
        best = std::min(best, std::max(t, busy.begin()->first));
    }
  }
  return best;
}

double FreeTimeIndex::next_free_after(double t) const {
  PCNNA_DCHECK(t >= horizon_);
  double best = std::numeric_limits<double>::infinity();
  for (const Tier& tier : tiers_) {
    for (const Busy& busy : tier.busy) {
      const auto it = busy.upper_bound({t, slots_.size()});
      if (it != busy.end()) best = std::min(best, it->first);
    }
  }
  return best;
}

} // namespace pcnna::runtime
