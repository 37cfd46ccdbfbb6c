// Per-tier free-time index: the admission loop's answer to "which PCU is
// free, and which one wins", without scanning the fleet.
//
// PcuPool::simulate_admission scores a candidate PCU from its free time and
// from a handful of per-PCU constants (per-model service times, warmup
// policy, degrade multiplier). PCUs that agree on every constant form one
// *tier*; inside a tier two PCUs can differ only in free time and in
// warmth (whether the next request pays the pipeline fill). Each tier
// keeps, per warmth:
//
//  * busy: PCUs that had not freed by the last advance() instant, ordered
//    by (free_at, index). A busy candidate scores a fixed function of its
//    free time, non-decreasing in it, so walking the set walks the scores
//    in order;
//  * idle: PCUs that freed before the last advance() instant, ordered by
//    index. Every idle candidate of one (tier, warmth) starts at the query
//    time and scores the same, so the lowest index is the best.
//
// pick() tries candidates in (score, index) order and returns the first
// eligible one — exactly what a full-fleet scan with a strict `<` and
// ascending indices returns. Each search costs O(tiers · log P) plus one
// step per ineligible candidate it skips.
//
// The index remembers where each listed PCU sits (its set iterator), so
// taking a PCU out of its set never searches. A commit files a busy PCU
// back with an end-of-set hint. When its new (free_at, index) is the
// largest in the set the insert links there in O(1) amortized; otherwise
// the hint is ignored and the insert is an ordinary O(log P) one with the
// same result. Measured hit shares: 100 % on perfbench's admit_fifo_2048
// (least-loaded, one tier), 80-98 % on its earliest-free and EDF rows,
// 58 % on admit_multimodel_faults and 30 % on that workload's EDF row. On
// 2048 PCUs a hit saves ~75 ns per commit over a plain insert; a miss
// costs about what a plain insert does. A PCU that goes from busy to busy
// (a commit to a PCU that has not freed yet) keeps its set node, so the
// re-file allocates nothing.
//
// The index never computes a score: the caller supplies it, and promises
// that, at the query time, every PCU of one busy set scores non-decreasing
// in free_at and every PCU of one idle set scores the same. A caller whose
// score reads the idle gap (the warmup charge of a PCU that sat idle) must
// advance() to the query time first; a caller scoring by free time alone
// never advances, and every PCU stays in a busy set.
#pragma once

#include <cstddef>
#include <limits>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

namespace pcnna::runtime {

class FreeTimeIndex {
 public:
  /// Everything the index knows about one PCU.
  struct Slot {
    /// Tier id: PCUs of one tier share every scoring constant. Dense ids
    /// from 0; a new id grows the index.
    std::size_t tier = 0;
    double free_at = 0.0;
    /// The next request skips the pipeline fill when it starts exactly at
    /// free_at (no idle gap).
    bool warm = false;
    /// The next request skips the pipeline fill even after an idle gap.
    bool warm_after_idle = false;
    /// The PCU is a candidate of every search (active, not pulled from
    /// dispatch). An unlisted PCU sits in no set.
    bool listed = false;
  };

  /// `pcus` PCUs, none listed yet.
  explicit FreeTimeIndex(std::size_t pcus);

  std::size_t size() const { return slots_.size(); }

  /// The one write: replace PCU p's slot and re-file it.
  void update(std::size_t p, const Slot& slot);

  /// Move every busy PCU with free_at < t to its tier's idle set. `t` never
  /// decreases across calls, and every query below passes a `t` no earlier
  /// than the last one.
  void advance(double t);

  /// The (score, index)-least listed PCU with tier_ok(tier) and eligible(p)
  /// among those free by `t` (free_at <= t), or — with `busy_ok` — among
  /// all of them; size() when there is none. Kept out of line: inlined
  /// into the admission loop's one large function it crowded out the
  /// inlining of the kModelAffinity scans (~25 % slower per request).
  template <class TierOk, class Score, class Eligible>
  [[gnu::noinline]] std::size_t pick(double t, bool busy_ok,
                                     const TierOk& tier_ok, const Score& score,
                                     const Eligible& eligible) const;

  /// min over listed PCUs of max(t, free_at); +inf when none is listed.
  double earliest_free(double t) const;

  /// min over listed PCUs of free_at > t; +inf when there is none.
  double next_free_after(double t) const;

 private:
  using Busy = std::set<std::pair<double, std::size_t>>;
  using Idle = std::set<std::size_t>;
  struct Tier {
    Busy busy[2]; ///< indexed by Slot::warm
    Idle idle[2]; ///< indexed by Slot::warm_after_idle
  };

  // Growing tiers_ moves each Tier, and moving a std::set keeps its
  // iterators valid; only a copy would strand busy_at_ / idle_at_.
  static_assert(std::is_nothrow_move_constructible_v<Tier>);

  /// File listed PCU p by its slot, reusing `node` when it lands busy.
  void file(std::size_t p, Busy::node_type node);

  std::vector<Tier> tiers_;
  std::vector<Slot> slots_;
  /// idle_[p]: PCU p sits in an idle set (else busy, when listed).
  std::vector<unsigned char> idle_;
  /// Where listed PCU p sits: busy_at_[p] in its busy set, or idle_at_[p]
  /// in its idle set, as idle_[p] says.
  std::vector<Busy::iterator> busy_at_;
  std::vector<Idle::iterator> idle_at_;
  /// Last advance() instant; idle PCUs freed before it.
  double horizon_ = -std::numeric_limits<double>::infinity();
};

template <class TierOk, class Score, class Eligible>
std::size_t FreeTimeIndex::pick(double t, bool busy_ok, const TierOk& tier_ok,
                                const Score& score,
                                const Eligible& eligible) const {
  std::size_t best = slots_.size();
  double best_score = std::numeric_limits<double>::infinity();
  const auto offer = [&](std::size_t p, double s) {
    if (s < best_score || (s == best_score && p < best)) {
      best_score = s;
      best = p;
    }
  };
  for (std::size_t k = 0; k < tiers_.size(); ++k) {
    if (!tier_ok(k)) continue;
    const Tier& tier = tiers_[k];
    for (const Idle& idle : tier.idle) {
      // One score for the whole set: its first eligible index is its best.
      if (idle.empty()) continue;
      const double s = score(*idle.begin());
      if (s > best_score) continue;
      for (const std::size_t p : idle) {
        if (eligible(p)) {
          offer(p, s);
          break;
        }
      }
    }
    for (const Busy& busy : tier.busy) {
      auto it = busy.begin();
      while (it != busy.end()) {
        const auto [free_at, p] = *it;
        if (!busy_ok && free_at > t) break;
        const double s = score(p);
        // Scores never fall along the set: nothing further can win.
        if (s > best_score) break;
        if (!eligible(p)) {
          ++it;
          continue;
        }
        offer(p, s);
        // The rest of this free_at run scores s at higher indices; a later
        // free_at may still round to s, so keep walking after it.
        it = busy.upper_bound({free_at, slots_.size()});
      }
    }
  }
  return best;
}

} // namespace pcnna::runtime
