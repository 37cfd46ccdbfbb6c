// Differential test of runtime::FreeTimeIndex against a brute-force
// full-fleet scan, the reference for every free-PCU search of
// PcuPool::simulate_admission.
//
// Random fleets of 1-3 device tiers with mixed warmup policies go through
// random sequences of commits (pick a PCU, charge it a service), clock
// advances, and eligibility changes (activation, exclusion, a per-PCU
// filter, forced cold starts, degrade multipliers that move a PCU to
// another tier, free-time bumps). After every step each search — pick at
// arrival and at a free event, earliest free instant, next free event — is
// answered by the index and by a brute-force scan written here, and the
// answers must be identical. Times live on a coarse grid, so many PCUs
// share a free time, and steps of one ulp put free times one ulp apart,
// where two scores can round to the same double.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/free_time_index.hpp"
#include "runtime/pcu.hpp"

namespace {

using pcnna::Rng;
using pcnna::runtime::FreeTimeIndex;
using pcnna::runtime::WarmupPolicy;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMults[] = {1.0, 1.5, 3.0};

struct Device {
  double interval = 0.0;
  double warmup = 0.0;
  double serial = 0.0;
  WarmupPolicy policy = WarmupPolicy::kRechargeAfterIdle;
};

struct SimPcu {
  std::size_t device = 0;
  std::size_t mult = 0; ///< index into kMults
  double free_at = 0.0;
  std::size_t served = 0;
  bool force_cold = false;
  bool active = true;
  bool eligible = true; ///< the per-PCU filter (e.g. degraded disallowed)
};

/// One random fleet of min_pcus..max_pcus PCUs and its index, kept in
/// lockstep.
class Fleet {
 public:
  Fleet(Rng& rng, bool double_buffer, bool by_free_time, std::size_t min_pcus,
        std::size_t max_pcus)
      : double_buffer_(double_buffer), by_free_time_(by_free_time),
        index_(min_pcus + rng.next_u64() % (max_pcus - min_pcus + 1)) {
    const std::size_t tiers = 1 + rng.next_u64() % 3;
    for (std::size_t d = 0; d < tiers; ++d) {
      Device dev;
      // Quarter-second grid: commits land on shared free times.
      dev.interval = 0.25 * static_cast<double>(1 + rng.next_u64() % 8);
      dev.warmup = 0.25 * static_cast<double>(rng.next_u64() % 4);
      dev.serial = dev.interval + dev.warmup;
      dev.policy = static_cast<WarmupPolicy>(rng.next_u64() % 3);
      devices_.push_back(dev);
    }
    pcus_.resize(index_.size());
    for (SimPcu& p : pcus_) p.device = rng.next_u64() % tiers;
    for (std::size_t p = 0; p < pcus_.size(); ++p) reindex(p);
  }

  std::size_t size() const { return pcus_.size(); }
  SimPcu& pcu(std::size_t p) { return pcus_[p]; }
  double now() const { return now_; }

  void reindex(std::size_t p) {
    const SimPcu& s = pcus_[p];
    const WarmupPolicy policy = devices_[s.device].policy;
    const bool warm = double_buffer_ && s.served > 0 && !s.force_cold &&
                      policy != WarmupPolicy::kAlwaysCold;
    index_.update(p, {tier(p), s.free_at, warm,
                      warm && policy == WarmupPolicy::kPinnedAfterFirst,
                      s.active});
  }

  void advance(double t) {
    now_ = t;
    if (!by_free_time_) index_.advance(t);
  }

  /// The admission loop's service charge for PCU p starting at `start`.
  double service(std::size_t p, double start) const {
    const SimPcu& s = pcus_[p];
    const Device& dev = devices_[s.device];
    const double mult = kMults[s.mult];
    if (!double_buffer_) return dev.serial * mult;
    bool cold = true;
    switch (dev.policy) {
      case WarmupPolicy::kRechargeAfterIdle:
        cold = s.served == 0 || start > s.free_at;
        break;
      case WarmupPolicy::kPinnedAfterFirst:
        cold = s.served == 0;
        break;
      case WarmupPolicy::kAlwaysCold:
        cold = true;
        break;
    }
    return (dev.interval + (cold || s.force_cold ? dev.warmup : 0.0)) * mult;
  }

  double score(std::size_t p, double t) const {
    if (by_free_time_) return pcus_[p].free_at;
    const double start = std::max(t, pcus_[p].free_at);
    return start + service(p, start);
  }

  std::size_t tier(std::size_t p) const {
    return pcus_[p].device * std::size(kMults) + pcus_[p].mult;
  }

  /// The index's answer.
  std::size_t pick(double t, bool busy_ok,
                   const std::vector<unsigned char>& tier_ok) const {
    return index_.pick(
        t, busy_ok, [&](std::size_t k) { return tier_ok[k] != 0; },
        [&](std::size_t p) { return score(p, t); },
        [&](std::size_t p) { return pcus_[p].eligible; });
  }

  /// The reference scan: strict `<`, ascending indices, the eligibility
  /// test only for a candidate that would win.
  std::size_t scan_pick(double t, bool busy_ok,
                        const std::vector<unsigned char>& tier_ok) const {
    std::size_t best = pcus_.size();
    double best_score = kInf;
    for (std::size_t p = 0; p < pcus_.size(); ++p) {
      if (!pcus_[p].active || !tier_ok[tier(p)]) continue;
      if (!busy_ok && pcus_[p].free_at > t) continue;
      const double s = score(p, t);
      if (s < best_score && pcus_[p].eligible) {
        best_score = s;
        best = p;
      }
    }
    return best;
  }

  double earliest_free(double t) const { return index_.earliest_free(t); }
  double scan_earliest_free(double t) const {
    double best = kInf;
    for (const SimPcu& s : pcus_)
      if (s.active) best = std::min(best, std::max(t, s.free_at));
    return best;
  }

  double next_free_after(double t) const { return index_.next_free_after(t); }
  double scan_next_free_after(double t) const {
    double best = kInf;
    for (const SimPcu& s : pcus_)
      if (s.active && s.free_at > t) best = std::min(best, s.free_at);
    return best;
  }

  /// Commit a request to PCU p at `t`, exactly as dispatch() charges it.
  void commit(std::size_t p, double t) {
    SimPcu& s = pcus_[p];
    const double start = std::max(t, s.free_at);
    s.free_at = start + service(p, start);
    s.served += 1;
    s.force_cold = false;
    reindex(p);
  }

  std::size_t num_tiers() const { return devices_.size() * std::size(kMults); }

 private:
  bool double_buffer_;
  bool by_free_time_;
  std::vector<Device> devices_;
  std::vector<SimPcu> pcus_;
  FreeTimeIndex index_;
  double now_ = 0.0;
};

void run_one(std::uint64_t seed, std::size_t min_pcus = 1,
             std::size_t max_pcus = 40) {
  Rng rng(seed);
  const bool double_buffer = rng.next_u64() % 4 != 0;
  // Earliest-free scores by free time alone and never advances the index;
  // the completion score reads the idle gap and advances it every step.
  const bool by_free_time = rng.next_u64() % 3 == 0;
  // Commit at arrival (busy PCUs compete) or at a PCU-free event.
  const bool busy_ok = rng.next_u64() % 2 == 0;
  Fleet fleet(rng, double_buffer, by_free_time, min_pcus, max_pcus);
  SCOPED_TRACE("seed " + std::to_string(seed) + " pcus " +
               std::to_string(fleet.size()) +
               (double_buffer ? "" : " serial") +
               (by_free_time ? " by-free-time" : " by-completion") +
               (busy_ok ? " busy-ok" : " free-only"));
  fleet.advance(0.0);

  std::vector<unsigned char> tier_ok(fleet.num_tiers(), 1);
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.next_u64() % 16;
    const std::size_t p = rng.next_u64() % fleet.size();
    SimPcu& s = fleet.pcu(p);
    double t = fleet.now();
    if (op < 6) {
      // Commit: a tier subset now and then, like capability filtering.
      for (unsigned char& ok : tier_ok) ok = rng.next_u64() % 5 != 0;
      if (rng.next_u64() % 2 == 0) tier_ok.assign(tier_ok.size(), 1);
      const std::size_t want = fleet.scan_pick(t, busy_ok, tier_ok);
      const std::size_t got = fleet.pick(t, busy_ok, tier_ok);
      ASSERT_EQ(want, got) << "step " << step << " t=" << t;
      if (got < fleet.size()) fleet.commit(got, t);
    } else if (op < 9) {
      // Advance: stay, a grid step, or a single ulp.
      const std::uint64_t how = rng.next_u64() % 3;
      if (how == 1) t += 0.25 * static_cast<double>(1 + rng.next_u64() % 3);
      if (how == 2) t = std::nextafter(t, kInf);
      fleet.advance(t);
    } else if (op == 9) {
      s.active = !s.active;
      fleet.reindex(p);
    } else if (op == 10) {
      s.eligible = !s.eligible;
    } else if (op == 11) {
      s.force_cold = true;
      fleet.reindex(p);
    } else if (op == 12) {
      // A degrade, or its repair: the PCU changes tier.
      s.mult = rng.next_u64() % std::size(kMults);
      fleet.reindex(p);
    } else if (op == 13) {
      // A repair span: free time pushed past the clock.
      s.free_at = std::max(s.free_at, t + 0.25 * static_cast<double>(
                                              rng.next_u64() % 4));
      fleet.reindex(p);
    } else {
      // Tie forcing: copy another PCU's free time, or land one ulp past it.
      const double other = fleet.pcu(rng.next_u64() % fleet.size()).free_at;
      s.free_at = op == 14 ? other : std::nextafter(other, kInf);
      fleet.reindex(p);
    }
    ASSERT_EQ(fleet.scan_earliest_free(t), fleet.earliest_free(t))
        << "step " << step;
    ASSERT_EQ(fleet.scan_next_free_after(t), fleet.next_free_after(t))
        << "step " << step;
  }
}

TEST(FreeTimeIndex, MatchesTheFullScanOnRandomFleets) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    run_one(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FreeTimeIndex, MatchesTheFullScanOnWideFleets) {
  // 65-300 PCUs: long idle and busy sets, where random commits miss the
  // end-of-set insert hint and PCUs leave their sets by kept position many
  // times per walk.
  for (std::uint64_t seed = 401; seed <= 460; ++seed) {
    run_one(seed, 65, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FreeTimeIndex, OutOfOrderFreeTimesMissTheEndHint) {
  // A commit files its PCU with a hint at the end of its busy set. Free
  // times below the set's largest miss that hint and must still land in
  // (free_at, index) order.
  constexpr std::size_t kPcus = 12;
  FreeTimeIndex index(kPcus);
  std::vector<double> free_at(kPcus);
  const auto file = [&](std::size_t p, double t) {
    free_at[p] = t;
    index.update(p, {0, t, false, false, true});
  };
  for (std::size_t p = 0; p < 6; ++p) file(p, 1.0 + static_cast<double>(p));
  const double late[] = {3.5, 0.5, 6.0, 2.0, 2.0, 9.0};
  for (std::size_t p = 6; p < kPcus; ++p) file(p, late[p - 6]);
  file(2, 0.25);  // re-filed below everything
  file(4, 10.0);  // and above everything

  std::vector<std::size_t> want(kPcus);
  for (std::size_t p = 0; p < kPcus; ++p) want[p] = p;
  std::sort(want.begin(), want.end(), [&](std::size_t a, std::size_t b) {
    return free_at[a] != free_at[b] ? free_at[a] < free_at[b] : a < b;
  });
  // Scored by free time, the picks walk the set in order.
  std::vector<unsigned char> taken(kPcus, 0);
  const auto all = [](std::size_t) { return true; };
  const auto by_free_at = [&](std::size_t p) { return free_at[p]; };
  for (const std::size_t p : want) {
    ASSERT_EQ(p, index.pick(0.0, true, all, by_free_at,
                            [&](std::size_t q) { return !taken[q]; }));
    taken[p] = 1;
  }
  EXPECT_EQ(0.25, index.earliest_free(0.0));
  double t = 0.0;
  for (const std::size_t p : want) {
    if (free_at[p] == t) continue; // a shared free time is one event
    ASSERT_EQ(free_at[p], index.next_free_after(t));
    t = free_at[p];
  }
  EXPECT_EQ(kInf, index.next_free_after(t));
}

TEST(FreeTimeIndex, FiledPcusSurviveTheTiersGrowing) {
  // A new tier id grows the tier table, which moves every tier's sets; the
  // positions the index keeps for filed PCUs must survive the move.
  constexpr std::size_t kPcus = 16;
  FreeTimeIndex index(kPcus);
  for (std::size_t p = 0; p < 8; ++p)
    index.update(p, {0, 1.0 + static_cast<double>(p), p % 2 == 0, false,
                     true});
  index.advance(4.5); // PCUs 0-3 freed before 4.5: idle; 4-7 stay busy
  // One new tier at a time, so the table reallocates several times.
  for (std::size_t p = 8; p < kPcus; ++p)
    index.update(p, {p - 7, 10.0 + static_cast<double>(p), false, false,
                     true});
  // Re-filing the first PCUs takes each out of its set through the kept
  // position: idle ones and busy ones alike.
  for (std::size_t p = 0; p < 8; ++p)
    index.update(p, {0, 20.0 + static_cast<double>(p), false, false, true});

  const auto all = [](std::size_t) { return true; };
  const auto by_free_at = [](std::size_t p) {
    return p < 8 ? 20.0 + static_cast<double>(p)
                 : 10.0 + static_cast<double>(p);
  };
  EXPECT_EQ(18.0, index.earliest_free(4.5));
  EXPECT_EQ(19.0, index.next_free_after(18.0));
  EXPECT_EQ(26.0, index.next_free_after(25.0)); // PCU 6, re-filed
  EXPECT_EQ(8u, index.pick(4.5, true, all, by_free_at, all));
  EXPECT_EQ(0u, index.pick(4.5, true, all, by_free_at,
                           [](std::size_t p) { return p < 8; }));
  EXPECT_EQ(kPcus, index.pick(4.5, false, all, by_free_at, all));
  for (std::size_t p = 0; p < kPcus; ++p)
    index.update(p, {p < 8 ? 0 : p - 7, 0.0, false, false, false});
  EXPECT_EQ(kInf, index.earliest_free(4.5));
}

TEST(FreeTimeIndex, EqualScoresGoToTheLowestIndex) {
  // Two busy PCUs one ulp apart in free time whose completions round to the
  // same double: the higher free time has the lower index and must win.
  FreeTimeIndex index(2);
  const double late = std::nextafter(1.0, 2.0);
  ASSERT_EQ(late + 3.0, 1.0 + 3.0);
  const double free_at[] = {late, 1.0};
  index.update(0, {0, free_at[0], true, false, true});
  index.update(1, {0, free_at[1], true, false, true});
  index.advance(0.5);
  const auto score = [&](std::size_t p) { return free_at[p] + 3.0; };
  const auto all = [](std::size_t) { return true; };
  EXPECT_EQ(0u, index.pick(0.5, true, all, score, all));
  // Filtered out, the other one wins; with both filtered, none does.
  EXPECT_EQ(1u, index.pick(0.5, true, all, score,
                           [](std::size_t p) { return p != 0; }));
  EXPECT_EQ(2u, index.pick(0.5, true, all, score,
                           [](std::size_t) { return false; }));
  // Free-only search: nobody is free at 0.5.
  EXPECT_EQ(2u, index.pick(0.5, false, all, score, all));
  EXPECT_EQ(1.0, index.earliest_free(0.5));
  EXPECT_EQ(late, index.next_free_after(1.0));
}

TEST(FreeTimeIndex, UnlistedPcusAreInvisible) {
  FreeTimeIndex index(3);
  index.update(0, {0, 0.0, false, false, false});
  index.update(1, {1, 2.0, false, false, true});
  index.update(2, {0, 1.0, false, false, true});
  index.advance(1.5); // PCU 2 freed before 1.5: idle from now on
  const auto all = [](std::size_t) { return true; };
  const auto score = [](std::size_t) { return 0.0; };
  EXPECT_EQ(2u, index.pick(1.5, false, all, score, all));
  EXPECT_EQ(1.5, index.earliest_free(1.5));
  EXPECT_EQ(2.0, index.next_free_after(1.5));
  index.update(2, {0, 1.0, false, false, false});
  EXPECT_EQ(3u, index.pick(1.5, false, all, score, all));
  EXPECT_EQ(2.0, index.earliest_free(1.5));
  index.update(1, {1, 2.0, false, false, false});
  EXPECT_EQ(kInf, index.earliest_free(1.5));
  EXPECT_EQ(kInf, index.next_free_after(1.5));
}

} // namespace
