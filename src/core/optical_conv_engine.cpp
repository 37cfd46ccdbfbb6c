#include "core/optical_conv_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "common/normal_stream.hpp"
#include "electronics/adc.hpp"
#include "electronics/dac.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/waveguide.hpp"
#include "photonics/wdm.hpp"

// Hot-path bit-identity contract
// ------------------------------
// With noise off, every value this file computes is bit-identical to the
// frozen pre-rewrite engine (engine_reference.cpp), its ideal-path oracle:
// the serving runtime's request-level reproducibility guarantees are built
// on engine outputs, so the rewrite hoists and restructures but never
// reassociates. Concretely:
//
//  * per-element math (normalize, DAC quantize, MZM transfer) is hoisted
//    out of the pixel loops into the per-layer padded transfer plane —
//    legal because they are pure functions of the input element (a padded
//    element is the transfer of 0), evaluated with the identical
//    expressions;
//  * each per-bank dot product starts at 0.0 and adds p * w
//    channel-ascending with a separate multiply and add, exactly like the
//    reference — the register-blocked MAC kernel (mac_panel) gives each
//    kernel its own SIMD lane, so the K-panel layout and the vector width
//    change the schedule, never a lane's operations or their order. The
//    build targets baseline SSE2 (no -march) in ISO C++ mode, so nothing
//    contracts a multiply and its add into an FMA;
//  * the inline converters round half away from zero without libm
//    (round_half_away), bit-identical to the std::round they replaced;
//  * set-up draws (bank fabrication, inject_stuck_faults,
//    measured_usable_range) come from the engine RNG sequentially in
//    construction order, exactly as in the reference.
//
// With noise on, hot-loop noise (laser RIN, photodiode shot/thermal noise)
// no longer comes from the engine RNG draw by draw. Each noisy sweep pass,
// and each noisy fully_connected call, takes one 64-bit key from the engine
// RNG; pixel p then draws standard normals from its own NormalStream keyed
// by (that key, p), in the reference's per-pixel draw order. A pixel's
// noise is thus a pure function of (request seed, sweep, pixel, draw
// index), the same for every thread count and tile, and the engine RNG
// advances identically at every thread count. Noisy outputs differ from the
// reference's (a different sampler) but match it in distribution
// (tests/test_noise_stream.cpp).
namespace pcnna::core {
namespace {

/// Precomputed constants of the analog signal chain shared by every bank.
struct AnalogChain {
  double p0 = 0.0;        ///< laser CW power [W]
  double bcast = 1.0;     ///< broadcast-tree factor to one bank
  double mzm_loss = 1.0;  ///< MZM insertion-loss factor
  double mzm_floor = 0.0; ///< MZM extinction floor (transmission at x = 0)
  double resp = 1.0;      ///< photodiode responsivity [A/W]
  /// Current corresponding to one unit of normalized MAC:
  /// resp * p0 * bcast * mzm_loss * (1 - floor).
  double denom_current = 1.0;
  /// Per-channel power at x = 0 (extinction leakage) [W].
  double dark_power = 0.0;
};

AnalogChain make_chain(const PcnnaConfig& cfg, std::size_t fanout) {
  const phot::LaserDiode laser(cfg.laser);
  const phot::MachZehnderModulator mzm(cfg.mzm);
  const phot::Waveguide wg(cfg.waveguide);
  AnalogChain chain;
  chain.p0 = laser.cw_power();
  chain.bcast = wg.broadcast_factor(fanout);
  chain.mzm_loss = from_db(-cfg.mzm.insertion_loss_db);
  chain.mzm_floor = from_db(-cfg.mzm.extinction_ratio_db);
  chain.resp = cfg.bank.photodiode.responsivity;
  chain.denom_current = chain.resp * chain.p0 * chain.bcast * chain.mzm_loss *
                        (1.0 - chain.mzm_floor);
  chain.dark_power = chain.p0 * chain.bcast * chain.mzm_loss * chain.mzm_floor;
  return chain;
}

/// Quantize a signed weight in [-1, 1] through the kernel-weight DAC.
double quantize_weight(const elec::Dac& dac, double w) {
  return dac.convert((w + 1.0) / 2.0) * 2.0 - 1.0;
}

struct CalibrationError {
  double sum = 0.0;
  double max = 0.0;
  std::uint64_t count = 0;
  void add(double err) {
    sum += err;
    if (err > max) max = err;
    ++count;
  }
  /// Fill the calibration-error mean and max of `st`.
  void report(EngineStats& st) const {
    if (count == 0) return;
    st.mean_calibration_error = sum / static_cast<double>(count);
    st.max_calibration_error = max;
  }
};

/// ADC full scale for the normalized MAC values of a layer, in units of
/// sum_i x'_i * w'_i with x' in [0, 1] and |w'| <= 1.
///
/// A real deployment programs the back-end gain per layer from known weight
/// and input statistics (the weights are on-chip already and the input
/// buffer is observable); we model that range calibration as
///   fs = headroom * sqrt(N * E[x'^2] * E[w'^2]),
/// i.e. `headroom` standard deviations of the zero-mean random-sum model.
double adc_full_scale(double headroom, std::size_t n_channels,
                      double mean_x_sq, double mean_w_sq) {
  const double variance =
      static_cast<double>(n_channels) * mean_x_sq * mean_w_sq;
  return std::max(1e-6, headroom * std::sqrt(variance));
}

/// Mean square of a range of values after dividing by `scale`.
template <typename Range>
double mean_square_scaled(const Range& values, double scale) {
  if (values.empty() || scale == 0.0) return 0.0;
  double acc = 0.0;
  for (double v : values) {
    const double x = v / scale;
    acc += x * x;
  }
  return acc / static_cast<double>(values.size());
}

// --- noise ---------------------------------------------------------------

/// The key of one noisy sweep pass or fully_connected call: one draw from
/// the engine RNG when noise is on (bw > 0), none otherwise.
std::uint64_t noise_key(Rng& rng, double bw) {
  return bw > 0.0 ? rng.next_u64() : 0;
}

/// Laser RIN sigma over `bw`: the expression of LaserDiode::emit, whose
/// sample is max(0, p0 + sigma * z).
double rin_sigma(const PcnnaConfig& cfg, double p0, double bw) {
  return bw > 0.0 ? p0 * std::sqrt(from_db(cfg.laser.rin_db_per_hz) * bw)
                  : 0.0;
}

/// Replicates BalancedPhotodiode::detect bit for bit while sourcing the
/// standard normals from `z`: each branch computes its ideal current, then
/// adds sigma * z when its noise sigma is nonzero (plus branch first).
/// Shot-only noise with zero dark current draws nothing for a branch whose
/// current is exactly zero, so a pixel's draw count can depend on its data;
/// each pixel owns its stream, so that never shifts another pixel's noise.
template <bool kNoise>
inline double detect_balanced(const phot::BalancedPhotodiode& pd,
                              double p_drop, double p_thru, double bw,
                              NormalStream& z) {
  double cur_p = pd.plus_branch().ideal_current(p_drop);
  double cur_m = pd.minus_branch().ideal_current(p_thru);
  if constexpr (kNoise) {
    const double sp = pd.plus_branch().noise_sigma(cur_p, bw);
    if (sp != 0.0) cur_p = cur_p + sp * z.next();
    const double sm = pd.minus_branch().noise_sigma(cur_m, bw);
    if (sm != 0.0) cur_m = cur_m + sm * z.next();
  }
  return cur_p - cur_m;
}

/// Normals one balanced-detect branch draws per sample (the nominal count
/// EngineStats::noise_draws reports).
std::size_t pd_draws_per_branch(const phot::PhotodiodeConfig& pd) {
  return (pd.enable_shot_noise || pd.enable_thermal_noise) ? 1 : 0;
}

/// Per-layer constants of one pixel sweep, shared read-only by all workers.
struct SweepCtx {
  const GroupSlice* groups = nullptr;
  std::size_t n_groups = 0;
  const double* plane = nullptr; ///< padded transfer plane
  /// Gather offsets of the receptive field (per-channel allocation: from
  /// channel c's first entry, offsets + c * m * m).
  const std::size_t* offsets = nullptr;
  std::size_t side = 0;    ///< output feature-map side
  std::size_t stride = 1;
  std::size_t plane_w = 0; ///< padded plane row length W + 2p
  const double* drop_t = nullptr;
  const double* thru_t = nullptr;
  const double* baseline = nullptr;
  const std::size_t* group_base = nullptr;
  std::size_t K = 0;
  std::size_t pixels = 0;
  double bcast = 1.0;
  double laser_mean = 0.0;
  double laser_sigma = 0.0;
  double p_src0 = 0.0; ///< noise-free modulated source power (p0 * bcast)
  const phot::BalancedPhotodiode* pd = nullptr;
  double bw = 0.0;
  double denom_current = 1.0;
  bool quantize = false;
  const elec::Adc* adc = nullptr;
  double adc_fs = 1.0;
  double recover = 1.0;
  const double* bias = nullptr; ///< null when the layer has no bias
  double* out = nullptr;
  /// Full-kernel: analog wire-sum across groups, one ADC sample per kernel
  /// (false). Per-channel: every pass is digitized and accumulated into
  /// `out` electronically (true).
  bool accumulate = false;
};

// --- MAC kernel ------------------------------------------------------------

/// Kernels per panel of a bank program (see panel_index).
constexpr std::size_t kPanel = 8;

/// Offset of channel i, kernel k within one group's block of a bank
/// program, for a pass of `width` channels and K kernels. The block is cut
/// into panels of kPanel kernels (the last one K % kPanel wide); a panel is
/// channel-major and contiguous, so the MAC kernel reads it as one linear
/// stream whatever K is.
inline std::size_t panel_index(std::size_t width, std::size_t K, std::size_t i,
                               std::size_t k) {
  const std::size_t k0 = k - k % kPanel;
  return k0 * width + i * std::min(kPanel, K - k0) + (k - k0);
}

/// Two doubles in one SSE2 register (the build sets no -march, so SSE2 is
/// the x86-64 baseline).
using v2d = double __attribute__((vector_size(16)));

inline v2d load2(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, v2d v) { std::memcpy(p, &v, sizeof v); }

/// Rank-1 MAC of one N-kernel panel over `width` channels: the N drop and N
/// through accumulators stay in registers across the channels. Each lane is
/// its own accumulator that starts at 0.0 and adds p * w channel-ascending
/// with a separate multiply and add, so every value is bit-identical to the
/// scalar loop `acc[k] += p[i] * w[i][k]`.
template <std::size_t N>
inline void mac_panel(std::size_t width, const double* __restrict powers,
                      const double* __restrict dr, const double* __restrict th,
                      double* __restrict dacc, double* __restrict tacc) {
  constexpr std::size_t V = N / 2;
  v2d d[V + 1] = {}, t[V + 1] = {}; // + 1: N = 1 has no vector lane
  double ds = 0.0, ts = 0.0; // the odd lane of an odd N
  for (std::size_t i = 0; i < width; ++i, dr += N, th += N) {
    const double p = powers[i];
    const v2d pv = {p, p};
    for (std::size_t v = 0; v < V; ++v) {
      d[v] = d[v] + pv * load2(dr + 2 * v);
      t[v] = t[v] + pv * load2(th + 2 * v);
    }
    if constexpr (N % 2 == 1) {
      ds = ds + p * dr[N - 1];
      ts = ts + p * th[N - 1];
    }
  }
  for (std::size_t v = 0; v < V; ++v) {
    store2(dacc + 2 * v, d[v]);
    store2(tacc + 2 * v, t[v]);
  }
  if constexpr (N % 2 == 1) {
    dacc[N - 1] = ds;
    tacc[N - 1] = ts;
  }
}

/// The engine's one MAC kernel: the K drop/through dot products of one
/// group pass of `width` channels over the group's panel-laid program.
inline void mac_group(std::size_t K, std::size_t width, const double* powers,
                      const double* drop, const double* thru, double* dacc,
                      double* tacc) {
  std::size_t k0 = 0;
  for (; k0 + kPanel <= K; k0 += kPanel)
    mac_panel<kPanel>(width, powers, drop + k0 * width, thru + k0 * width,
                      dacc + k0, tacc + k0);
  drop += k0 * width;
  thru += k0 * width;
  dacc += k0;
  tacc += k0;
  switch (K - k0) {
  case 1: mac_panel<1>(width, powers, drop, thru, dacc, tacc); break;
  case 2: mac_panel<2>(width, powers, drop, thru, dacc, tacc); break;
  case 3: mac_panel<3>(width, powers, drop, thru, dacc, tacc); break;
  case 4: mac_panel<4>(width, powers, drop, thru, dacc, tacc); break;
  case 5: mac_panel<5>(width, powers, drop, thru, dacc, tacc); break;
  case 6: mac_panel<6>(width, powers, drop, thru, dacc, tacc); break;
  case 7: mac_panel<7>(width, powers, drop, thru, dacc, tacc); break;
  default: break;
  }
}

/// One kernel location: modulate the receptive field, run all K banks, and
/// digitize. Identical value sequence and per-pixel draw order to the
/// reference engine's per-pixel body; the normals come from `z`.
template <bool kNoise>
void conv_pixel(const SweepCtx& c, std::size_t p, NormalStream& z,
                EngineScratch::Worker& wk) {
  const std::size_t oy = p / c.side;
  const std::size_t ox = p % c.side;
  const double* field = c.plane + oy * c.stride * c.plane_w + ox * c.stride;
  double* powers = wk.powers();
  double* dacc = wk.drop_acc();
  double* tacc = wk.thru_acc();
  double* acc = wk.acc();
  if (!c.accumulate) std::fill(acc, acc + c.K, 0.0);

  for (std::size_t g = 0; g < c.n_groups; ++g) {
    const GroupSlice& slice = c.groups[g];
    const std::size_t width = slice.size();
    // Modulate this group's input slice: gather from the padded transfer
    // plane through the layer's offset table.
    const std::size_t* off = c.offsets + slice.begin;
    for (std::size_t i = 0; i < width; ++i) {
      const double tf = field[off[i]];
      if constexpr (kNoise) {
        const double emit =
            std::max(0.0, c.laser_mean + c.laser_sigma * z.next());
        powers[i] = emit * c.bcast * tf;
      } else {
        powers[i] = c.p_src0 * tf;
      }
    }

    // K independent drop/through accumulation chains over the group's
    // panels; each chain adds channel-ascending, exactly like the reference
    // inner loop.
    mac_group(c.K, width, powers, c.drop_t + c.group_base[g],
              c.thru_t + c.group_base[g], dacc, tacc);

    const double* base = c.baseline + g * c.K;
    if (!c.accumulate) {
      for (std::size_t k = 0; k < c.K; ++k) {
        const double current =
            detect_balanced<kNoise>(*c.pd, dacc[k], tacc[k], c.bw, z);
        acc[k] += (current - base[k]) / c.denom_current;
      }
    } else {
      // Per-channel partial sums are digitized every pass and accumulated
      // electronically.
      for (std::size_t k = 0; k < c.K; ++k) {
        const double current =
            detect_balanced<kNoise>(*c.pd, dacc[k], tacc[k], c.bw, z);
        double v = (current - base[k]) / c.denom_current;
        if (c.quantize) v = c.adc->convert(v / c.adc_fs) * c.adc_fs;
        c.out[k * c.pixels + p] += v;
      }
    }
  }

  if (!c.accumulate) {
    // Segment currents wire-sum in analog; one ADC sample per kernel.
    for (std::size_t k = 0; k < c.K; ++k) {
      double v = acc[k];
      if (c.quantize) v = c.adc->convert(v / c.adc_fs) * c.adc_fs;
      const double b = c.bias ? c.bias[k] : 0.0;
      c.out[k * c.pixels + p] = v * c.recover + b;
    }
  }
}

/// Run conv_pixel over the pixels of tile `w` of `workers`.
template <bool kNoise>
void sweep_tile(const SweepCtx& ctx, std::size_t w, std::size_t workers,
                std::uint64_t key, EngineScratch::Worker& wk) {
  const ZigguratTables& zig = ziggurat_tables();
  const std::size_t end = ThreadPool::chunk_begin(ctx.pixels, w + 1, workers);
  for (std::size_t p = ThreadPool::chunk_begin(ctx.pixels, w, workers);
       p < end; ++p) {
    NormalStream z(NormalStream::element_key(key, p), zig);
    conv_pixel<kNoise>(ctx, p, z, wk);
  }
}

/// Drive conv_pixel over all kernel locations in fixed contiguous pixel
/// tiles, one per worker (inline when there is one). With noise on, pixel p
/// draws from the stream keyed by (key, p), so its bits do not depend on the
/// tiling.
void sweep_pixels(const SweepCtx& ctx, std::size_t workers,
                  std::uint64_t key, EngineScratch& scratch,
                  ThreadPool* pool) {
  // The pool may hold more threads than this layer's effective worker
  // count (small output maps clamp it); surplus workers no-op.
  const auto tile = [&](std::size_t w) {
    if (w >= workers) return;
    if (ctx.bw > 0.0) {
      sweep_tile<true>(ctx, w, workers, key, scratch.workers[w]);
    } else {
      sweep_tile<false>(ctx, w, workers, key, scratch.workers[w]);
    }
  };
  if (workers == 1) {
    tile(0);
  } else {
    pool->run(tile);
  }
}

/// One layer's calibrated bank program: everything bank set-up produces.
/// Structure-of-arrays layout with one block per programming pass (one for
/// full-kernel, one per input channel for per-channel, one per input slice
/// for fully_connected): in pass block b the drop/through response of
/// group g, channel i, kernel k lives at
/// b * pass_size() + group_base[g] + panel_index(width, K, i, k), where
/// width is the pass's channel count in that group (K-panels, so the MAC
/// kernel streams each panel linearly), and the balanced baseline current
/// at baseline[(b * groups() + g) * K + k].
struct ProgrammedLayer {
  std::vector<double> drop_t, thru_t, baseline;
  std::vector<std::size_t> group_base;
  std::size_t K = 0;
  std::size_t passes = 0;
  std::size_t bytes = 0; ///< program_bytes() of the layout
  /// measured_usable_range of one group-width bank.
  double usable = 0.0;
  /// The weight statistics the layer's scaling reads: the weights' abs_max
  /// and the mean square of weights / w_absmax. Pure functions of the
  /// weights, so a warm call reads them instead of passing over the
  /// weights twice more.
  double w_absmax = 0.0;
  double w_mean_sq = 0.0;
  /// Set-up counters a warm call replays: banks_built, stuck_rings,
  /// total_heater_power, total_ring_area and the calibration-error mean
  /// and max.
  EngineStats setup;

  std::size_t groups() const { return group_base.size() - 1; }
  std::size_t pass_size() const { return group_base.back(); }
  /// Block of pass `c`: a program sized for one pass (a layer the store
  /// does not keep) reprograms its only block for every pass.
  std::size_t block(std::size_t c) const { return passes == 1 ? 0 : c; }
};

/// Bytes of a program of `passes` passes over `groups`, K banks per group.
std::size_t program_bytes(const std::vector<GroupSlice>& groups,
                          std::size_t K, std::size_t passes) {
  std::size_t rings = 0;
  for (const GroupSlice& g : groups) rings += g.size();
  return passes * (2 * rings + groups.size()) * K * sizeof(double) +
         (groups.size() + 1) * sizeof(std::size_t);
}

void size_program(const std::vector<GroupSlice>& groups, std::size_t K,
                  std::size_t passes, ProgrammedLayer& prog) {
  const std::size_t G = groups.size();
  prog.group_base.assign(G + 1, 0);
  for (std::size_t g = 0; g < G; ++g)
    prog.group_base[g + 1] = prog.group_base[g] + groups[g].size() * K;
  prog.K = K;
  prog.passes = passes;
  prog.bytes = program_bytes(groups, K, passes);
  prog.drop_t.assign(passes * prog.pass_size(), 0.0);
  prog.thru_t.assign(passes * prog.pass_size(), 0.0);
  prog.baseline.assign(passes * G * K, 0.0);
}

/// Program one bank with its weight slice `w` (bank.channels() values) and
/// flatten the calibrated response into pass block `b`, group g, kernel k
/// of `prog`. The only bank-programming routine of the engine: identical
/// value sequence to the reference engine's per-bank programming block.
void program_bank_soa(phot::WeightBank& bank, const double* w, std::size_t g,
                      std::size_t k, std::size_t b, double w_absmax,
                      double denom, bool quantize,
                      const elec::Dac& weight_dac, const AnalogChain& chain,
                      EngineScratch& s, ProgrammedLayer& prog,
                      CalibrationError& cal_err) {
  const std::size_t width = bank.channels();
  const std::size_t K = prog.K;

  s.targets.resize(width);
  for (std::size_t i = 0; i < width; ++i) {
    double t = w[i] / w_absmax * denom;
    if (quantize) t = quantize_weight(weight_dac, t);
    s.targets[i] = t;
  }
  s.splits.resize(width);
  bank.calibrate(s.targets, s.splits);
  for (std::size_t i = 0; i < width; ++i)
    cal_err.add(std::abs((s.splits[i].drop - s.splits[i].thru) - s.targets[i]));

  double base = 0.0;
  for (const auto& split : s.splits)
    base += chain.dark_power * (split.drop - split.thru);
  prog.baseline[(b * prog.groups() + g) * K + k] = chain.resp * base;
  const std::size_t gb = b * prog.pass_size() + prog.group_base[g];
  for (std::size_t i = 0; i < width; ++i) {
    prog.drop_t[gb + panel_index(width, K, i, k)] = s.splits[i].drop;
    prog.thru_t[gb + panel_index(width, K, i, k)] = s.splits[i].thru;
  }
}

/// Replay a program's set-up counters into one call's stats (whose set-up
/// fields are still zero, so the sums are exact).
void add_setup(EngineStats& st, const EngineStats& setup) {
  st.banks_built += setup.banks_built;
  st.stuck_rings += setup.stuck_rings;
  st.total_heater_power += setup.total_heater_power;
  st.total_ring_area += setup.total_ring_area;
  st.mean_calibration_error = setup.mean_calibration_error;
  st.max_calibration_error = setup.max_calibration_error;
}

enum class ProgramKind : std::uint8_t {
  kFullKernel,
  kPerChannel,
  kFullyConnected
};

/// What bank programming reads besides the engine's fixed config.
struct ProgramKey {
  ProgramKind kind = ProgramKind::kFullKernel;
  nn::Shape4 shape;
  std::uint64_t digest = 0; ///< weight_digest of the weight tensor
  std::uint64_t group_size = 0;
  std::vector<GroupSlice> groups;

  friend bool operator==(const ProgramKey&, const ProgramKey&) = default;
};

/// Word-at-a-time digest of the values' bit patterns: eight independent
/// lanes of h' = rotl(h ^ w, 29) * P (one multiply per word), then a
/// SplitMix64 fold. Every step is a bijection of its state for a fixed
/// input word, and of the word for a fixed state, so changing any one value
/// always changes the digest.
std::uint64_t weight_digest(std::span<const double> values) {
  constexpr std::uint64_t kP = 0x9E3779B185EBCA87ull;
  constexpr std::size_t kLanes = 8;
  std::uint64_t lane[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) lane[j] = mix64(j + 1);
  const auto round = [](std::uint64_t h, double v) {
    return std::rotl(h ^ std::bit_cast<std::uint64_t>(v), 29) * kP;
  };
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (std::size_t j = 0; j < kLanes; ++j)
      lane[j] = round(lane[j], values[i + j]);
  for (; i < n; ++i) lane[i % kLanes] = round(lane[i % kLanes], values[i]);
  std::uint64_t h = n;
  for (const std::uint64_t l : lane) h = mix64(h ^ l);
  return h;
}

} // namespace

/// The programmed-layer store of one engine: stored programs in insertion
/// order, never evicted, at most OpticalConvEngine::kProgramStoreCap bytes.
class ProgramStore {
 public:
  const ProgrammedLayer* find(const ProgramKey& key) const {
    for (const Entry& e : entries_)
      if (e.key == key) return &e.program;
    return nullptr;
  }
  bool fits(std::size_t bytes) const {
    return bytes_ + bytes <= OpticalConvEngine::kProgramStoreCap;
  }
  void insert(ProgramKey key, ProgrammedLayer program) {
    bytes_ += program.bytes;
    entries_.push_back({std::move(key), std::move(program)});
  }
  std::size_t bytes() const { return bytes_; }

 private:
  struct Entry {
    ProgramKey key;
    ProgrammedLayer program;
  };
  std::vector<Entry> entries_;
  std::size_t bytes_ = 0;
};

namespace {

/// Where one call's bank program comes from.
struct ProgramSource {
  const ProgrammedLayer* stored = nullptr; ///< warm: read this in place
  bool keep = false; ///< cold, and the new program joins the store after
  ProgramKey key;    ///< filled when set-up is storable
};

/// The store lookup every programming site shares. Set-up is a pure
/// function of the key (and the engine's fixed config) exactly when it
/// draws nothing from the RNG: no fabrication disorder, no stuck rings.
/// Otherwise, or when the full program (`bytes`) could not fit the cap,
/// the call programs cold and stores nothing.
ProgramSource find_program(const PcnnaConfig& cfg, const ProgramStore* store,
                           ProgramKind kind, const nn::Tensor& weights,
                           std::uint64_t group_size,
                           const std::vector<GroupSlice>& groups,
                           std::size_t bytes) {
  ProgramSource src;
  const bool pure =
      cfg.bank.ring.fab_sigma == 0.0 && cfg.stuck_ring_rate == 0.0;
  if (!pure || bytes > OpticalConvEngine::kProgramStoreCap) return src;
  src.key = ProgramKey{kind, weights.shape(), weight_digest(weights.data()),
                       group_size, groups};
  src.stored = store ? store->find(src.key) : nullptr;
  src.keep = !src.stored && (!store || store->fits(bytes));
  return src;
}

void keep_program(std::unique_ptr<ProgramStore>& store, ProgramKey key,
                  ProgrammedLayer program) {
  if (!store) store = std::make_unique<ProgramStore>();
  store->insert(std::move(key), std::move(program));
}

/// Point the sweep at pass block `b` of `prog`.
void point_at_block(SweepCtx& ctx, const ProgrammedLayer& prog,
                    std::size_t b) {
  ctx.drop_t = prog.drop_t.data() + b * prog.pass_size();
  ctx.thru_t = prog.thru_t.data() + b * prog.pass_size();
  ctx.baseline = prog.baseline.data() + b * prog.groups() * prog.K;
  ctx.group_base = prog.group_base.data();
}

/// Fill the read-only sweep context from already-sized scratch (the bank
/// program is attached by point_at_block).
SweepCtx make_sweep_ctx(const LayerPlan& plan, const PcnnaConfig& cfg,
                        const AnalogChain& chain,
                        const phot::BalancedPhotodiode& pd,
                        const elec::Adc& adc, double bw, double adc_fs,
                        double recover, bool accumulate,
                        const nn::Tensor& bias, nn::Tensor& out,
                        EngineScratch& s) {
  SweepCtx ctx;
  ctx.groups = plan.groups.data();
  ctx.n_groups = plan.groups.size();
  ctx.plane = s.transfer.data();
  ctx.offsets = s.offsets.data();
  ctx.side = plan.layer.output_side();
  ctx.stride = plan.layer.s;
  ctx.plane_w = plan.layer.n + 2 * plan.layer.p;
  ctx.K = plan.layer.K;
  ctx.pixels = ctx.side * ctx.side;
  ctx.bcast = chain.bcast;
  ctx.laser_mean = chain.p0;
  ctx.laser_sigma = rin_sigma(cfg, chain.p0, bw);
  ctx.p_src0 = chain.p0 * chain.bcast;
  ctx.pd = &pd;
  ctx.bw = bw;
  ctx.denom_current = chain.denom_current;
  ctx.quantize = cfg.enable_quantization;
  ctx.adc = &adc;
  ctx.adc_fs = adc_fs;
  ctx.recover = recover;
  // Per-channel passes (accumulate) add the bias during the final rescale
  // instead.
  ctx.bias = (!accumulate && !bias.empty()) ? bias.data().data() : nullptr;
  ctx.out = out.data().data();
  ctx.accumulate = accumulate;
  return ctx;
}

/// Per-layer patch-streaming precompute: normalize, DAC-quantize, and push
/// every input element through the MZM transfer exactly once, into the
/// padded plane (border = the transfer of a zero-padded element), and build
/// the receptive field's gather offsets into it.
void precompute_transfer(const nn::Tensor& input,
                         const nn::ConvLayerParams& layer, double x_scale,
                         bool quantize, const elec::Dac& dac,
                         const phot::MachZehnderModulator& mzm,
                         EngineScratch& s) {
  double xp = 0.0 / x_scale;
  if (quantize) xp = dac.convert(xp);
  const double transfer_pad = mzm.transmit_fraction(xp);

  const nn::Shape4& in = input.shape();
  const std::size_t pad = layer.p;
  const std::size_t pw = in.w + 2 * pad;
  const std::size_t ph = in.h + 2 * pad;
  s.transfer.assign(in.c * ph * pw, transfer_pad);
  const double* src = input.data().data();
  for (std::size_t c = 0; c < in.c; ++c) {
    for (std::size_t y = 0; y < in.h; ++y) {
      double* row = s.transfer.data() + (c * ph + y + pad) * pw + pad;
      for (std::size_t x = 0; x < in.w; ++x) {
        double v = *src++ / x_scale;
        if (quantize) v = dac.convert(v);
        row[x] = mzm.transmit_fraction(v);
      }
    }
  }

  s.offsets.resize(layer.kernel_size());
  std::size_t* off = s.offsets.data();
  for (std::size_t c = 0; c < layer.nc; ++c)
    for (std::size_t ky = 0; ky < layer.m; ++ky)
      for (std::size_t kx = 0; kx < layer.m; ++kx)
        *off++ = (c * ph + ky) * pw + kx;
}

} // namespace

void inject_stuck_faults(const PcnnaConfig& cfg, phot::WeightBank& bank,
                         Rng& rng, EngineStats& st) {
  if (cfg.stuck_ring_rate <= 0.0) return;
  for (std::size_t i = 0; i < bank.channels(); ++i) {
    if (rng.uniform() < cfg.stuck_ring_rate) {
      bank.fail_ring(i);
      ++st.stuck_rings;
    }
  }
}

double measured_usable_range(const PcnnaConfig& cfg, std::size_t channels,
                             Rng& rng) {
  PCNNA_CHECK(channels >= 1);
  const phot::WdmGrid grid(channels);
  phot::WeightBank bank(grid, cfg.bank, rng);
  return measured_usable_range(bank);
}

double measured_usable_range(phot::WeightBank& bank) {
  const std::size_t channels = bank.channels();
  PCNNA_CHECK(channels >= 1);
  const std::size_t mid = channels / 2;
  const std::vector<double> hi(channels, 1.0);
  bank.calibrate(hi);
  const double w_hi = bank.effective_weight(mid);
  const std::vector<double> lo(channels, -1.0);
  bank.calibrate(lo);
  const double w_lo = bank.effective_weight(mid);
  return std::min(w_hi, -w_lo);
}

OpticalConvEngine::OpticalConvEngine(PcnnaConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  config_.validate();
}

OpticalConvEngine::~OpticalConvEngine() = default;
OpticalConvEngine::OpticalConvEngine(OpticalConvEngine&&) noexcept = default;
OpticalConvEngine& OpticalConvEngine::operator=(OpticalConvEngine&&) noexcept =
    default;

std::size_t OpticalConvEngine::programmed_bytes() const {
  return store_ ? store_->bytes() : 0;
}

std::size_t OpticalConvEngine::prepare_workers(std::size_t pixels,
                                               std::size_t group_size,
                                               std::size_t K) {
  const std::size_t n =
      std::max<std::size_t>(1, std::min(config_.engine_threads, pixels));
  // The pool is created once at full engine_threads size and kept for the
  // engine's lifetime; layers whose pixel count clamps the effective worker
  // count below that leave the surplus workers idle for the sweep (see
  // sweep_pixels) instead of respawning threads per layer.
  if (n > 1 && !pool_)
    pool_ = std::make_unique<ThreadPool>(config_.engine_threads);
  scratch_.workers.resize(n);
  for (EngineScratch::Worker& w : scratch_.workers) w.resize(group_size, K);
  return n;
}

nn::Tensor OpticalConvEngine::conv2d(const nn::Tensor& input,
                                     const nn::Tensor& weights,
                                     const nn::Tensor& bias,
                                     std::size_t stride, std::size_t pad,
                                     EngineStats* stats) {
  PCNNA_CHECK_MSG(input.shape().n == 1, "batched inputs not supported");
  PCNNA_CHECK_MSG(input.shape().h == input.shape().w,
                  "PCNNA layers operate on square feature maps");
  if (!input.empty() && input.min() < 0.0) {
    PCNNA_CHECK_MSG(config_.dual_rail_inputs,
                    "photonic amplitude encoding requires non-negative inputs"
                    " (apply ReLU or normalize first, or enable"
                    " dual_rail_inputs)");
    // Dual-rail: x = x+ - x-; both halves are non-negative, so each runs on
    // the single-rail path; results subtract electronically. The bias rides
    // on the positive rail only.
    nn::Tensor pos(input.shape()), neg(input.shape());
    for (std::size_t i = 0; i < input.size(); ++i) {
      pos[i] = std::max(0.0, input[i]);
      neg[i] = std::max(0.0, -input[i]);
    }
    EngineStats pos_stats, neg_stats;
    nn::Tensor out = conv2d(pos, weights, bias, stride, pad, &pos_stats);
    const nn::Tensor out_neg = conv2d(neg, weights, {}, stride, pad, &neg_stats);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] -= out_neg[i];
    if (stats) {
      *stats = pos_stats;
      stats->optical_passes += neg_stats.optical_passes;
      stats->dac_conversions += neg_stats.dac_conversions;
      stats->adc_conversions += neg_stats.adc_conversions;
      stats->banks_built += neg_stats.banks_built;
      stats->stuck_rings += neg_stats.stuck_rings;
      stats->patches_streamed += neg_stats.patches_streamed;
      stats->noise_draws += neg_stats.noise_draws;
    }
    return out;
  }
  PCNNA_CHECK(weights.shape().c == input.shape().c);
  PCNNA_CHECK(weights.shape().h == weights.shape().w);

  nn::ConvLayerParams params;
  params.name = "engine";
  params.n = input.shape().h;
  params.m = weights.shape().h;
  params.p = pad;
  params.s = stride;
  params.nc = input.shape().c;
  params.K = weights.shape().n;
  params.validate();

  const Scheduler scheduler(config_);
  const LayerPlan plan = scheduler.plan(params);

  EngineStats local;
  EngineStats& st = stats ? *stats : local;
  st = EngineStats{};
  st.locations = plan.locations;
  st.dac_conversions = plan.input_dac_conversions;
  st.weight_dac_conversions = plan.weight_dac_conversions;
  st.recalibrations = plan.recalibrations;
  st.rings_used = plan.rings_total;
  st.wavelengths_used = plan.group_size;

  nn::Tensor out = plan.allocation == RingAllocation::kFullKernel
                       ? run_full_kernel(plan, input, weights, bias, st)
                       : run_per_channel(plan, input, weights, bias, st);
  return out;
}

nn::Tensor OpticalConvEngine::run_full_kernel(const LayerPlan& plan,
                                              const nn::Tensor& input,
                                              const nn::Tensor& weights,
                                              const nn::Tensor& bias,
                                              EngineStats& stats) {
  const nn::ConvLayerParams& layer = plan.layer;
  const std::size_t K = layer.K;
  const std::size_t n_kernel = layer.kernel_size();
  const std::size_t side = layer.output_side();
  const std::size_t pixels = side * side;

  nn::Tensor out(nn::Shape4{1, K, side, side});

  ProgramSource src = find_program(
      config_, store_.get(), ProgramKind::kFullKernel, weights,
      plan.group_size, plan.groups, program_bytes(plan.groups, K, 1));
  ProgrammedLayer fresh;
  const ProgrammedLayer& prog = src.stored ? *src.stored : fresh;
  if (!src.stored) fresh.w_absmax = weights.abs_max();

  // Electronic scaling: inputs normalized to [0, 1], weights to the bank's
  // representable range; the product is undone after detection.
  const double x_scale = input.abs_max();
  const double w_absmax = prog.w_absmax;
  if (x_scale == 0.0 || w_absmax == 0.0) {
    for (std::size_t k = 0; k < K; ++k) {
      const double b = bias.empty() ? 0.0 : bias.at(0, k, 0, 0);
      for (std::size_t l = 0; l < pixels; ++l) out[k * pixels + l] = b;
    }
    return out;
  }

  const AnalogChain chain = make_chain(config_, K);
  const phot::MachZehnderModulator mzm(config_.mzm);
  const phot::BalancedPhotodiode pd(config_.bank.photodiode);
  const elec::Dac input_dac(config_.input_dac);
  const elec::Dac weight_dac(config_.weight_dac);
  elec::AdcConfig adc_cfg = config_.adc;
  adc_cfg.full_scale = 1.0;
  const elec::Adc adc(adc_cfg);

  const std::size_t G = plan.groups.size();
  if (!src.stored) {
    fresh.w_mean_sq = mean_square_scaled(weights.data(), w_absmax);
    // Probe the representable weight range with a scratch bank of the same
    // width as the widest group.
    fresh.usable = measured_usable_range(config_, plan.group_size, rng_);
    PCNNA_CHECK_MSG(fresh.usable > 0.0,
                    "weight bank has no usable signed range");
  }
  const double denom = 0.95 * prog.usable;
  const double recover = x_scale * w_absmax / denom;

  if (!src.stored) {
    // --- Program every bank segment once (weights are fixed for the
    // layer), flattening calibrated responses straight into transposed SoA
    // form.
    size_program(plan.groups, K, 1, fresh);
    CalibrationError cal_err;
    for (std::size_t g = 0; g < G; ++g) {
      const phot::WdmGrid grid(plan.groups[g].size());
      for (std::size_t k = 0; k < K; ++k) {
        phot::WeightBank bank(grid, config_.bank, rng_);
        inject_stuck_faults(config_, bank, rng_, fresh.setup);
        program_bank_soa(bank,
                         weights.data().data() + k * n_kernel +
                             plan.groups[g].begin,
                         g, k, /*b=*/0, w_absmax, denom,
                         config_.enable_quantization, weight_dac, chain,
                         scratch_, fresh, cal_err);
        ++fresh.setup.banks_built;
        fresh.setup.total_heater_power += bank.total_heater_power();
        fresh.setup.total_ring_area += bank.total_area();
      }
    }
    cal_err.report(fresh.setup);
  }
  add_setup(stats, prog.setup);

  const double bw = config_.enable_noise ? config_.fast_clock : 0.0;
  // Per-layer ADC range calibration from weight and input statistics.
  const double mean_w_sq = prog.w_mean_sq * denom * denom;
  const double mean_x_sq = mean_square_scaled(input.data(), x_scale);
  const double adc_fs =
      adc_full_scale(config_.adc_headroom, n_kernel, mean_x_sq, mean_w_sq);

  precompute_transfer(input, layer, x_scale, config_.enable_quantization,
                      input_dac, mzm, scratch_);

  const std::size_t branch_draws = pd_draws_per_branch(config_.bank.photodiode);
  const std::size_t draws_per_pixel = n_kernel + 2 * branch_draws * K * G;
  const std::size_t workers = prepare_workers(pixels, plan.group_size, K);
  SweepCtx ctx =
      make_sweep_ctx(plan, config_, chain, pd, adc, bw, adc_fs, recover,
                     /*accumulate=*/false, bias, out, scratch_);
  point_at_block(ctx, prog, 0);

  sweep_pixels(ctx, workers, noise_key(rng_, bw), scratch_, pool_.get());
  // One bank pass per group and one ADC sample per kernel at each pixel.
  stats.optical_passes += pixels * G;
  stats.adc_conversions += pixels * K;
  stats.patches_streamed += pixels;
  if (bw > 0.0) stats.noise_draws += pixels * draws_per_pixel;

  if (src.keep) keep_program(store_, std::move(src.key), std::move(fresh));
  return out;
}

nn::Tensor OpticalConvEngine::run_per_channel(const LayerPlan& plan,
                                              const nn::Tensor& input,
                                              const nn::Tensor& weights,
                                              const nn::Tensor& bias,
                                              EngineStats& stats) {
  const nn::ConvLayerParams& layer = plan.layer;
  const std::size_t K = layer.K;
  const std::size_t n_kernel = layer.kernel_size();
  const std::size_t per_channel = layer.m * layer.m;
  const std::size_t side = layer.output_side();
  const std::size_t pixels = side * side;

  nn::Tensor out(nn::Shape4{1, K, side, side});

  ProgramSource src = find_program(
      config_, store_.get(), ProgramKind::kPerChannel, weights,
      plan.group_size, plan.groups, program_bytes(plan.groups, K, layer.nc));
  ProgrammedLayer fresh;
  const ProgrammedLayer& prog = src.stored ? *src.stored : fresh;
  if (!src.stored) fresh.w_absmax = weights.abs_max();

  const double x_scale = input.abs_max();
  const double w_absmax = prog.w_absmax;
  if (x_scale == 0.0 || w_absmax == 0.0) {
    for (std::size_t k = 0; k < K; ++k) {
      const double b = bias.empty() ? 0.0 : bias.at(0, k, 0, 0);
      for (std::size_t l = 0; l < pixels; ++l) out[k * pixels + l] = b;
    }
    return out;
  }

  const AnalogChain chain = make_chain(config_, K);
  const phot::MachZehnderModulator mzm(config_.mzm);
  const phot::BalancedPhotodiode pd(config_.bank.photodiode);
  const elec::Dac input_dac(config_.input_dac);
  const elec::Dac weight_dac(config_.weight_dac);
  elec::AdcConfig adc_cfg = config_.adc;
  adc_cfg.full_scale = 1.0;
  const elec::Adc adc(adc_cfg);

  const std::size_t G = plan.groups.size();
  if (!src.stored) {
    fresh.w_mean_sq = mean_square_scaled(weights.data(), w_absmax);
    fresh.usable = measured_usable_range(config_, plan.group_size, rng_);
    PCNNA_CHECK_MSG(fresh.usable > 0.0,
                    "weight bank has no usable signed range");
  }
  const double denom = 0.95 * prog.usable;
  const double recover = x_scale * w_absmax / denom;

  // Persistent banks (K per group slice of the m*m block), retuned per
  // channel pass — the physical rings live across recalibrations. A stored
  // program holds every pass; otherwise one block is reprogrammed per pass.
  std::vector<std::vector<phot::WeightBank>> banks;
  if (!src.stored) {
    banks.resize(G);
    for (std::size_t g = 0; g < G; ++g) {
      const phot::WdmGrid grid(plan.groups[g].size());
      banks[g].reserve(K);
      for (std::size_t k = 0; k < K; ++k) {
        banks[g].emplace_back(grid, config_.bank, rng_);
        inject_stuck_faults(config_, banks[g].back(), rng_, fresh.setup);
        ++fresh.setup.banks_built;
        fresh.setup.total_ring_area += banks[g].back().total_area();
      }
    }
    size_program(plan.groups, K, src.keep ? layer.nc : 1, fresh);
  }

  const double bw = config_.enable_noise ? config_.fast_clock : 0.0;
  // Per-layer ADC range calibration (per-channel passes sum m*m terms).
  const double mean_w_sq = prog.w_mean_sq * denom * denom;
  const double mean_x_sq = mean_square_scaled(input.data(), x_scale);
  const double adc_fs =
      adc_full_scale(config_.adc_headroom, per_channel, mean_x_sq, mean_w_sq);

  precompute_transfer(input, layer, x_scale, config_.enable_quantization,
                      input_dac, mzm, scratch_);

  const std::size_t branch_draws = pd_draws_per_branch(config_.bank.photodiode);
  const std::size_t draws_per_pixel = per_channel + 2 * branch_draws * K * G;
  const std::size_t workers = prepare_workers(pixels, plan.group_size, K);
  SweepCtx ctx =
      make_sweep_ctx(plan, config_, chain, pd, adc, bw, adc_fs, recover,
                     /*accumulate=*/true, bias, out, scratch_);

  // Channel-major execution: retune, then sweep all locations.
  CalibrationError cal_err;
  for (std::size_t c = 0; c < layer.nc; ++c) {
    const std::size_t b = prog.block(c);
    if (!src.stored) {
      for (std::size_t g = 0; g < G; ++g) {
        for (std::size_t k = 0; k < K; ++k) {
          program_bank_soa(banks[g][k],
                           weights.data().data() + k * n_kernel +
                               c * per_channel + plan.groups[g].begin,
                           g, k, b, w_absmax, denom,
                           config_.enable_quantization, weight_dac, chain,
                           scratch_, fresh, cal_err);
        }
      }
    }

    point_at_block(ctx, prog, b);
    ctx.offsets = scratch_.offsets.data() + c * per_channel;
    sweep_pixels(ctx, workers, noise_key(rng_, bw), scratch_, pool_.get());
    // Every group's pass is digitized per kernel.
    stats.optical_passes += pixels * G;
    stats.adc_conversions += pixels * G * K;
    stats.patches_streamed += pixels;
    if (bw > 0.0) stats.noise_draws += pixels * draws_per_pixel;
  }

  // Undo scaling and add biases once all channel passes have accumulated.
  for (std::size_t k = 0; k < K; ++k) {
    const double b = bias.empty() ? 0.0 : bias.at(0, k, 0, 0);
    for (std::size_t oy = 0; oy < side; ++oy)
      for (std::size_t ox = 0; ox < side; ++ox)
        out.at(0, k, oy, ox) = out.at(0, k, oy, ox) * recover + b;
  }

  for (const auto& group : banks)
    for (const auto& bank : group)
      fresh.setup.total_heater_power += bank.total_heater_power();
  cal_err.report(fresh.setup);
  add_setup(stats, prog.setup);

  if (src.keep) keep_program(store_, std::move(src.key), std::move(fresh));
  return out;
}

nn::Tensor OpticalConvEngine::fully_connected(const nn::Tensor& input,
                                              const nn::Tensor& weights,
                                              const nn::Tensor& bias,
                                              EngineStats* stats) {
  const std::size_t in = input.size();
  const std::size_t out_n = weights.shape().n;
  PCNNA_CHECK_MSG(weights.shape().c == in && weights.shape().h == 1 &&
                      weights.shape().w == 1,
                  "FC weights must be [out, in, 1, 1] with in == input size");
  PCNNA_CHECK_MSG(input.min() >= 0.0,
                  "photonic amplitude encoding requires non-negative inputs");
  if (!bias.empty()) PCNNA_CHECK(bias.size() == out_n);

  EngineStats local;
  EngineStats& st = stats ? *stats : local;
  st = EngineStats{};
  st.locations = 1;
  st.recalibrations = 1;

  // Each input slice is one programming pass of out_n banks, one group
  // wide.
  const std::size_t group_size =
      std::min<std::size_t>(config_.max_wavelengths, in);
  const std::size_t slices = (in + group_size - 1) / group_size;
  const std::vector<GroupSlice> slice_group{GroupSlice{0, group_size}};
  ProgramSource src = find_program(
      config_, store_.get(), ProgramKind::kFullyConnected, weights,
      group_size, slice_group, program_bytes(slice_group, out_n, slices));
  ProgrammedLayer fresh;
  const ProgrammedLayer& prog = src.stored ? *src.stored : fresh;
  if (!src.stored) fresh.w_absmax = weights.abs_max();

  nn::Tensor out(nn::Shape4{1, out_n, 1, 1});
  const double x_scale = input.abs_max();
  const double w_absmax = prog.w_absmax;
  if (x_scale == 0.0 || w_absmax == 0.0) {
    for (std::size_t o = 0; o < out_n; ++o)
      out[o] = bias.empty() ? 0.0 : bias[o];
    return out;
  }

  const AnalogChain chain = make_chain(config_, out_n);
  const phot::MachZehnderModulator mzm(config_.mzm);
  const phot::BalancedPhotodiode pd(config_.bank.photodiode);
  const elec::Dac input_dac(config_.input_dac);
  const elec::Dac weight_dac(config_.weight_dac);
  elec::AdcConfig adc_cfg = config_.adc;
  adc_cfg.full_scale = 1.0;
  const elec::Adc adc(adc_cfg);

  if (!src.stored) {
    fresh.w_mean_sq = mean_square_scaled(weights.data(), w_absmax);
    fresh.usable = measured_usable_range(config_, group_size, rng_);
    PCNNA_CHECK_MSG(fresh.usable > 0.0,
                    "weight bank has no usable signed range");
    size_program(slice_group, out_n, src.keep ? slices : 1, fresh);
  }
  const double denom = 0.95 * prog.usable;
  const double recover = x_scale * w_absmax / denom;
  st.wavelengths_used = group_size;
  st.weight_dac_conversions = weights.size();
  st.dac_conversions = in;
  st.rings_used = out_n * in;

  const double bw = config_.enable_noise ? config_.fast_clock : 0.0;
  const double mean_w_sq = prog.w_mean_sq * denom * denom;
  const double mean_x_sq = mean_square_scaled(input.data(), x_scale);
  const double adc_fs =
      adc_full_scale(config_.adc_headroom, in, mean_x_sq, mean_w_sq);

  // The call is one kernel location: one stream, keyed like pixel 0 of a
  // sweep, in the draw order of LaserDiode::emit and
  // BalancedPhotodiode::detect.
  NormalStream z(NormalStream::element_key(noise_key(rng_, bw), 0));
  const double laser_sigma = rin_sigma(config_, chain.p0, bw);

  CalibrationError cal_err;
  std::vector<double> acc(out_n, 0.0);
  std::vector<double> powers;
  std::vector<double> dacc(out_n), tacc(out_n);
  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t begin = s * group_size;
    const std::size_t end = std::min(begin + group_size, in);
    const std::size_t width = end - begin;
    const phot::WdmGrid grid(width);

    // Modulate this input slice once; all banks share the broadcast bundle.
    powers.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
      double x = input[begin + i] / x_scale;
      if (config_.enable_quantization) x = input_dac.convert(x);
      const double emit =
          bw > 0.0 ? std::max(0.0, chain.p0 + laser_sigma * z.next())
                   : chain.p0;
      powers[i] = mzm.modulate(emit * chain.bcast, x);
    }

    const std::size_t b = prog.block(s);
    const double* drop = prog.drop_t.data() + b * prog.pass_size();
    const double* thru = prog.thru_t.data() + b * prog.pass_size();
    const double* base = prog.baseline.data() + b * out_n;
    if (!src.stored) {
      for (std::size_t o = 0; o < out_n; ++o) {
        phot::WeightBank bank(grid, config_.bank, rng_);
        inject_stuck_faults(config_, bank, rng_, fresh.setup);
        program_bank_soa(bank, weights.data().data() + o * in + begin,
                         /*g=*/0, o, b, w_absmax, denom,
                         config_.enable_quantization, weight_dac, chain,
                         scratch_, fresh, cal_err);
        ++fresh.setup.banks_built;
        fresh.setup.total_heater_power += bank.total_heater_power();
        fresh.setup.total_ring_area += bank.total_area();
      }
    }

    // Bank programming draws only from the engine RNG and detection only
    // from `z`, so programming the slice's banks before detecting any of
    // them keeps both draw sequences.
    mac_group(out_n, width, powers.data(), drop, thru, dacc.data(),
              tacc.data());
    for (std::size_t o = 0; o < out_n; ++o) {
      const double current =
          detect_balanced<true>(pd, dacc[o], tacc[o], bw, z);
      acc[o] += (current - base[o]) / chain.denom_current;
    }
    ++st.optical_passes;
  }
  cal_err.report(fresh.setup);
  add_setup(st, prog.setup);

  for (std::size_t o = 0; o < out_n; ++o) {
    double v = acc[o];
    if (config_.enable_quantization) v = adc.convert(v / adc_fs) * adc_fs;
    ++st.adc_conversions;
    out[o] = v * recover + (bias.empty() ? 0.0 : bias[o]);
  }

  if (src.keep) keep_program(store_, std::move(src.key), std::move(fresh));
  return out;
}

} // namespace pcnna::core
