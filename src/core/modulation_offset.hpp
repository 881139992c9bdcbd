#pragma once
// Modulation-offset determination (paper §3.3.2, Eq. 7).
//
// The tag's residual sync error shifts its modulation window by an unknown
// number of basic timing units; the packet preamble (a known ±1 pattern of
// length N) lets the receiver find that shift. Correlating the products
// z_n = r_n conj(x_n) against the pattern is the tractable equivalent of
// Eq. 7's arg-min: at the true offset the terms add coherently as
// g e^{j phi} sum |x|^2, any other offset decorrelates. An exhaustive
// Eq. 7 search over all theta sequences is implemented for tiny N in the
// tests to validate this estimator.
//
// Search method (DESIGN.md §4). The score of the window starting at unit
// s is m(s) = |c(s)| / A(s), with c(s) = sum_i p_i z_{s+i} (p_i = ±1) and
// A(s) = sum_i |z_{s+i}|. Scoring every shift directly costs shifts x N
// multiply-adds (513 x 1200 at 20 MHz). The search instead runs in two
// steps:
//   1. Screen. Every valid window lies inside z, so c(s) at every start
//      is one circular correlation of length M = next_pow2(K) with no
//      wrap-around: FFT z (zero-padded, double precision), multiply by the
//      pattern's precomputed conjugate spectrum, inverse FFT. A(s) comes
//      from one prefix sum of |z|.
//   2. Exact re-score. A derived rounding bound (FFT error, prefix-sum
//      cancellation, the kernel's own summation and the float rounding of
//      the metric) turns each screened score into an interval that must
//      contain the metric the exact kernel computes. Only shifts whose
//      interval reaches the largest lower end can hold the maximum; they
//      are re-scored with the dsp pattern_sums kernel in ascending order,
//      first maximum wins. offset_units, metric and gain therefore come
//      from the same kernel call as in a full scan, bit for bit at every
//      SIMD tier. A window whose sum of |z| is tiny next to the total
//      has an unbounded interval and is always re-scored, and so is every
//      window of a z that holds a non-finite sample.
// The screen is faster than scoring every shift down to the smallest
// searches in use (1.4 MHz, and the ±6-unit WiFi baseline); see
// DESIGN.md §4 for the measurements.

#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/types.hpp"

namespace lscatter::dsp {
class FftPlan;
}

namespace lscatter::core {

struct OffsetSearch {
  /// Offsets tried: [-range, +range] units around the nominal window.
  /// Must cover the residual-sync-error distribution *including tails*
  /// (StatisticalSync sigma = 2 us is ~61 units at 20 MHz; 256 units is
  /// > 4 sigma plus clock drift) — a miss here loses whole packets.
  std::size_t range_units = 256;

  /// Detection threshold on the normalized metric (|correlation| divided
  /// by the sum of |z| in the window; noise-only floors near 1/sqrt(N)).
  float detect_threshold = 0.2f;

  /// Per-subcarrier equalization of the backscatter hop (paper §3.3.1:
  /// "the phase offset is varying on different subcarriers"): estimate an
  /// FIR channel of this many taps from the preamble symbol and divide it
  /// out in the frequency domain before slicing. 0 disables (flat-fading
  /// deployments don't need it); ~8 taps handles indoor delay spreads.
  std::size_t equalizer_taps = 0;
};

struct OffsetResult {
  std::ptrdiff_t offset_units = 0;  // estimated shift of the tag window
  float metric = 0.0f;              // normalized, [0, 1]
  dsp::cf32 gain;                   // g*e^{j phi} estimated at the peak
};

/// A preamble pattern together with its conjugate spectrum at the
/// transform size of a search over K products. The pattern is fixed per
/// TagController, so a demodulator builds this once; it is immutable
/// afterwards and may serve any number of threads.
class PreambleSpectrum {
 public:
  /// `pattern` holds N bits (1 -> +1, 0 -> -1), 0 < N <= k.
  PreambleSpectrum(std::span<const std::uint8_t> pattern, std::size_t k);

  std::span<const std::uint8_t> pattern() const { return pattern_; }
  /// K: the length of the product vectors this spectrum searches.
  std::size_t products() const { return k_; }
  /// conj(FFT(p)) over M = next_pow2(K) bins, p zero-padded past N.
  std::span<const dsp::cf64> conj_spectrum() const { return spectrum_; }
  /// The shared M-point plan of the screen's transforms.
  const dsp::FftPlan& plan() const { return *plan_; }

 private:
  std::vector<std::uint8_t> pattern_;
  std::size_t k_;
  const dsp::FftPlan* plan_;
  std::vector<dsp::cf64> spectrum_;
};

/// Scratch of the screen. Grows to its steady-state size on the first
/// call and is then reused (no heap allocation once warm). One per
/// searching thread; never shared concurrently.
struct OffsetScratch {
  std::vector<dsp::cf64> corr;  // M-point transform buffer
  std::vector<double> prefix;   // K + 1 running sums of |z|
  std::vector<double> upper;    // per-shift upper bound of the exact metric
};

/// Search for the preamble in `z` (products over one useful symbol,
/// z.size() == K == preamble.products()). `nominal_start` is where the
/// modulation window would begin with zero sync error ((K - N)/2 plus any
/// configured window offset). Returns nullopt if no candidate clears the
/// threshold. Identical to scoring every valid shift with pattern_sums.
std::optional<OffsetResult> find_modulation_offset(
    std::span<const dsp::cf32> z, const PreambleSpectrum& preamble,
    std::ptrdiff_t nominal_start, const OffsetSearch& search,
    OffsetScratch& scratch);

/// Convenience form for callers without a prebuilt spectrum: keeps the
/// spectrum of the last (pattern, K) and the scratch per thread, so a
/// caller that repeats one pattern transforms it once.
std::optional<OffsetResult> find_modulation_offset(
    std::span<const dsp::cf32> z, std::span<const std::uint8_t> pattern,
    std::ptrdiff_t nominal_start, const OffsetSearch& search);

}  // namespace lscatter::core
