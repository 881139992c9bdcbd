#include "core/modulation_offset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"

namespace lscatter::core {

using dsp::cf32;
using dsp::cf64;

namespace {

constexpr double kUnitRoundoff = 0x1p-53;

// gamma_n = n u / (1 - n u): the relative error bound of n chained
// double roundings (Higham, Accuracy and Stability, §3.1).
double gamma(double n) {
  return n * kUnitRoundoff / (1.0 - n * kUnitRoundoff);
}

// Exact score of the window starting at `start`, folded into `best` with
// the first maximum winning. Every start the search reports was scored
// here, so the result is always this arithmetic's.
void score_window(const dsp::SimdKernels& k, std::span<const cf32> z,
                  std::span<const std::uint8_t> pattern, std::ptrdiff_t start,
                  std::ptrdiff_t nominal, std::optional<OffsetResult>& best) {
  // The ±1-signed Eq. 7 correlation Σ sgn(pattern)·v rewrites as
  // 2·(sum over pattern==1) − (sum over all), which the pattern_sums
  // kernel computes in one pass along with Σ|v|.
  double sel_r = 0.0, sel_i = 0.0;
  double all_r = 0.0, all_i = 0.0;
  double abs_sum = 0.0;
  k.pattern_sums(z.data() + start, pattern.data(), pattern.size(), &sel_r,
                 &sel_i, &all_r, &all_i, &abs_sum);
  const double acc_r = 2.0 * sel_r - all_r;
  const double acc_i = 2.0 * sel_i - all_i;
  if (abs_sum <= 0.0) return;
  const float metric = static_cast<float>(std::hypot(acc_r, acc_i) / abs_sum);
  if (!best || metric > best->metric) {
    best = OffsetResult{
        start - nominal, metric,
        cf32{static_cast<float>(acc_r), static_cast<float>(acc_i)}};
  }
}

// The screen (DESIGN.md §4): fills s.upper[j] with an upper bound on the
// exact metric at start first + j and returns the largest lower bound
// over all starts, from one FFT correlation and one prefix sum. A z
// holding a non-finite sample would smear it over every shift through
// the transform, so then every bound is left open (+inf / -inf) and
// every start is re-scored.
double screen(std::span<const cf32> z, const PreambleSpectrum& preamble,
              std::size_t first, std::size_t shifts, OffsetScratch& s) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t k = z.size();
  const std::size_t n = preamble.pattern().size();
  const std::span<const cf64> spectrum = preamble.conj_spectrum();
  const std::size_t m = spectrum.size();

  s.upper.resize(shifts);
  s.corr.resize(m);
  s.prefix.resize(k + 1);
  double total = 0.0;   // Σ|z|
  double energy = 0.0;  // Σ|z|²
  s.prefix[0] = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double r = z[i].real();
    const double q = z[i].imag();
    const double e = r * r + q * q;
    energy += e;
    total += std::sqrt(e);
    s.prefix[i + 1] = total;
    s.corr[i] = cf64{r, q};
  }
  if (!std::isfinite(total)) {
    std::fill(s.upper.begin(), s.upper.end(), kInf);
    return -kInf;
  }
  std::fill(s.corr.begin() + static_cast<std::ptrdiff_t>(k), s.corr.end(),
            cf64{});
  // c(s) = Σ_i p_i z_{s+i} for every start: the windows never wrap since
  // s + N <= K <= M, so one circular correlation of length M is exact.
  const dsp::FftPlan& plan = preamble.plan();
  plan.forward_inplace64(s.corr);
  dsp::simd_kernels().cmul64(s.corr.data(), spectrum.data(), m);
  plan.inverse_inplace64(s.corr);

  // Absolute error bounds, each valid at every start (DESIGN.md §4).
  // One radix-2 transform errs by at most eps in relative 2-norm (Higham,
  // Thm 24.2), with twiddle error mu: ours are cos/sin of an angle that
  // carries a few roundings.
  const double u = kUnitRoundoff;
  const double nd = static_cast<double>(n);
  const double log2m = std::log2(static_cast<double>(m));
  const double mu = 16.0 * u;
  const double eta = mu + gamma(4.0) * (std::sqrt(2.0) + mu);
  const double eps = log2m * eta / (1.0 - log2m * eta);
  const double sqrt_mn = std::sqrt(static_cast<double>(m) * nd);
  const double p_max = nd + eps * sqrt_mn;  // >= every stored |P_k|
  // ||fl(Z·conj P) - Z·conj P||_2 in units of sqrt(M)·||z||_2.
  const double dw = eps * p_max + eps * sqrt_mn +
                    std::sqrt(2.0) * gamma(2.0) * (1.0 + eps) * p_max;
  // |screened c(s) - c(s)|; the inverse adds eps of its input and its
  // 1/M scale is exact. Factor 2: slack for ||z||_2's own rounding.
  const double corr_err = 2.0 * (dw + eps * (nd + dw)) * std::sqrt(energy);
  // |screened A(s) - A(s)|: two prefix sums of K rounded |z| and their
  // difference. This is absolute in Σ|z| over all of z, so a window much
  // smaller than the total gets an unbounded interval (cancellation).
  const double sum_err = 4.0 * gamma(static_cast<double>(k) + 4.0) * total;
  // The kernel's own rounding of c and A, relative to the window's A.
  const double kern_c = 3.0 * std::sqrt(2.0) * gamma(nd + 2.0);
  const double kern_a = gamma(nd + 4.0);
  // The float rounding of the metric (2^-24 relative, down to the
  // denormal spacing) and the quotients' double roundings, with room.
  const double up = 1.0 + 0x1p-22;
  const double down = 1.0 - 0x1p-22;
  constexpr double kDenormal = 0x1p-149;

  double lo_max = -kInf;
  for (std::size_t j = 0; j < shifts; ++j) {
    const std::size_t st = first + j;
    const cf64 c = s.corr[st];
    const double mag = std::sqrt(c.real() * c.real() + c.imag() * c.imag());
    const double a = s.prefix[st + n] - s.prefix[st];
    const double a_hi = a + sum_err;
    const double dc = corr_err + kern_c * a_hi + 4.0 * u * mag;
    const double da = sum_err + kern_a * a_hi;
    if (a - da > 0.0) {
      s.upper[j] = (mag + dc) / (a - da) * up + kDenormal;
      lo_max = std::max(lo_max, (mag - dc) / (a + da) * down - kDenormal);
    } else {
      // The kernel's Σ|z| may be zero or anything up to a_hi.
      s.upper[j] = kInf;
    }
  }
  return lo_max;
}

}  // namespace

PreambleSpectrum::PreambleSpectrum(std::span<const std::uint8_t> pattern,
                                   std::size_t k)
    : pattern_(pattern.begin(), pattern.end()),
      k_(k),
      plan_(&dsp::cached_fft_plan(
          dsp::next_power_of_two(std::max<std::size_t>(k, 1)))) {
  LSCATTER_EXPECT(!pattern.empty(), "offset search needs a non-empty pattern");
  LSCATTER_EXPECT(pattern.size() <= k,
                  "product vector must cover the pattern");
  spectrum_.assign(plan_->size(), cf64{});
  for (std::size_t i = 0; i < pattern.size() && i < spectrum_.size(); ++i) {
    spectrum_[i] = cf64{pattern[i] != 0 ? 1.0 : -1.0, 0.0};
  }
  plan_->forward_inplace64(spectrum_);
  for (cf64& v : spectrum_) v = std::conj(v);
}

std::optional<OffsetResult> find_modulation_offset(
    std::span<const cf32> z, const PreambleSpectrum& preamble,
    std::ptrdiff_t nominal_start, const OffsetSearch& search,
    OffsetScratch& scratch) {
  const auto pattern = preamble.pattern();
  const std::size_t n = pattern.size();
  LSCATTER_EXPECT(z.size() == preamble.products(),
                  "product vector length must match the preamble spectrum");

  // Valid starts only: [max(0, nominal - range), min(K - N, nominal + range)].
  const auto range = static_cast<std::ptrdiff_t>(std::min<std::size_t>(
      search.range_units, std::numeric_limits<std::ptrdiff_t>::max() / 4));
  const std::ptrdiff_t first =
      std::max<std::ptrdiff_t>(0, nominal_start - range);
  const std::ptrdiff_t last = std::min<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(z.size()) - static_cast<std::ptrdiff_t>(n),
      nominal_start + range);

  std::optional<OffsetResult> best;
  if (n == 0 || first > last || z.size() != preamble.products()) {
    return best;
  }
  // Re-score, in ascending order, every start whose interval reaches the
  // largest lower bound: no other start can hold the first maximum.
  const auto shifts = static_cast<std::size_t>(last - first + 1);
  const double lo_max = screen(z, preamble, static_cast<std::size_t>(first),
                               shifts, scratch);
  const dsp::SimdKernels& kern = dsp::simd_kernels();
  for (std::size_t j = 0; j < shifts; ++j) {
    if (scratch.upper[j] >= lo_max) {
      score_window(kern, z, pattern, first + static_cast<std::ptrdiff_t>(j),
                   nominal_start, best);
    }
  }
  if (!best || best->metric < search.detect_threshold) return std::nullopt;
  return best;
}

std::optional<OffsetResult> find_modulation_offset(
    std::span<const cf32> z, std::span<const std::uint8_t> pattern,
    std::ptrdiff_t nominal_start, const OffsetSearch& search) {
  thread_local std::optional<PreambleSpectrum> preamble;
  thread_local OffsetScratch scratch;
  if (!preamble || preamble->products() != z.size() ||
      !std::ranges::equal(preamble->pattern(), pattern)) {
    preamble.emplace(pattern, z.size());
  }
  return find_modulation_offset(z, *preamble, nominal_start, search, scratch);
}

}  // namespace lscatter::core
