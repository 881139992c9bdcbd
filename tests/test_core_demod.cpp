// Phase-offset elimination (Eq. 5/6) and modulation-offset determination
// (Eq. 7): unit behaviour, the frequency-domain form from the paper, a
// brute-force Eq. 7 equivalence check on a tiny instance, and the
// screened offset search against the direct scan it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>

#include "core/modulation_offset.hpp"
#include "core/phase_offset.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/simd.hpp"
#include "lte/cell_config.hpp"
#include "tag/tag_controller.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;
using dsp::cvec;

TEST(PhaseOffset, EstimateGainRecoversComplexGain) {
  dsp::Rng rng(1);
  const cf32 g{0.3f, -0.4f};
  cvec z;
  double ref_energy = 0.0;
  for (int i = 0; i < 500; ++i) {
    const cf32 x = rng.complex_normal();
    z.push_back(g * cf32{std::norm(x), 0.0f});
    ref_energy += std::norm(x);
  }
  const cf32 est = core::estimate_gain(z, ref_energy);
  EXPECT_NEAR(est.real(), g.real(), 0.01);
  EXPECT_NEAR(est.imag(), g.imag(), 0.01);
}

TEST(PhaseOffset, DerotateAlignsToRealAxis) {
  cvec z = {cf32{0.0f, 2.0f}, cf32{0.0f, 4.0f}};
  core::derotate(z, cf32{0.0f, 1.0f});
  EXPECT_NEAR(z[0].real(), 2.0f, 1e-5);
  EXPECT_NEAR(z[0].imag(), 0.0f, 1e-5);
  EXPECT_NEAR(z[1].real(), 4.0f, 1e-5);
}

TEST(PhaseOffset, Eq6FrequencyDomainCancelsCommonPhase) {
  // Build Y_k = e^{j phi} * A_k for random A; the products Y_k conj(Y_r)
  // must not depend on phi (paper Eq. 6).
  dsp::Rng rng(2);
  cvec a(64);
  for (auto& v : a) v = rng.complex_normal();

  const auto products_with_phi = [&](double phi) {
    const cf32 rot{static_cast<float>(std::cos(phi)),
                   static_cast<float>(std::sin(phi))};
    cvec y(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) y[i] = rot * a[i];
    return core::eq6_reference_products(y, 5);
  };

  const cvec p0 = products_with_phi(0.0);
  const cvec p1 = products_with_phi(1.234);
  for (std::size_t k = 0; k < p0.size(); ++k) {
    EXPECT_NEAR(p0[k].real(), p1[k].real(), 1e-3);
    EXPECT_NEAR(p0[k].imag(), p1[k].imag(), 1e-3);
  }
}

class OffsetSweep : public ::testing::TestWithParam<std::ptrdiff_t> {};

TEST_P(OffsetSweep, FindsInjectedOffsetExactly) {
  const std::ptrdiff_t true_offset = GetParam();
  dsp::Rng rng(3);
  const std::size_t k = 2048;
  const std::size_t n = 1200;
  const std::size_t nominal = (k - n) / 2;

  std::vector<std::uint8_t> pattern(n);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(rng.next_u32() & 1);

  // z products: |x|^2 * g * (+-1 per pattern), pattern shifted by
  // true_offset; filler +1 elsewhere.
  const cf32 g{0.8f, 0.6f};
  cvec z(k);
  for (std::size_t i = 0; i < k; ++i) {
    const float mag = static_cast<float>(std::norm(rng.complex_normal()));
    const std::ptrdiff_t rel =
        static_cast<std::ptrdiff_t>(i) -
        (static_cast<std::ptrdiff_t>(nominal) + true_offset);
    float sign = 1.0f;
    if (rel >= 0 && rel < static_cast<std::ptrdiff_t>(n)) {
      sign = pattern[static_cast<std::size_t>(rel)] ? 1.0f : -1.0f;
    }
    z[i] = g * mag * sign + rng.complex_normal(1e-6);
  }

  core::OffsetSearch search;
  search.range_units = 300;
  const auto result =
      core::find_modulation_offset(z, pattern, nominal, search);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->offset_units, true_offset);
  EXPECT_GT(result->metric, 0.8f);
  // The gain estimate at the peak carries the injected phase.
  const double est_phase = std::atan2(result->gain.imag(),
                                      result->gain.real());
  EXPECT_NEAR(est_phase, std::atan2(0.6, 0.8), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Offsets, OffsetSweep,
                         ::testing::Values(-250, -61, -3, 0, 1, 40, 137,
                                           299));

TEST(OffsetSearch, RejectsPureNoise) {
  dsp::Rng rng(4);
  cvec z(2048);
  for (auto& v : z) v = rng.complex_normal();
  std::vector<std::uint8_t> pattern(1200);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(rng.next_u32() & 1);
  const auto result =
      core::find_modulation_offset(z, pattern, 424, core::OffsetSearch{});
  EXPECT_FALSE(result.has_value());
}

// ---- Screened search vs. the direct scan -------------------------------

// The direct scan, as the search ran before the FFT screen: every shift
// in ±range, invalid starts skipped, one pattern_sums call per window,
// first maximum wins. find_modulation_offset must reproduce it bit for bit.
std::optional<core::OffsetResult> reference_search(
    std::span<const cf32> z, std::span<const std::uint8_t> pattern,
    std::ptrdiff_t nominal_start, const core::OffsetSearch& search) {
  const std::size_t n = pattern.size();
  const auto lo = -static_cast<std::ptrdiff_t>(search.range_units);
  const auto hi = static_cast<std::ptrdiff_t>(search.range_units);
  core::OffsetResult best;
  bool found = false;
  const dsp::SimdKernels& k = dsp::simd_kernels();
  for (std::ptrdiff_t d = lo; d <= hi; ++d) {
    const std::ptrdiff_t start = nominal_start + d;
    if (start < 0 || start + static_cast<std::ptrdiff_t>(n) >
                         static_cast<std::ptrdiff_t>(z.size())) {
      continue;
    }
    double sel_r = 0.0, sel_i = 0.0;
    double all_r = 0.0, all_i = 0.0;
    double abs_sum = 0.0;
    k.pattern_sums(z.data() + start, pattern.data(), n, &sel_r, &sel_i,
                   &all_r, &all_i, &abs_sum);
    const double acc_r = 2.0 * sel_r - all_r;
    const double acc_i = 2.0 * sel_i - all_i;
    if (abs_sum <= 0.0) continue;
    const float metric =
        static_cast<float>(std::hypot(acc_r, acc_i) / abs_sum);
    if (!found || metric > best.metric) {
      found = true;
      best.metric = metric;
      best.offset_units = d;
      best.gain = cf32{static_cast<float>(acc_r), static_cast<float>(acc_i)};
    }
  }
  if (!found || best.metric < search.detect_threshold) return std::nullopt;
  return best;
}

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

// Both forms of find_modulation_offset (prebuilt spectrum + scratch, and
// the per-thread convenience form) against the reference: same verdict,
// same offset, bit-identical metric and gain.
void expect_matches_reference(std::span<const cf32> z,
                              std::span<const std::uint8_t> pattern,
                              std::ptrdiff_t nominal,
                              const core::OffsetSearch& search) {
  const auto want = reference_search(z, pattern, nominal, search);
  const core::PreambleSpectrum spectrum(pattern, z.size());
  core::OffsetScratch scratch;
  const auto got_prebuilt =
      core::find_modulation_offset(z, spectrum, nominal, search, scratch);
  const auto got_convenience =
      core::find_modulation_offset(z, pattern, nominal, search);
  for (const auto* got : {&got_prebuilt, &got_convenience}) {
    ASSERT_EQ(got->has_value(), want.has_value())
        << "K=" << z.size() << " N=" << pattern.size()
        << " nominal=" << nominal << " range=" << search.range_units;
    if (!want) continue;
    EXPECT_EQ((*got)->offset_units, want->offset_units)
        << "K=" << z.size() << " N=" << pattern.size()
        << " nominal=" << nominal << " range=" << search.range_units;
    EXPECT_EQ(bits_of((*got)->metric), bits_of(want->metric));
    EXPECT_EQ(bits_of((*got)->gain.real()), bits_of(want->gain.real()));
    EXPECT_EQ(bits_of((*got)->gain.imag()), bits_of(want->gain.imag()));
  }
}

// Runs `body` once per SIMD tier this machine supports, then restores
// the active tier: the screen's exact re-score must match each tier's
// own kernel, and an out-of-bounds edge window shows under every tier.
void for_each_tier(const std::function<void()>& body) {
  const dsp::SimdTier before = dsp::simd_tier();
  for (const dsp::SimdTier t :
       {dsp::SimdTier::kScalar, dsp::SimdTier::kSse2, dsp::SimdTier::kAvx2}) {
    if (!dsp::simd_tier_supported(t)) continue;
    dsp::set_simd_tier(t);
    SCOPED_TRACE(dsp::to_string(t));
    body();
  }
  dsp::set_simd_tier(before);
}

std::vector<std::uint8_t> random_pattern(dsp::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u32() & 1);
  return p;
}

// z = |x|^2-weighted ±g per pattern unit starting at `start`, filler +g
// elsewhere, plus noise: the products of a preamble symbol.
cvec planted_products(dsp::Rng& rng, std::span<const std::uint8_t> pattern,
                      std::size_t k, std::ptrdiff_t start, float noise) {
  const cf32 g{0.6f, -0.8f};
  cvec z(k);
  for (std::size_t i = 0; i < k; ++i) {
    const float mag = static_cast<float>(std::norm(rng.complex_normal()));
    const std::ptrdiff_t rel = static_cast<std::ptrdiff_t>(i) - start;
    float sign = 1.0f;
    if (rel >= 0 && rel < static_cast<std::ptrdiff_t>(pattern.size())) {
      sign = pattern[static_cast<std::size_t>(rel)] ? 1.0f : -1.0f;
    }
    z[i] = g * mag * sign + rng.complex_normal(noise);
  }
  return z;
}

TEST(OffsetSearch, RandomProductsMatchDirectScan) {
  for_each_tier([] {
    dsp::Rng rng(11);
    const std::size_t sizes[][2] = {{128, 72},   {256, 180},  {512, 300},
                                    {1024, 600}, {1536, 900}, {2048, 1200},
                                    {2048, 64},  {1000, 999}};
    for (const auto& [k, n] : sizes) {
      for (int trial = 0; trial < 3; ++trial) {
        const auto pattern = random_pattern(rng, n);
        cvec z(k);
        for (auto& v : z) v = rng.complex_normal();
        core::OffsetSearch search;
        search.detect_threshold = 0.0f;  // compare the argmax, not a verdict
        const auto nominal = static_cast<std::ptrdiff_t>((k - n) / 2);
        expect_matches_reference(z, pattern, nominal, search);
        // A planted preamble at a random in-range offset.
        const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(
            rng.uniform_int(static_cast<std::uint32_t>(k - n + 1)));
        const cvec zp = planted_products(rng, pattern, k, shift, 0.1f);
        expect_matches_reference(zp, pattern, nominal, search);
        expect_matches_reference(zp, pattern, nominal, core::OffsetSearch{});
        core::OffsetSearch wide = search;
        wide.range_units = k;
        expect_matches_reference(z, pattern, nominal, wide);
        expect_matches_reference(zp, pattern, nominal, wide);
      }
    }
  });
}

TEST(OffsetSearch, RealPreamblesAtEveryBandwidthMatchDirectScan) {
  for_each_tier([] {
    dsp::Rng rng(12);
    for (const lte::Bandwidth bw : lte::kAllBandwidths) {
      lte::CellConfig cell;
      cell.bandwidth = bw;
      const tag::TagController ctl(cell, tag::TagScheduleConfig{});
      const auto& pattern = ctl.preamble_pattern();
      const std::size_t k = cell.fft_size();
      const std::ptrdiff_t nominal = ctl.modulation_start_unit();
      for (const std::ptrdiff_t err : {-40, -3, 0, 7, 61}) {
        const std::ptrdiff_t start = std::clamp<std::ptrdiff_t>(
            nominal + err, 0,
            static_cast<std::ptrdiff_t>(k - pattern.size()));
        for (const float noise : {0.05f, 3.0f}) {
          const cvec z = planted_products(rng, pattern, k, start, noise);
          expect_matches_reference(z, pattern, nominal, core::OffsetSearch{});
          core::OffsetSearch wide;
          wide.range_units = k;
          wide.detect_threshold = 0.0f;
          expect_matches_reference(z, pattern, nominal, wide);
        }
      }
    }
  });
}

TEST(OffsetSearch, TiesGoToTheFirstMaximum) {
  for_each_tier([] {
    const std::size_t k = 2048;
    const std::size_t n = 1200;
    const auto nominal = static_cast<std::ptrdiff_t>((k - n) / 2);
    core::OffsetSearch search;
    search.detect_threshold = 0.0f;

    // Constant z: every window scores the same, bit for bit.
    dsp::Rng rng(13);
    const auto pattern = random_pattern(rng, n);
    const cvec flat(k, cf32{0.25f, -0.5f});
    expect_matches_reference(flat, pattern, nominal, search);
    const std::vector<std::uint8_t> ones(n, 1);
    expect_matches_reference(flat, ones, nominal, search);

    // Periodic pattern against matching periodic z: every shift that is a
    // multiple of the period is an exact maximum (metric 1).
    for (const std::size_t period : {2u, 3u, 8u}) {
      std::vector<std::uint8_t> periodic(n);
      cvec z(k);
      for (std::size_t i = 0; i < n; ++i) {
        periodic[i] = static_cast<std::uint8_t>(i % period == 0);
      }
      for (std::size_t i = 0; i < k; ++i) {
        z[i] = cf32{i % period == 0 ? 1.5f : -1.5f, 0.0f};
      }
      expect_matches_reference(z, periodic, nominal, search);
      search.range_units = k;
      expect_matches_reference(z, periodic, nominal, search);
      search.range_units = core::OffsetSearch{}.range_units;
    }
  });
}

TEST(OffsetSearch, ZeroAndTinyWindowsMatchDirectScan) {
  for_each_tier([] {
    dsp::Rng rng(14);
    const std::size_t k = 2048;
    const std::size_t n = 1200;
    const auto nominal = static_cast<std::ptrdiff_t>((k - n) / 2);
    const auto pattern = random_pattern(rng, n);
    core::OffsetSearch search;
    search.detect_threshold = 0.0f;

    // All zero: no window has any magnitude, so there is no candidate.
    const cvec zeros(k, cf32{});
    expect_matches_reference(zeros, pattern, nominal, search);
    EXPECT_FALSE(
        core::find_modulation_offset(zeros, pattern, nominal, search));

    // Zero except a short burst: windows clear of it are skipped.
    cvec burst(k, cf32{});
    for (std::size_t i = 1500; i < 1540; ++i) burst[i] = rng.complex_normal();
    expect_matches_reference(burst, pattern, nominal, search);

    // Tiny windows next to huge values: the prefix-sum window sums of the
    // tiny tail lose most or all of their digits, so those shifts must be
    // re-scored. Tails 1e-10..1e-14 below the head keep some garbage
    // digits; 1e-36 and below cancel to exactly zero.
    const float scales[][2] = {{1e3f, 1e-7f},  {1e3f, 1e-9f},
                               {1e3f, 1e-11f}, {1e30f, 1e-6f},
                               {1e30f, 1e-25f}, {1e30f, 1e-44f}};
    for (const auto& [huge, tiny] : scales) {
      cvec z = planted_products(rng, pattern, k, 800, 0.01f);
      for (std::size_t i = 0; i < 400; ++i) z[i] *= huge;
      for (std::size_t i = 400; i < k; ++i) z[i] *= tiny;
      expect_matches_reference(z, pattern, nominal, search);
      core::OffsetSearch wide = search;
      wide.range_units = k;
      expect_matches_reference(z, pattern, nominal, wide);
    }

    // Non-finite samples: the screen stands down and the direct scan's
    // NaN/Inf arithmetic decides.
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
      cvec z = planted_products(rng, pattern, k, 430, 0.1f);
      z[1000] = cf32{bad, 0.0f};
      expect_matches_reference(z, pattern, nominal, search);
    }
  });
}

TEST(OffsetSearch, RangesClippedAtBothEdgesMatchDirectScan) {
  for_each_tier([] {
    dsp::Rng rng(15);
    const std::size_t k = 2048;
    const std::size_t n = 1200;
    const auto pattern = random_pattern(rng, n);
    const auto last = static_cast<std::ptrdiff_t>(k - n);
    const cvec z = planted_products(rng, pattern, k, 3, 0.5f);
    const cvec z_end = planted_products(rng, pattern, k, last - 2, 0.5f);
    for (const std::size_t range : {0u, 1u, 5u, 256u, 848u, 1200u, 5000u}) {
      core::OffsetSearch search;
      search.range_units = range;
      search.detect_threshold = 0.0f;
      for (const std::ptrdiff_t nominal :
           {std::ptrdiff_t{0}, std::ptrdiff_t{2}, last - 1, last,
            std::ptrdiff_t{-100}, last + 60}) {
        expect_matches_reference(z, pattern, nominal, search);
        expect_matches_reference(z_end, pattern, nominal, search);
      }
    }
  });
}

TEST(Eq7, BruteForceArgMinMatchesPerUnitDecisions) {
  // Tiny instance: K = 16 units, N = 4 modulated units, brute-force the
  // 2^4 theta sequences of Eq. 7 and check the per-unit slicer picks the
  // same winner.
  dsp::Rng rng(5);
  const std::size_t k = 16;
  const std::size_t n = 4;
  const std::size_t start = 6;
  const std::vector<std::uint8_t> true_bits = {1, 0, 0, 1};
  const cf32 g{0.6f, 0.8f};  // includes the phase offset e^{j phi}

  cvec x(k);
  for (auto& v : x) v = rng.complex_normal();
  cvec r(k);
  for (std::size_t i = 0; i < k; ++i) {
    float sign = 1.0f;
    if (i >= start && i < start + n) sign = true_bits[i - start] ? 1 : -1;
    r[i] = g * sign * x[i] + rng.complex_normal(1e-4);
  }

  // Brute force over all theta sequences: minimize sum |r - g_hat *
  // e^{j theta} x| with g_hat estimated from the filler units.
  cvec z(k);
  for (std::size_t i = 0; i < k; ++i) z[i] = r[i] * std::conj(x[i]);
  cvec z_filler;
  double e_filler = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (i < start || i >= start + n) {
      z_filler.push_back(z[i]);
      e_filler += std::norm(x[i]);
    }
  }
  const cf32 g_hat = core::estimate_gain(z_filler, e_filler);

  double best_cost = 1e18;
  std::vector<std::uint8_t> best_bits;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    double cost = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float sign = (mask >> i) & 1u ? 1.0f : -1.0f;
      cost += std::norm(r[start + i] - g_hat * sign * x[start + i]);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_bits.assign(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        best_bits[i] = static_cast<std::uint8_t>((mask >> i) & 1u);
      }
    }
  }
  EXPECT_EQ(best_bits, true_bits);

  // Per-unit slicing (the tractable form) must agree.
  for (std::size_t i = 0; i < n; ++i) {
    const cf32 v = z[start + i] * std::conj(g_hat);
    EXPECT_EQ(v.real() >= 0.0f ? 1 : 0, true_bits[i]) << "unit " << i;
  }
}

}  // namespace
