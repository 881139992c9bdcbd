#include "common.hpp"

#include <algorithm>
#include <cmath>

#include "channel/awgn.hpp"
#include "core/framing.hpp"
#include "dsp/rng.hpp"
#include "lte/enodeb.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "tag/modulator.hpp"

namespace lsbench {

double histogram_sum(const std::string& name) {
  const obs::Histogram* h = obs::Registry::instance().find_histogram(name);
  return h == nullptr ? 0.0 : h->sum();
}

std::uint64_t spans_recorded() {
  return obs::SpanSink::instance().total_recorded();
}

tag::TagScheduleConfig stream_schedule() { return {}; }

namespace {

// Backscatter gain at the UE and the thermal floor under it: the scattered
// copy sits 50 dB above the noise, a close-range link where the per-unit
// BER floor of the OFDM envelope, not noise, limits the packet CRC.
constexpr dsp::cf32 kScatterGain{1e-3f, 4e-4f};
constexpr double kSnrDb = 50.0;
// Residual tag sync error per packet, uniform in +-kMaxTimingError units
// and at most a quarter of the window's slack (7 units at 1.4 MHz), so the
// modulation window never clips.
constexpr std::size_t kMaxTimingError = 32;

}  // namespace

Carrier make_carrier(const CarrierSpec& spec, std::uint64_t seed,
                     LayerTimes* times) {
  Carrier c;
  c.cell.bandwidth = spec.bandwidth;
  c.unique_sf = spec.unique_sf;
  c.replay_sf = spec.replay_sf;
  const std::size_t spsf = c.cell.samples_per_subframe();

  lte::Enodeb::Config ecfg;
  ecfg.cell = c.cell;
  ecfg.seed = seed;
  lte::Enodeb enb(ecfg);
  const tag::TagController ctl(c.cell, stream_schedule());
  const traffic::OccupancyModel activity(traffic::Technology::kWifi,
                                         spec.site);
  dsp::Rng prng(dsp::derive_seed(seed, 1));
  dsp::Rng noise_rng(dsp::derive_seed(seed, 2));
  const auto max_err = static_cast<std::uint32_t>(
      std::min(kMaxTimingError, ctl.offset_tolerance_units() / 4));
  const double noise_power =
      std::norm(kScatterGain) * std::pow(10.0, -kSnrDb / 10.0);

  c.rx.resize(c.replay_sf * spsf);
  c.ambient.resize(c.replay_sf * spsf);
  c.sent.resize(c.unique_sf);
  c.timing_error.assign(c.unique_sf, 0);
  c.demodulated.assign(c.unique_sf, false);
  for (std::size_t sf = 0; sf < c.unique_sf; ++sf) {
    double t0 = now_s();
    const lte::SubframeTx tx = enb.next_subframe();
    if (times != nullptr) times->enodeb_subframe.push_back(now_s() - t0);

    const std::size_t cap = ctl.packet_raw_bits(sf);
    c.demodulated[sf] = cap > 32;
    const double duty =
        spec.full_duty
            ? 1.0
            : 0.3 + 0.7 * activity.mean_occupancy(
                              (sf / kSubframesPerHour) % 24);
    tag::SubframePlan plan;
    std::ptrdiff_t err = 0;
    if (c.demodulated[sf] && (spec.full_duty || prng.uniform() < duty)) {
      const core::PacketCodec codec(cap);
      c.sent[sf] = prng.bits(codec.payload_bits());
      plan = ctl.plan_subframe(
          sf, true,
          core::split_bits(codec.encode(c.sent[sf]), ctl.bits_per_symbol()));
      err = static_cast<std::ptrdiff_t>(
                prng.uniform_int(2 * max_err + 1)) -
            static_cast<std::ptrdiff_t>(max_err);
      c.timing_error[sf] = err;
      ++c.packets_per_unique;
    } else {
      plan = ctl.plan_subframe(sf, false, {});
    }
    if (c.demodulated[sf]) ++c.events_per_unique;
    const auto pattern = tag::expand_to_units(c.cell, plan);

    t0 = now_s();
    dsp::cvec scat = tag::apply_pattern(tx.samples, pattern, err, kScatterGain);
    if (times != nullptr) times->apply_pattern.push_back(now_s() - t0);

    t0 = now_s();
    channel::add_awgn(scat, noise_power, noise_rng);
    if (times != nullptr) {
      times->awgn_s += now_s() - t0;
      times->awgn_samples += scat.size();
    }
    std::copy(scat.begin(), scat.end(), c.rx.begin() + sf * spsf);
    std::copy(tx.samples.begin(), tx.samples.end(),
              c.ambient.begin() + sf * spsf);
  }
  // Tile the generated block over the replay buffer.
  const std::size_t block = c.unique_sf * spsf;
  for (std::size_t off = block; off < c.rx.size(); off += block) {
    std::copy(c.rx.begin(), c.rx.begin() + block, c.rx.begin() + off);
    std::copy(c.ambient.begin(), c.ambient.begin() + block,
              c.ambient.begin() + off);
  }
  return c;
}

}  // namespace lsbench
