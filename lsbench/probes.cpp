// Per-layer probes of the traced run: direct, single-thread calls into
// one layer at a time, timed by the benchmark, plus deltas of the stage
// histograms the library records inside those calls.

#include <algorithm>
#include <cmath>

#include "core/lscatter_rx.hpp"
#include "core/modulation_offset.hpp"
#include "core/sim_pool.hpp"
#include "lte/ofdm.hpp"
#include "workloads.hpp"

namespace lsbench {

namespace {

// Library stage histograms (seconds) of one demodulated packet.
constexpr const char* kDemodPacket = "core.demod.packet.seconds";
constexpr const char* kOffsetSearch = "core.demod.offset_search.seconds";
constexpr const char* kUnitDemod = "core.demod.unit_demod.seconds";
constexpr const char* kPhaseOffset = "core.demod.phase_offset.seconds";
constexpr const char* kFecCrc = "core.demod.fec_crc.seconds";
// ... and of one simulated link drop.
constexpr const char* kLinkRun = "core.link.run.seconds";
constexpr const char* kLinkStages[] = {
    "lte.enodeb.subframe.seconds", "tag.modulator.apply_pattern.seconds",
    "channel.awgn.add.seconds", "channel.fading.tdl_apply.seconds",
    kDemodPacket};
constexpr const char* kAwgn = "channel.awgn.add.seconds";

// At least this many timed packets for the demod percentiles.
constexpr std::size_t kMinDemodSamples = 200;

double demod_stage_sum() {
  return histogram_sum(kOffsetSearch) + histogram_sum(kUnitDemod) +
         histogram_sum(kPhaseOffset) + histogram_sum(kFecCrc);
}

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(k * x);
  return out;
}

std::span<const dsp::cf32> subframe(const dsp::cvec& v, std::size_t sf,
                                    std::size_t spsf) {
  return std::span<const dsp::cf32>(v).subspan(sf * spsf, spsf);
}

}  // namespace

double probe_stream_layers(const std::vector<Carrier>& carriers,
                           const LayerTimes& times, double& coverage,
                           Outcome& out) {
  // lte, tag and channel: the benchmark's own generation calls.
  std::vector<double> enb = scaled(times.enodeb_subframe, 1e6);
  std::vector<double> pat = scaled(times.apply_pattern, 1e6);
  out.add("lte.subframe_us_p50", dsp::quantile(enb, 0.5), "us");
  out.add("tag.apply_pattern_us_p50", dsp::quantile(pat, 0.5), "us");
  out.add("channel.awgn_ns_per_sample",
          1e9 * times.awgn_s / static_cast<double>(times.awgn_samples), "ns");

  // core.streaming_receiver: direct feed() of one generated block per
  // carrier, after one untimed warm-up block.
  double feed_s = 0.0;
  double stage_s = 0.0;
  std::size_t fed = 0;
  for (const Carrier& c : carriers) {
    core::StreamingReceiver::Config rcfg;
    rcfg.cell = c.cell;
    rcfg.schedule = stream_schedule();
    core::StreamingReceiver rx(rcfg);
    const std::size_t spsf = c.cell.samples_per_subframe();
    for (std::size_t sf = 0; sf < c.unique_sf; ++sf) {
      rx.feed(subframe(c.rx, sf, spsf), subframe(c.ambient, sf, spsf));
    }
    const double s0 = demod_stage_sum();
    for (std::size_t sf = 0; sf < c.unique_sf; ++sf) {
      const double t0 = now_s();
      rx.feed(subframe(c.rx, sf, spsf), subframe(c.ambient, sf, spsf));
      feed_s += now_s() - t0;
      ++fed;
    }
    stage_s += demod_stage_sum() - s0;
  }
  out.add("stream.feed_us_per_sf", 1e6 * feed_s / static_cast<double>(fed),
          "us");

  // core.lscatter_rx: demodulate_packet_into on every sent slot.
  std::vector<double> demod_us;
  std::size_t sent = 0, found = 0, ok = 0;
  std::size_t packets = 0;
  for (const Carrier& c : carriers) packets += c.packets_per_unique;
  const std::size_t passes =
      std::max<std::size_t>(1, (kMinDemodSamples + packets - 1) / packets);
  const double packet0 = histogram_sum(kDemodPacket);
  const double offset0 = histogram_sum(kOffsetSearch);
  const double unit0 = histogram_sum(kUnitDemod);
  const double phase0 = histogram_sum(kPhaseOffset);
  const double fec0 = histogram_sum(kFecCrc);
  for (const Carrier& c : carriers) {
    const core::LscatterDemodulator dm(c.cell, stream_schedule());
    core::DemodWorkspace ws;
    const std::size_t spsf = c.cell.samples_per_subframe();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (std::size_t sf = 0; sf < c.unique_sf; ++sf) {
        if (c.sent[sf].empty()) continue;
        const double t0 = now_s();
        const core::PacketDemodStatus st = dm.demodulate_packet_into(
            subframe(c.rx, sf, spsf), subframe(c.ambient, sf, spsf), sf, ws);
        demod_us.push_back(1e6 * (now_s() - t0));
        ++sent;
        if (st.preamble_found) ++found;
        if (st.crc_ok && ws.payload == c.sent[sf]) ++ok;
      }
    }
  }
  const double packet_s = histogram_sum(kDemodPacket) - packet0;
  out.add("rx.demod_us_p50", dsp::quantile(demod_us, 0.50), "us");
  out.add("rx.demod_us_p99", dsp::quantile(demod_us, 0.99), "us");
  out.add("rx.preamble_found_ratio",
          static_cast<double>(found) / static_cast<double>(sent), "ratio");
  out.add("rx.crc_ok_ratio",
          static_cast<double>(ok) / static_cast<double>(sent), "ratio");
  out.add("rx.unit_demod_s", histogram_sum(kUnitDemod) - unit0, "s");
  out.add("rx.phase_offset_s", histogram_sum(kPhaseOffset) - phase0, "s");
  out.add("rx.fec_crc_s", histogram_sum(kFecCrc) - fec0, "s");
  out.add("offset.share",
          (histogram_sum(kOffsetSearch) - offset0) / packet_s, "ratio");

  // core.modulation_offset: find_modulation_offset alone, on the
  // products of each packet's preamble symbol.
  std::vector<double> search_us;
  std::size_t searched = 0, matched = 0;
  for (const Carrier& c : carriers) {
    const tag::TagController ctl(c.cell, stream_schedule());
    const core::OffsetSearch search;
    const std::size_t k = c.cell.fft_size();
    const std::size_t spsf = c.cell.samples_per_subframe();
    dsp::cvec z(k);
    for (std::size_t sf = 0; sf < c.unique_sf; ++sf) {
      if (c.sent[sf].empty()) continue;
      std::size_t l = 0;
      while (!ctl.symbol_modulatable(sf, l)) ++l;
      const std::size_t useful = sf * spsf +
                                 lte::symbol_offset_in_subframe(c.cell, l) +
                                 c.cell.cp_length(l % lte::kSymbolsPerSlot);
      for (std::size_t n = 0; n < k; ++n) {
        z[n] = c.rx[useful + n] * std::conj(c.ambient[useful + n]);
      }
      const double t0 = now_s();
      const auto found_offset = core::find_modulation_offset(
          z, ctl.preamble_pattern(), ctl.modulation_start_unit(), search);
      search_us.push_back(1e6 * (now_s() - t0));
      ++searched;
      if (found_offset && found_offset->offset_units == c.timing_error[sf]) {
        ++matched;
      }
    }
  }
  out.add("offset.search_us_p50", dsp::quantile(search_us, 0.5), "us");
  if (matched < searched) {
    out.fail("offset search recovered the tag's timing error on " +
             std::to_string(matched) + " of " + std::to_string(searched) +
             " preambles");
  }
  coverage = stage_s / feed_s;
  return 1e-3 * static_cast<double>(fed) / feed_s;
}

double probe_link_layers(
    std::size_t drops, std::size_t workers,
    const std::function<core::LinkConfig(std::size_t)>& make_config,
    Outcome& out) {
  std::vector<core::LinkMetrics> serial(drops);
  std::vector<double> drop_ms;
  double serial_s = 0.0;
  double stages0 = 0.0;
  for (const char* h : kLinkStages) stages0 += histogram_sum(h);
  const double link0 = histogram_sum(kLinkRun);
  const double awgn0 = histogram_sum(kAwgn);
  for (std::size_t d = 0; d < drops; ++d) {
    core::LinkSimulator sim(make_config(d));
    const double t0 = now_s();
    serial[d] = sim.run(10);
    const double dt = now_s() - t0;
    serial_s += dt;
    drop_ms.push_back(1e3 * dt);
  }
  double stages = -stages0;
  for (const char* h : kLinkStages) stages += histogram_sum(h);
  const double link_s = histogram_sum(kLinkRun) - link0;
  out.add("pool.drop_ms_p50", dsp::quantile(drop_ms, 0.50), "ms");
  out.add("pool.drop_ms_p99", dsp::quantile(drop_ms, 0.99), "ms");
  out.add("channel.awgn_share", (histogram_sum(kAwgn) - awgn0) / link_s,
          "ratio");

  core::PoolOptions popt;
  popt.threads = workers;
  std::size_t mismatched = 0;
  const double t0 = now_s();
  core::for_each_drop(drops, 10, popt, make_config,
                      [&](const core::DropOutcome& o) {
                        if (o.metrics != serial[o.drop_index]) ++mismatched;
                      });
  const double pooled_s = now_s() - t0;
  out.add("pool.efficiency",
          serial_s / (pooled_s * static_cast<double>(workers)), "ratio");
  if (mismatched != 0) {
    out.fail(std::to_string(mismatched) +
             " pooled drop(s) differ from the serial run of the same drop");
  }
  return stages / link_s;
}

}  // namespace lsbench
