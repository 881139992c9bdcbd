// Streaming workloads (stream20, stream1p4x4): pre-generated IQ replayed
// in a loop through core::DecodePipeline.
//
// Phases, in order: set-up (generate, build the pipeline, warm it over
// every subframe phase mod 10), once, in a cold process; a closed-loop
// saturated phase, where the producer pushes whenever the ring has room,
// for rt_x; an open-loop paced phase at a fixed offered rate, where each
// packet's latency is timed from the due time of the chunk that
// completed it. Every emitted CRC-clean payload is compared with what the
// tag sent for that slot, and the heap is watched over both timed phases.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "core/decode_pipeline.hpp"
#include "workloads.hpp"

namespace lsbench {

namespace {

// A lossless replay sends every packet to the decoder; the only packets it
// may miss are those the per-unit BER floor corrupts (0-9% of a seed's
// packets at 20 MHz over 16 seeds, 2-4% at 1.4 MHz). More than this share
// missing means the decoder is broken, not the link.
constexpr double kMaxMissRatio = 0.25;
// The saturated phase is cut into this many equal windows; rt_x is the
// median rate over the windows.
constexpr std::size_t kWindows = 10;

/// Verification and latency state of one carrier. Written only by the
/// worker that owns the carrier; `events` is release-published so the
/// producer can wait for a drain and then read the rest.
struct alignas(64) Tally {
  std::atomic<std::uint64_t> events{0};
  std::uint64_t ok = 0;        // CRC-clean with the exact sent payload
  std::uint64_t mismatch = 0;  // CRC-clean but not what was sent
  std::uint64_t extra = 0;     // CRC-clean where nothing was sent
  // Paced phase: latency of the packet completed by paced subframe i
  // (NaN until it is emitted); pre-sized so recording never allocates.
  std::vector<double> latency_s;
  std::uint64_t latency_overflow = 0;
  std::vector<std::uint8_t> scratch;  // fault-injection copy
};

std::chrono::steady_clock::time_point to_time_point(double s) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(s)));
}

class Replay {
 public:
  Replay(const StreamWorkload& w, std::uint64_t seed, LayerTimes* times)
      : tallies_(w.carriers.size()) {
    for (std::size_t c = 0; c < w.carriers.size(); ++c) {
      carriers_.push_back(
          make_carrier(w.carriers[c], dsp::derive_seed(seed, 100 + c), times));
    }
    spsf_ = carriers_.front().cell.samples_per_subframe();
    replay_sf_ = carriers_.front().replay_sf;
    core::DecodePipeline::Config pcfg;
    for (const Carrier& c : carriers_) {
      core::StreamingReceiver::Config rcfg;
      rcfg.cell = c.cell;
      rcfg.schedule = stream_schedule();
      pcfg.carriers.push_back(rcfg);
    }
    pcfg.ring_chunks = w.ring_chunks;
    pcfg.threads = w.workers;
    pcfg.on_packet = [this](std::size_t carrier,
                            const core::StreamingReceiver::PacketEvent& ev) {
      on_packet(carrier, ev);
    };
    pipe_ = std::make_unique<core::DecodePipeline>(pcfg);
    pipe_->start();
  }
  ~Replay() {
    if (pipe_) pipe_->stop();
  }
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  const std::vector<Carrier>& carriers() const { return carriers_; }
  core::DecodePipeline& pipe() { return *pipe_; }

  /// Push subframes until `end`, throttling so nothing is dropped.
  /// Returns the seconds the producer spent waiting for ring space.
  double push_closed_loop(std::size_t end, bool time_throttle) {
    double throttle = 0.0;
    for (; next_sf_ < end; ++next_sf_) {
      for (std::size_t c = 0; c < carriers_.size(); ++c) {
        const core::StreamRing& ring = pipe_->ring(c);
        if (ring.fill() + 2 >= ring.capacity_chunks()) {
          const double t0 = time_throttle ? now_s() : 0.0;
          while (ring.fill() + 2 >= ring.capacity_chunks()) {
            std::this_thread::yield();
          }
          if (time_throttle) throttle += now_s() - t0;
        }
        push(c, next_sf_);
      }
    }
    return throttle;
  }

  struct Saturated {
    double rt_x = 0.0;  // air-seconds per wall-second, all carriers
    std::size_t subframes = 0;  // pushed per carrier
    double throttle_s = 0.0;    // traced only
  };
  /// Saturated phase: push as fast as the decoder drains for `seconds`,
  /// then drain. rt_x is the median decode rate of kWindows equal
  /// windows, read from the emitted events, so a transient stall of a
  /// shared host moves one window rather than the whole figure.
  Saturated saturated(double seconds, bool traced) {
    Saturated s;
    const std::size_t start = next_sf_;
    const Carrier& c0 = carriers_.front();
    const double air_per_event =
        1e-3 * static_cast<double>(c0.unique_sf) /
        static_cast<double>(c0.events_per_unique);
    double rates[kWindows];
    const double t0 = now_s();
    double w0 = t0;
    std::uint64_t e0 = events();
    for (std::size_t w = 0; w < kWindows; ++w) {
      const double end = t0 + seconds * static_cast<double>(w + 1) / kWindows;
      while (now_s() < end) {
        s.throttle_s += push_closed_loop(next_sf_ + 1, traced);
      }
      const std::uint64_t e1 = events();
      const double w1 = now_s();
      rates[w] = air_per_event * static_cast<double>(e1 - e0) / (w1 - w0);
      e0 = e1;
      w0 = w1;
    }
    drain();
    account(start, next_sf_);
    s.subframes = next_sf_ - start;
    std::sort(rates, rates + kWindows);
    s.rt_x = 0.5 * (rates[kWindows / 2 - 1] + rates[kWindows / 2]);
    return s;
  }

  /// Paced phase: subframe i of every carrier is due at t0 + i * period
  /// regardless of how the decoder keeps up. `push_s`/`fill` (traced
  /// only) and `late_s` must have room for every subframe.
  void paced(double seconds, double paced_x, bool traced,
             std::vector<double>& late_s, std::vector<double>& push_s,
             std::size_t& fill_hwm) {
    const double period = 1e-3 / paced_x;
    const std::size_t n = paced_subframes(seconds, paced_x);
    const std::size_t start = next_sf_;
    const double t0 = now_s() + 1e-3;
    pace_period_.store(period, std::memory_order_relaxed);
    pace_t0_.store(t0, std::memory_order_relaxed);
    pace_k0_.store(start, std::memory_order_release);
    fill_hwm = 0;
    for (std::size_t i = 0; i < n; ++i, ++next_sf_) {
      const double due = t0 + static_cast<double>(i) * period;
      std::this_thread::sleep_until(to_time_point(due));
      late_s.push_back(now_s() - due);
      for (std::size_t c = 0; c < carriers_.size(); ++c) {
        if (traced) {
          const double p0 = now_s();
          push(c, next_sf_);
          push_s.push_back(now_s() - p0);
          fill_hwm = std::max(fill_hwm, pipe_->ring(c).fill());
        } else {
          push(c, next_sf_);
        }
      }
    }
    drain();
    pace_k0_.store(kNever, std::memory_order_relaxed);
    account(start, next_sf_);
  }

  static std::size_t paced_subframes(double seconds, double paced_x) {
    return static_cast<std::size_t>(std::ceil(seconds * 1e3 * paced_x));
  }

  /// Reserve latency slots for a paced phase of `subframes` per carrier.
  void reserve_latency(std::size_t subframes) {
    for (Tally& t : tallies_) t.latency_s.assign(subframes, kNaN);
  }
  /// Latencies of every packet of the paced phase, all carriers.
  std::vector<double> latencies() const {
    std::vector<double> out;
    for (const Tally& t : tallies_) {
      for (const double v : t.latency_s) {
        if (!std::isnan(v)) out.push_back(v);
      }
    }
    return out;
  }

  /// Start counting what the timed phases send and emit.
  void reset_counts() {
    sent_ = 0;
    for (Tally& t : tallies_) {
      t.ok = t.mismatch = t.extra = 0;
      t.latency_overflow = 0;
    }
  }
  void arm_fault() {
    std::size_t cap = 0;
    for (const Carrier& c : carriers_) {
      for (const auto& p : c.sent) cap = std::max(cap, p.size());
    }
    for (Tally& t : tallies_) t.scratch.reserve(cap);
    fault_.store(true, std::memory_order_relaxed);
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t ok() const { return sum(&Tally::ok); }
  std::uint64_t mismatch() const { return sum(&Tally::mismatch); }
  std::uint64_t extra() const { return sum(&Tally::extra); }
  std::uint64_t latency_overflow() const {
    return sum(&Tally::latency_overflow);
  }
  std::uint64_t dropped_samples() const {
    std::uint64_t d = 0;
    for (std::size_t c = 0; c < carriers_.size(); ++c) {
      d += pipe_->ring(c).dropped_samples();
    }
    return d;
  }
  bool stalled() const { return stalled_; }

  /// Wait until the workers have emitted an event for every slot pushed.
  /// Slots the ring dropped never emit one (the run then fails on the
  /// drop), so with drops the wait ends once events stop coming.
  void drain() {
    double last_progress = now_s();
    std::uint64_t last = 0;
    for (;;) {
      const std::uint64_t e = events();
      if (e >= expected_events_) return;
      if (e != last) {
        last = e;
        last_progress = now_s();
      } else if (dropped_samples() != 0 && now_s() - last_progress > 0.5) {
        return;
      } else if (now_s() - last_progress > 30.0) {
        stalled_ = true;
        return;
      }
      std::this_thread::yield();
    }
  }

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  std::uint64_t events() const {
    std::uint64_t e = 0;
    for (const Tally& t : tallies_) {
      e += t.events.load(std::memory_order_acquire);
    }
    return e;
  }

  void push(std::size_t c, std::size_t sf) {
    const std::size_t pos = (sf % replay_sf_) * spsf_;
    const Carrier& car = carriers_[c];
    pipe_->push(c, std::span<const dsp::cf32>(car.rx).subspan(pos, spsf_),
                std::span<const dsp::cf32>(car.ambient).subspan(pos, spsf_));
    if (car.demodulated[sf % car.unique_sf]) ++expected_events_;
  }

  /// Count what the tag sent in subframes [begin, end) of every carrier.
  void account(std::size_t begin, std::size_t end) {
    for (const Carrier& c : carriers_) {
      for (std::size_t sf = begin; sf < end; ++sf) {
        if (!c.sent[sf % c.unique_sf].empty()) ++sent_;
      }
    }
  }

  void on_packet(std::size_t carrier,
                 const core::StreamingReceiver::PacketEvent& ev) {
    Tally& t = tallies_[carrier];
    const Carrier& c = carriers_[carrier];
    const std::size_t sf = ev.first_subframe_index;
    const std::uint64_t k0 = pace_k0_.load(std::memory_order_acquire);
    if (sf >= k0) {
      const double due =
          pace_t0_.load(std::memory_order_relaxed) +
          static_cast<double>(sf - k0) *
              pace_period_.load(std::memory_order_relaxed);
      if (sf - k0 < t.latency_s.size()) {
        t.latency_s[sf - k0] = now_s() - due;
      } else {
        ++t.latency_overflow;
      }
    }
    if (ev.result.payload) {
      const std::vector<std::uint8_t>& sent = c.sent[sf % c.unique_sf];
      const std::vector<std::uint8_t>* got = &*ev.result.payload;
      if (fault_.exchange(false, std::memory_order_relaxed)) {
        t.scratch.assign(got->begin(), got->end());
        if (!t.scratch.empty()) t.scratch[0] ^= 1;
        got = &t.scratch;
      }
      if (sent.empty()) {
        ++t.extra;
      } else if (*got == sent) {
        ++t.ok;
      } else {
        ++t.mismatch;
      }
    }
    t.events.fetch_add(1, std::memory_order_release);
  }

  std::uint64_t sum(std::uint64_t Tally::*field) const {
    std::uint64_t s = 0;
    for (const Tally& t : tallies_) s += t.*field;
    return s;
  }

  std::vector<Carrier> carriers_;
  std::vector<Tally> tallies_;
  std::unique_ptr<core::DecodePipeline> pipe_;
  std::size_t spsf_ = 0;
  std::size_t replay_sf_ = 0;
  std::size_t next_sf_ = 0;
  std::uint64_t expected_events_ = 0;
  std::uint64_t sent_ = 0;
  bool stalled_ = false;
  std::atomic<bool> fault_{false};
  std::atomic<std::uint64_t> pace_k0_{kNever};
  std::atomic<double> pace_t0_{0.0};
  std::atomic<double> pace_period_{0.0};
};

/// Build a replay and warm it: one pass over the generated block visits
/// every subframe phase mod 10 (each selects its own codec and buffer
/// sizes), so nothing is left to allocate in the timed phases.
std::unique_ptr<Replay> set_up(const StreamWorkload& w, std::uint64_t seed,
                               LayerTimes* times) {
  auto r = std::make_unique<Replay>(w, seed, times);
  r->push_closed_loop(r->carriers().front().unique_sf, false);
  r->drain();
  return r;
}

}  // namespace

void run_stream(const StreamWorkload& w, const RunOptions& opt,
                Outcome& out) {
  LayerTimes times;
  const std::unique_ptr<Replay> replay =
      set_up(w, opt.seed, opt.trace ? &times : nullptr);
  const double setup_s = now_s() - opt.start_s;
  if (opt.setup_only) {
    out.add("setup_s", setup_s, "s");
    return;
  }
  Replay& r = *replay;
  const std::size_t n_carriers = w.carriers.size();

  // Budget: untraced = saturated + paced halves; traced = untraced
  // saturated quarter, traced saturated quarter, traced paced half.
  const double sat_s = opt.trace ? opt.seconds / 4 : opt.seconds / 2;
  const double pace_s = opt.seconds / 2;
  const std::size_t paced_n = Replay::paced_subframes(pace_s, w.paced_x);
  std::vector<double> late_s;
  std::vector<double> push_s;
  late_s.reserve(paced_n);
  push_s.reserve(opt.trace ? paced_n * n_carriers : 0);
  r.reserve_latency(paced_n);
  r.reset_counts();
  if (opt.inject_fault) r.arm_fault();

  const std::uint64_t allocs0 = heap_allocations();
  const double rt_x = r.saturated(sat_s, false).rt_x;
  Replay::Saturated traced;
  std::uint64_t traced_spans = 0;
  if (opt.trace) {
    const std::uint64_t s0 = spans_recorded();
    traced = r.saturated(sat_s, true);
    traced_spans = spans_recorded() - s0;
  }
  std::size_t fill_hwm = 0;
  r.paced(pace_s, w.paced_x, opt.trace, late_s, push_s, fill_hwm);
  const std::uint64_t allocs = heap_allocations() - allocs0;

  // ---- correctness ------------------------------------------------------
  const std::uint64_t sent = r.sent();
  const std::uint64_t ok = r.ok();
  const std::uint64_t wrong = r.mismatch() + r.extra();
  const std::uint64_t dropped = r.dropped_samples();
  out.attempted = sent;
  out.failed = wrong;
  if (r.stalled()) out.fail("decoder stopped emitting events (stall)");
  if (wrong != 0) {
    out.fail(std::to_string(r.mismatch()) + " payload mismatch(es) and " +
             std::to_string(r.extra()) + " false positive(s)");
  }
  if (dropped != 0) {
    out.fail(std::to_string(dropped) + " sample(s) dropped by the ring");
  }
  if (allocs != 0) {
    out.fail(std::to_string(allocs) +
             " heap allocation(s) in the timed phases (must be 0)");
  }
  if (r.latency_overflow() != 0) out.fail("latency slots overflowed");
  const double loss =
      sent == 0 ? 1.0
                : static_cast<double>(sent - std::min(ok, sent)) /
                      static_cast<double>(sent);
  if (sent == 0 || loss > kMaxMissRatio) {
    out.fail("packet loss " + std::to_string(loss) + " above " +
             std::to_string(kMaxMissRatio));
  }
  std::printf("packets: %llu sent, %llu emitted CRC-clean and exact, %llu "
              "wrong; fail_ratio (not exact / sent) %.5f; dropped samples "
              "%llu; heap allocations in timed phases %llu\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(wrong), loss,
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(allocs));

  std::vector<double> lat = r.latencies();
  const double lat_p50 = dsp::quantile(lat, 0.50);
  const double lat_p99 = dsp::quantile(lat, 0.99);
  const double late_p99 = dsp::quantile(late_s, 0.99);
  std::printf("paced phase: %zu subframes per carrier at %.2fx realtime; %zu "
              "packet latencies, p50 %.3f ms, p99 %.3f ms; generator late "
              "p99 %.3f ms\n",
              paced_n, w.paced_x, lat.size(), 1e3 * lat_p50, 1e3 * lat_p99,
              1e3 * late_p99);
  if (!opt.trace) {
    out.add("rt_x", rt_x, "x");
    out.add("lat_p50_ms", 1e3 * lat_p50, "ms");
    out.add("setup_s", setup_s, "s");
    return;
  }

  // ---- per-layer (traced run) --------------------------------------------
  replay->pipe().stop();
  std::vector<double> push_us;
  for (double s : push_s) push_us.push_back(1e6 * s);
  out.add("pipeline.push_us_p50", dsp::quantile(push_us, 0.5), "us");
  out.add("pipeline.throttle_s", traced.throttle_s, "s");
  out.add("pipeline.ring_hwm_chunks", static_cast<double>(fill_hwm),
          "chunks");
  out.add("lat_p99_ms", 1e3 * lat_p99, "ms");
  out.add("loadgen.late_ms_p99", 1e3 * late_p99, "ms");
  out.add("obs.spans_per_sf",
          static_cast<double>(traced_spans) /
              static_cast<double>(traced.subframes * n_carriers),
          "count");
  double coverage = 0.0;
  const double direct =
      probe_stream_layers(r.carriers(), times, coverage, out);
  out.add("pipeline.rt_vs_direct", rt_x / direct, "ratio");
  out.add("trace.overhead", traced.rt_x / rt_x, "ratio");
  out.add("trace.coverage", coverage, "ratio");
}

}  // namespace lsbench
