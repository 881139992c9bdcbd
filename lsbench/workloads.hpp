#pragma once
// The three lsbench workloads. Each fills an Outcome with its end-to-end
// metrics (trace = false) or its per-layer metrics (trace = true); see
// README.md for what each metric measures and which end-to-end metric it
// is expected to move.

#include <functional>

#include "common.hpp"
#include "core/link_simulator.hpp"

namespace lsbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupt one emitted payload before it is verified (the benchmark's
  /// self-test: the run must then report incorrect).
  bool inject_fault = false;
  /// steady_clock seconds at main() entry: setup_s runs from here to the
  /// first timed operation, so it includes every one-time cold cost.
  double start_s = 0.0;
  /// Set up, report setup_s and stop before the timed phases.
  bool setup_only = false;
};

/// Streaming decode through core::DecodePipeline: a closed-loop
/// saturated phase (rt_x) and an open-loop paced phase (latency).
struct StreamWorkload {
  std::vector<CarrierSpec> carriers;
  std::size_t workers = 1;
  /// Ring capacity per carrier, in one-subframe chunks.
  std::size_t ring_chunks = 64;
  /// Offered load of the paced phase, realtime multiple per carrier.
  double paced_x = 0.25;
};

void run_stream(const StreamWorkload& w, const RunOptions& opt,
                Outcome& out);

/// The Fig. 19 smart-home distance grid at 20 MHz through
/// core::for_each_drop.
void run_sweep(const RunOptions& opt, Outcome& out);

/// Per-layer metrics of the link-simulation path: a serial
/// LinkSimulator::run per drop against the same drops pooled over
/// `workers` threads through core::for_each_drop (pool.*,
/// channel.awgn_share). Also checks that the pooled results equal the
/// serial ones. Returns the stage seconds the library attributed inside
/// the serial link runs over their total (the link path's coverage).
double probe_link_layers(
    std::size_t drops, std::size_t workers,
    const std::function<core::LinkConfig(std::size_t)>& make_config,
    Outcome& out);

/// Per-layer metrics of the stream decode path (stream.*, rx.*, offset.*,
/// lte.*, tag.*, channel.awgn_ns_per_sample) measured by direct calls on
/// already generated carriers. Returns the direct single-thread decode
/// rate in air-seconds per wall-second and sets `coverage`, the demod
/// stage seconds the library attributed inside the timed feed() calls
/// over their total.
double probe_stream_layers(const std::vector<Carrier>& carriers,
                           const LayerTimes& times, double& coverage,
                           Outcome& out);

}  // namespace lsbench
