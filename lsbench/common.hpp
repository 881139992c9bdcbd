#pragma once
// Shared pieces of the lsbench benchmark: clock, library counters, the
// result record every workload fills in, and the pre-generated IQ streams
// the streaming workloads replay.
//
// The benchmark drives the library only through its public headers; every
// per-layer number is either a timed call the benchmark itself makes or a
// histogram the library already records (read as a delta around the
// benchmark's own calls).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/streaming_receiver.hpp"
#include "dsp/stats.hpp"
#include "lte/cell_config.hpp"
#include "tag/tag_controller.hpp"
#include "traffic/occupancy_model.hpp"

namespace lsbench {

using namespace lscatter;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sum of a library histogram's recorded values (seconds for timers);
/// 0 when the histogram does not exist yet.
double histogram_sum(const std::string& name);
/// Total spans the library has recorded so far.
std::uint64_t spans_recorded();
/// Global operator new calls so far, all threads (obs/alloc_probe.hpp,
/// hooked in main.cpp).
std::uint64_t heap_allocations();

/// What one run reports: the contract's result line plus the problems
/// that made it incorrect.
struct Outcome {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  /// Add a metric, replacing an earlier value of the same name.
  void add(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m = {name, value, unit};
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Per-call timings the benchmark takes around its own calls into a
/// layer (seconds per call).
struct LayerTimes {
  std::vector<double> enodeb_subframe;
  std::vector<double> apply_pattern;
  double awgn_s = 0.0;
  std::uint64_t awgn_samples = 0;
};

/// One carrier's replay buffer. `unique_sf` subframes are generated
/// (Enodeb -> TagController/apply_pattern -> channel AWGN) and tiled to
/// `replay_sf` subframes; both are multiples of the 10-subframe frame so
/// the LTE and tag schedules stay continuous across the loop.
struct Carrier {
  lte::CellConfig cell;
  std::size_t unique_sf = 0;
  std::size_t replay_sf = 0;
  dsp::cvec rx;
  dsp::cvec ambient;
  /// Per unique slot: the payload the tag sent (empty = no packet).
  std::vector<std::vector<std::uint8_t>> sent;
  /// Per unique slot: the tag's timing error (units) when it sent.
  std::vector<std::ptrdiff_t> timing_error;
  /// Per unique slot: true when the receiver emits an event for it
  /// (packet capacity > 32 bits, i.e. not a listening subframe).
  std::vector<bool> demodulated;
  std::size_t packets_per_unique = 0;
  std::size_t events_per_unique = 0;
};

struct CarrierSpec {
  lte::Bandwidth bandwidth = lte::Bandwidth::kMHz20;
  /// true: the tag sends in every slot (the paper's continuous 13.63 Mbps
  /// configuration); false: with the hour-of-day activity of `site`.
  bool full_duty = true;
  traffic::Site site = traffic::Site::kHome;
  std::size_t unique_sf = 100;
  std::size_t replay_sf = 100;
};

/// Subframes per simulated hour when the tag duty follows the day.
inline constexpr std::size_t kSubframesPerHour = 20;

/// The tag schedule every stream uses (library defaults: one-subframe
/// packets, resync one subframe in ten).
tag::TagScheduleConfig stream_schedule();

/// Generate one carrier. `times`, when non-null, collects the timings of
/// the benchmark's calls into lte, tag and channel.
Carrier make_carrier(const CarrierSpec& spec, std::uint64_t seed,
                     LayerTimes* times);

}  // namespace lsbench
