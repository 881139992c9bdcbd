// sweep20: the Fig. 19 smart-home distance grid (eNodeB-to-tag x
// tag-to-UE, 1..25 ft, 10 dBm) at 20 MHz, the figure-bench path.
//
// Each grid cell runs kDropsPerCell 10-subframe drops through
// core::for_each_drop on kWorkers pool threads, the way the figure
// benches do. Whole passes over the grid run until the time budget is
// spent; pass p uses drops p * kDropsPerCell .. of each cell's seed, so
// later passes add fresh drops. A drop's latency runs from its start on a
// pool worker (the pool asks for its config) to its in-order delivery on
// the calling thread.
//
// Output checks, on each cell's median drop throughput over all passes
// run (at least two): every cell inside a band set from seed-to-seed
// spread (kMinMbps, kMaxMbps), and the far corner below the minimum of
// the 15-ft box. The median, not the Fig. 19 mean, because a rare deep
// double-hop fade takes one drop of a near cell to ~0 Mbps, which would
// move the mean of a dozen drops below any band the spread supports.

#include <cstdio>

#include "core/scenario.hpp"
#include "core/sim_pool.hpp"
#include "workloads.hpp"

namespace lsbench {

namespace {

constexpr double kDists[] = {1, 5, 10, 15, 20, 25};
constexpr std::size_t kGrid = 6;
constexpr std::size_t kCells = kGrid * kGrid;
constexpr std::size_t kDropsPerCell = 4;
constexpr std::size_t kSubframes = 10;
constexpr std::size_t kWorkers = 2;

// Lower bounds of the mean throughput per cell [Mbps], rows = tag-to-UE,
// columns = eNodeB-to-tag, in kDists order. Set from the one-pass
// (four-drop) cell means of 40 seeds as mean - max(5 sigma, twice the
// distance to the lowest seed, 0.1 Mbps); deep fades give the far cells
// long lower tails, hence the second term. Every cell must also stay below
// kMaxMbps, just above the schedule's 13.53 Mbps PHY rate. The check
// applies them to all passes together (at least eight drops), whose
// spread is narrower still, and to the median drop, which sits at or above
// the mean under these left-skewed fades: a change that only swaps the
// noise stream lands inside, a change of the physics does not.
constexpr double kMinMbps[kCells] = {
    13.43, 13.43, 13.43, 13.43, 13.43, 13.42,
    13.43, 13.43, 13.30, 13.27, 12.81, 12.32,
    13.43, 13.42, 12.76, 11.85, 11.63, 11.19,
    13.43, 13.04, 11.68,  8.93,  8.28,  9.21,
    13.43,  9.92, 11.82,  9.59,  6.03,  5.96,
    13.43, 13.07,  9.47,  6.67,  5.91,  5.20,
};
constexpr double kMaxMbps = 13.6;

/// Row-major: tag-to-UE rows, eNodeB-to-tag columns.
using Grid = std::vector<core::LinkConfig>;

Grid make_grid(std::uint64_t seed) {
  Grid g;
  for (std::size_t r = 0; r < kGrid; ++r) {
    for (std::size_t col = 0; col < kGrid; ++col) {
      core::ScenarioOptions opt;
      opt.seed = dsp::derive_seed(seed, r * kGrid + col);
      core::LinkConfig cfg = core::make_scenario(core::Scene::kSmartHome, opt);
      cfg.geometry.enb_tag_ft = kDists[col];
      cfg.geometry.tag_ue_ft = kDists[r];
      g.push_back(cfg);
    }
  }
  return g;
}

struct SweepTally {
  std::uint64_t drops = 0;
  std::uint64_t threw = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_detected = 0;
  std::uint64_t packets_ok = 0;
  std::vector<double> latency_s;
  std::vector<std::vector<double>> cell_mbps =
      std::vector<std::vector<double>>(kCells);  // per drop
};

/// Run one cell's drops of pass `pass` through the pool.
void run_cell(const core::LinkConfig& cell, std::size_t cell_index,
              std::size_t pass, SweepTally& t, std::vector<std::string>& errs) {
  double started[kDropsPerCell] = {};
  core::PoolOptions popt;
  popt.threads = kWorkers;
  std::size_t delivered = 0;
  try {
    core::for_each_drop(
        kDropsPerCell, kSubframes, popt,
        [&](std::size_t d) {
          started[d] = now_s();
          return core::config_for_drop(cell, pass * kDropsPerCell + d);
        },
        [&](const core::DropOutcome& o) {
          t.latency_s.push_back(now_s() - started[o.drop_index]);
          ++delivered;
          t.packets_sent += o.metrics.packets_sent;
          t.packets_detected += o.metrics.packets_detected;
          t.packets_ok += o.metrics.packets_ok;
          const double mbps = o.metrics.throughput_bps() / 1e6;
          t.cell_mbps[cell_index].push_back(mbps);
        });
  } catch (const std::exception& e) {
    errs.push_back(e.what());
  }
  t.drops += kDropsPerCell;
  t.threw += kDropsPerCell - delivered;
}

struct Phase {
  double rt_x = 0.0;
  std::size_t passes = 0;
};

/// Whole passes over the grid, at least `min_passes`, until `seconds`
/// have passed.
Phase run_passes(const Grid& g, double seconds, std::size_t min_passes,
                 std::size_t first_pass, SweepTally& t,
                 std::vector<std::string>& errs) {
  Phase ph;
  const double t0 = now_s();
  const std::uint64_t drops0 = t.drops;
  do {
    for (std::size_t c = 0; c < kCells; ++c) {
      run_cell(g[c], c, first_pass + ph.passes, t, errs);
    }
    ++ph.passes;
  } while (ph.passes < min_passes || now_s() - t0 < seconds);
  ph.rt_x = 1e-3 * static_cast<double>((t.drops - drops0) * kSubframes) /
            (now_s() - t0);
  return ph;
}

void check_shape(const SweepTally& t, Outcome& out) {
  std::printf("median drop throughput over all passes [Mbps], rows "
              "tag-to-UE, columns eNB-to-tag (ft)\n%6s", "");
  for (const double d : kDists) std::printf("%8.0f", d);
  std::printf("\n");
  const auto cell = [&t](std::size_t i) {
    return dsp::median(t.cell_mbps[i]);
  };
  double box_min = 1e9;
  for (std::size_t r = 0; r < kGrid; ++r) {
    std::printf("%6.0f", kDists[r]);
    for (std::size_t col = 0; col < kGrid; ++col) {
      const std::size_t i = r * kGrid + col;
      const double v = cell(i);
      std::printf("%8.3f", v);
      if (kDists[r] <= 15 && kDists[col] <= 15) box_min = std::min(box_min, v);
      if (v < kMinMbps[i] || v > kMaxMbps) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "Fig. 19 cell (%g ft, %g ft) at %.3f Mbps is outside "
                      "[%.2f, %.2f]",
                      kDists[col], kDists[r], v, kMinMbps[i], kMaxMbps);
        out.fail(msg);
      }
    }
    std::printf("\n");
  }
  const double corner = cell(kCells - 1);
  std::printf("15-ft box minimum %.3f Mbps, far corner %.3f Mbps\n", box_min,
              corner);
  if (!(corner < box_min)) {
    out.fail("far corner is not below the 15-ft box minimum");
  }
}

}  // namespace

void run_sweep(const RunOptions& opt, Outcome& out) {
  const Grid grid = make_grid(opt.seed);
  // Warm the process-wide FFT plan cache with one drop.
  core::LinkSimulator(core::config_for_drop(grid.front(), 1u << 20))
      .run(kSubframes);
  const double setup_s = now_s() - opt.start_s;
  if (opt.setup_only) {
    out.add("setup_s", setup_s, "s");
    return;
  }

  SweepTally t;
  std::vector<std::string> errs;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase ph = run_passes(grid, budget, opt.trace ? 1 : 2, 0, t, errs);
  // Traced: a second, equal phase. A traced sweep times nothing more than
  // an untraced one: its layers run inside the pool, where the only
  // tracing is the library's always-on histograms, present in both
  // phases. trace.overhead is therefore 1 by construction, and its
  // distance from 1 is the run-to-run noise of a sweep rt_x reading.
  Phase traced;
  if (opt.trace) traced = run_passes(grid, budget, 1, ph.passes, t, errs);
  check_shape(t, out);
  std::printf("sweep: %zu pass(es), %llu drops, %zu latencies\n",
              ph.passes + traced.passes,
              static_cast<unsigned long long>(t.drops), t.latency_s.size());

  out.attempted = t.drops;
  out.failed = t.threw;
  for (const std::string& e : errs) out.fail("drop threw: " + e);
  if (!opt.trace) {
    out.add("rt_x", ph.rt_x, "x");
    out.add("lat_p50_ms", 1e3 * dsp::quantile(t.latency_s, 0.50), "ms");
    out.add("setup_s", setup_s, "s");
    return;
  }
  out.add("lat_p99_ms", 1e3 * dsp::quantile(t.latency_s, 0.99), "ms");
  out.add("trace.overhead", traced.rt_x / ph.rt_x, "ratio");

  // Layer probes. The 20 MHz pipeline, receiver and offset metrics come
  // from a short stream of the same numerology.
  Outcome mini;
  StreamWorkload w;
  CarrierSpec spec;
  spec.unique_sf = spec.replay_sf = 100;
  w.carriers.push_back(spec);
  RunOptions mopt = opt;
  mopt.seconds = 2.0;
  mopt.inject_fault = false;
  run_stream(w, mopt, mini);
  for (const auto& m : mini.metrics) {
    if (m.name != "trace.overhead" && m.name != "lat_p99_ms") {
      out.add(m.name, m.value, m.unit);
    }
  }
  for (const auto& p : mini.problems) out.fail("20 MHz stream probe: " + p);

  out.add("rx.preamble_found_ratio",
          static_cast<double>(t.packets_detected) /
              static_cast<double>(t.packets_sent),
          "ratio");
  out.add("rx.crc_ok_ratio",
          static_cast<double>(t.packets_ok) /
              static_cast<double>(t.packets_sent),
          "ratio");
  const double coverage = probe_link_layers(
      kCells, kWorkers,
      [&grid](std::size_t d) {
        return core::config_for_drop(grid[d % kCells], d / kCells);
      },
      out);
  out.add("trace.coverage", coverage, "ratio");
}

}  // namespace lsbench
