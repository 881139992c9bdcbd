// lsbench: the LScatter benchmark binary.
//
//   lsbench --workload <stream20|stream1p4x4|sweep20> --seed <n>
//           --seconds <s> --trace <0|1> [--inject-fault]
//           [--setup-only | --cold-setups <s>,<s>,...]
//
// Prints progress and provenance lines, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when an output check failed, 2 on a usage error or a build that must
// not be timed. See README.md.
//
// setup_s is the time from main() entry to the first timed operation of
// this process. --setup-only stops there and reports only setup_s;
// --cold-setups passes the setup_s of such processes in, and the run
// reports the median of them and its own.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/scenario.hpp"
#include "core/sim_pool.hpp"
#include "dsp/simd.hpp"
#include "obs/alloc_probe.hpp"
#include "workloads.hpp"

#ifndef LSBENCH_BUILD_TYPE
#define LSBENCH_BUILD_TYPE "unknown"
#endif

namespace lsbench {

std::uint64_t heap_allocations() { return obs::alloc_probe_count(); }

namespace {

// The decode/pool threads plus the producer or caller: the most threads
// any workload runs at once, and the spinner count of the core probe.
constexpr std::size_t kThreadBudget = 3;

/// Effective parallel cores: the wall time of one spinner against
/// kThreadBudget concurrent spinners doing the same work each (median of
/// three trials). A host that time-slices the threads on one core reads
/// about 1.
double effective_cores() {
  const auto spin = [] {
    volatile std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000'000; ++i) {
      std::uint64_t v = x;
      v ^= v << 13;
      v ^= v >> 7;
      v ^= v << 17;
      x = v;
    }
  };
  std::vector<double> ratios;
  for (int trial = 0; trial < 3; ++trial) {
    double t0 = now_s();
    spin();
    const double one = now_s() - t0;
    t0 = now_s();
    std::vector<std::thread> team;
    for (std::size_t i = 0; i < kThreadBudget; ++i) team.emplace_back(spin);
    for (std::thread& th : team) th.join();
    ratios.push_back(static_cast<double>(kThreadBudget) * one /
                     (now_s() - t0));
  }
  return dsp::median(ratios);
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void print_result(const Outcome& out) {
  for (const std::string& p : out.problems) {
    std::printf("INCORRECT: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Outcome::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "lsbench: %s\nusage: lsbench --workload "
               "<stream20|stream1p4x4|sweep20> --seed <n> --seconds <s> "
               "--trace <0|1> [--inject-fault] [--setup-only | "
               "--cold-setups <s>,<s>,...]\n",
               why);
  return 2;
}

}  // namespace

}  // namespace lsbench

int main(int argc, char** argv) {
  using namespace lsbench;
  RunOptions opt;
  opt.start_s = now_s();
  // Timing an unoptimised or assert-enabled build would measure the
  // build, not the code.
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "lsbench: refusing to time a %s build (needs optimisation and "
               "NDEBUG; configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo)\n",
               LSBENCH_BUILD_TYPE);
  return 2;
#endif
  std::string workload;
  std::vector<double> cold_setups;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--inject-fault") {
      opt.inject_fault = true;
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--cold-setups" && has_value) {
      for (char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        cold_setups.push_back(std::strtod(p, &end));
        if (end == p || !(cold_setups.back() > 0.0)) {
          return usage("--cold-setups takes positive seconds, comma-separated");
        }
        p = *end == ',' ? end + 1 : end;
      }
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 60.0)) {
    return usage("--seconds must be in (0, 60]");
  }
  if (opt.setup_only && (opt.trace || opt.inject_fault)) {
    return usage("--setup-only runs untraced and without --inject-fault");
  }

  Outcome out;
  std::size_t workers = 0;
  if (workload == "stream20") {
    // One 20 MHz carrier, tag in every slot (the paper's 13.63 Mbps
    // configuration). 100 generated subframes tiled to 700: 344 MB of
    // rx + ambient, larger than the 300 MiB last-level cache of the
    // reference host, so decode streams its input from memory.
    StreamWorkload w;
    CarrierSpec spec;
    spec.unique_sf = 100;
    spec.replay_sf = 700;
    w.carriers.push_back(spec);
    w.workers = workers = 1;
    w.paced_x = 0.25;
    run_stream(w, opt, out);
  } else if (workload == "stream1p4x4") {
    // Four 1.4 MHz carriers whose tags follow the hour-of-day activity of
    // four sites; one loop is a 24-hour day of 20 subframes per hour.
    StreamWorkload w;
    for (const traffic::Site site :
         {traffic::Site::kHome, traffic::Site::kMall, traffic::Site::kOffice,
          traffic::Site::kOutdoor}) {
      CarrierSpec spec;
      spec.bandwidth = lte::Bandwidth::kMHz1_4;
      spec.full_duty = false;
      spec.site = site;
      spec.unique_sf = spec.replay_sf = 24 * kSubframesPerHour;
      w.carriers.push_back(spec);
    }
    w.workers = workers = 2;
    // 256 chunks hold 64 ms of the paced load (the default 64 would hold
    // 16 ms), so a scheduling hiccup of a shared host does not overflow
    // the ring.
    w.ring_chunks = 256;
    w.paced_x = 4.0;
    run_stream(w, opt, out);
  } else if (workload == "sweep20") {
    if (opt.inject_fault) {
      return usage("--inject-fault applies to the stream workloads");
    }
    workers = 2;
    run_sweep(opt, out);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  if (opt.setup_only) {
    print_result(out);
    return 0;
  }
  for (Outcome::Metric& m : out.metrics) {
    if (m.name != "setup_s") continue;
    cold_setups.push_back(m.value);
    m.value = dsp::median(cold_setups);
  }
  if (opt.trace) {
    if (workload != "sweep20") {
      const lte::Bandwidth bw = workload == "stream20"
                                    ? lte::Bandwidth::kMHz20
                                    : lte::Bandwidth::kMHz1_4;
      core::ScenarioOptions sopt;
      sopt.bandwidth = bw;
      sopt.seed = opt.seed;
      const core::LinkConfig base =
          core::make_scenario(core::Scene::kSmartHome, sopt);
      // About half a second of serial drops at either bandwidth.
      const std::size_t drops = workload == "stream20" ? 12 : 96;
      probe_link_layers(drops, 2, [&base](std::size_t d) {
        return core::config_for_drop(base, d);
      }, out);
    }
  } else {
    out.add("rss_peak_mb", rss_peak_mb(), "MB");
  }
  const double cores = effective_cores();
  if (opt.trace) out.add("host.effective_cores", cores, "cores");
  std::printf("provenance: build=%s simd=%s workers=%zu nproc=%ld "
              "effective_cores=%.2f seed=%llu seconds=%g trace=%d "
              "cold_setups=%zu\n",
              LSBENCH_BUILD_TYPE, dsp::to_string(dsp::simd_tier()), workers,
              sysconf(_SC_NPROCESSORS_ONLN), cores,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, cold_setups.size());
  print_result(out);
  return out.correct ? 0 : 1;
}
