#pragma once

/// \file workloads.hpp
/// The two benchmark workloads and the per-layer probe suite. Every
/// workload reports the same end-to-end metric names; what each one
/// means per workload is listed in perfbench/README.md.

#include <vector>

#include "bench.hpp"

namespace perfbench {

/// TCAE identity training with crash-safe checkpoints, G-TCAE guide
/// training on good vectors from the fixed weights, and the latency of
/// single TCAE optimizer steps.
void runTrain(const RunConfig& cfg, Report& report, Trace& trace,
              int setupReps);
/// Fixed-weight generation: the streamed runMassive pipeline, the float
/// TCAE-Random flow, and Eq. 10 materialization of stored patterns.
void runGenerate(const RunConfig& cfg, Report& report, Trace& trace,
                 int setupReps);
/// Times calls into each module's public functions on fixed inputs and
/// records every per-layer metric into `report.layers`.
void probeLayers(const RunConfig& cfg, Report& report, Trace& trace);

/// Runs `setup` `reps` times, reports the median as setup_s and returns
/// the last result.
template <typename SetupFn>
auto timedSetup(int reps, Report& report, SetupFn&& setup) {
  std::vector<double> times;
  Clock::time_point t0 = Clock::now();
  auto state = setup();
  times.push_back(secondsSince(t0));
  for (int i = 1; i < reps; ++i) {
    t0 = Clock::now();
    state = setup();
    times.push_back(secondsSince(t0));
  }
  report.metric("setup_s", median(times), "s");
  return state;
}

/// The end-to-end figures every workload reports besides setup_s and
/// peak_rss_mb (README.md lists their meaning per workload).
struct CommonFigures {
  double throughput = 0.0;     ///< main phase items per second
  double auxThroughput = 0.0;  ///< second phase items per second
  std::vector<double> latenciesMs;  ///< unit-operation latencies
  /// latency_p50_ms is the fastest median over blocks of this many
  /// consecutive latencies (see fastestBlockMedian).
  std::size_t latencyBlock = 0;
  double uniquePatterns = 0.0;
  double diversityBits = 0.0;
};
/// Records the shared end-to-end metrics (plus peak RSS) and, as notes,
/// the CPU and steal seconds of the timed phases.
void reportCommon(const CommonFigures& f, const PhaseClock& phases,
                  Report& report);

}  // namespace perfbench
