// perfbench — the repository's benchmark binary (run it through
// perfbench/run.py, which builds it and pins DP_THREADS).
//
//   perfbench --workload train|generate --seed N --seconds S
//             --trace 0|1 --out DIR --assets DIR
//   perfbench make-weights --assets DIR
//
// A run sets its workload up five times (setup_s is the median), runs
// whole cycles of timed work for --seconds, checks the outputs, and
// prints one JSON object as its last stdout line. --trace 1 runs the
// workload once untraced and once with spans recorded (their difference
// is the tracing overhead, printed as '#' lines), then the per-layer
// probes, and writes the spans as Chrome trace-event JSON under --out.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "fixture.hpp"
#include "io/json.hpp"
#include "tensor/gemm.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Report;
using perfbench::RunConfig;

std::string argValue(int argc, char** argv, const std::string& key,
                     const std::string& def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == "--" + key) return argv[i + 1];
  return def;
}

dp::io::Json hostFingerprint() {
  dp::io::Json host = dp::io::Json::object();
  host.set("kernel_target",
           dp::kernelTargetName(dp::nn::gemmKernelTarget()));
  host.set("nproc", static_cast<long>(std::thread::hardware_concurrency()));
  host.set("compiler", std::string(__VERSION__));
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  const char* threads = std::getenv("DP_THREADS");
  host.set("dp_threads", threads ? threads : "unset");
  host.set("pool_lanes", dp::ThreadPool::global().threads());
  return host;
}

void runWorkload(const RunConfig& cfg, Report& report,
                 perfbench::Trace& trace, int setupReps) {
  if (cfg.workload == "train")
    perfbench::runTrain(cfg, report, trace, setupReps);
  else
    perfbench::runGenerate(cfg, report, trace, setupReps);
}

double metricOf(const Report& r, const std::string& name) {
  for (const auto& [n, m] : r.metrics)
    if (n == name) return m.value;
  return 0.0;
}

void printLines(const std::vector<std::pair<std::string, Report::Metric>>& v,
                const char* prefix) {
  for (const auto& [name, m] : v)
    std::printf("%s %-40s %.6g %s\n", prefix, name.c_str(), m.value,
                m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "make-weights") {
      const std::string assets = argValue(argc, argv, "assets", "perfbench");
      perfbench::makeWeights(perfbench::weightsPath(assets));
      return 0;
    }
    RunConfig cfg;
    cfg.workload = argValue(argc, argv, "workload", "");
    cfg.seed = std::stoull(argValue(argc, argv, "seed", "1"));
    cfg.seconds = std::stod(argValue(argc, argv, "seconds", "10"));
    cfg.trace = argValue(argc, argv, "trace", "0") == "1";
    cfg.outDir = argValue(argc, argv, "out", ".bench_build/out");
    cfg.assetDir = argValue(argc, argv, "assets", "perfbench");
    if (cfg.workload != "train" && cfg.workload != "generate") {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                   cfg.workload.c_str());
      return 2;
    }
    if (!(cfg.seconds > 0.0)) {
      std::fprintf(stderr, "perfbench: --seconds must be positive\n");
      return 2;
    }
    cfg.outDir += "/" + cfg.workload + "-" + std::to_string(cfg.seed) +
                  (cfg.trace ? "-traced" : "");
    std::filesystem::remove_all(cfg.outDir);
    std::filesystem::create_directories(cfg.outDir);

    std::printf("# host %s\n", hostFingerprint().dump().c_str());

    Report report;
    if (!cfg.trace) {
      perfbench::Trace off(false);
      runWorkload(cfg, report, off, /*setupReps=*/5);
    } else {
      // Same workload untraced, then traced: the difference of their
      // end-to-end figures is what recording spans costs. Two separate
      // runs also differ by host noise, so the difference is printed
      // for reference only.
      Report untraced;
      perfbench::Trace off(false);
      runWorkload(cfg, untraced, off, /*setupReps=*/1);
      perfbench::Trace on(true);
      runWorkload(cfg, report, on, /*setupReps=*/1);
      printLines(untraced.metrics, "# untraced");
      printLines(report.metrics, "# traced");
      for (const char* name : {"throughput_per_s", "latency_p50_ms"}) {
        const double base = metricOf(untraced, name);
        report.note(std::string("trace.overhead.") + name + "_pct",
                    base != 0.0 ? 100.0 * (metricOf(report, name) - base) /
                                      base
                                : 0.0,
                    "%");
      }
      report.attempted += untraced.attempted;
      report.failed += untraced.failed;
      report.checkFailures.insert(report.checkFailures.end(),
                                  untraced.checkFailures.begin(),
                                  untraced.checkFailures.end());
      perfbench::probeLayers(cfg, report, on);
      const std::string tracePath = cfg.outDir + "/trace.json";
      report.layer("trace.spans", static_cast<double>(on.spanCount()),
                   "count");
      on.write(tracePath);
      std::printf("# trace written to %s (%zu spans)\n", tracePath.c_str(),
                  on.spanCount());
      for (const auto& [name, m] : report.notes)
        if (name == "run.cpu_s")
          report.layer(name, m.value, m.unit);
      // Per-layer mode reports the layer figures, not the workload's.
      report.metrics = report.layers;
    }
    printLines(report.notes, "#");
    for (const std::string& f : report.checkFailures)
      std::printf("# CHECK FAILED: %s\n", f.c_str());

    dp::io::Json metrics = dp::io::Json::object();
    for (const auto& [name, m] : report.metrics) {
      dp::io::Json entry = dp::io::Json::object();
      entry.set("value", std::isfinite(m.value) ? m.value : 0.0);
      entry.set("unit", m.unit);
      metrics.set(name, std::move(entry));
    }
    dp::io::Json result = dp::io::Json::object();
    result.set("correct", report.checkFailures.empty());
    result.set("attempted", report.attempted);
    result.set("failed", report.failed);
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return 0;  // a failed check is reported through "correct"
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
