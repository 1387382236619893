#pragma once

/// \file bench.hpp
/// Shared pieces of the perfbench binary: wall/CPU/steal clocks, order
/// statistics, the run report (metrics + operation counts + check
/// failures) and a Chrome trace-event span recorder.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU seconds (user + system, all threads).
[[nodiscard]] double processCpuSeconds();
/// Machine-wide steal seconds from /proc/stat (0 where unavailable):
/// time the hypervisor ran someone else while this host wanted a CPU.
[[nodiscard]] double stealSeconds();
/// Peak resident set size of this process in MB.
[[nodiscard]] double peakRssMb();

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The smallest median over consecutive blocks of `block` values (the
/// median of all values when no block is whole). Machine steal only
/// adds time, so the fastest block is the figure it moves least.
[[nodiscard]] double fastestBlockMedian(const std::vector<double>& values,
                                        std::size_t block);

/// Shannon entropy in bits of the joint (cx, cy) histogram — the
/// paper's diversity H (Definition 2), written out here so checks do
/// not share code with the path under test.
[[nodiscard]] double entropyBits(
    const std::map<std::pair<int, int>, long>& histogram);

/// CPU and steal seconds accumulated over the timed phases of a run.
class PhaseClock {
 public:
  void begin();
  void end();
  [[nodiscard]] double cpuSeconds() const { return cpu_; }
  [[nodiscard]] double stealSecondsTotal() const { return steal_; }

 private:
  double cpu0_ = 0.0, steal0_ = 0.0, cpu_ = 0.0, steal_ = 0.0;
};

/// Everything one run reports: end-to-end metrics, per-layer metrics
/// (traced runs), notes that are printed only, operation counts and
/// failed checks.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  using Metrics = std::vector<std::pair<std::string, Metric>>;
  Metrics metrics;  ///< end-to-end (BENCHMARK.json "end_to_end")
  Metrics layers;   ///< per-layer (BENCHMARK.json "per_layer")
  Metrics notes;    ///< workload-specific figures, printed only
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> checkFailures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.emplace_back(name, Metric{value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.emplace_back(name, Metric{value, unit});
  }
  /// Records a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) checkFailures.push_back(what);
  }
};

/// Chrome trace-event recorder ("X" complete events), kept in memory
/// and written once at the end of the run. Disarmed, begin() returns
/// an inert token and end() does nothing.
class Trace {
 public:
  struct Token {
    std::int64_t id = -1;
    Clock::time_point start;
  };

  explicit Trace(bool armed) : armed_(armed), origin_(Clock::now()) {}

  [[nodiscard]] bool armed() const { return armed_; }
  /// Opens a span and reserves its id.
  [[nodiscard]] Token begin();
  /// Closes a span opened by begin(). `parent` is the id of the
  /// enclosing span (-1 for a root); `request` groups the spans of one
  /// request (-1: none).
  void end(const Token& token, const char* name, std::int64_t parent = -1,
           std::int64_t request = -1);
  /// Records a span whose interval was measured elsewhere; returns its
  /// id (-1 when disarmed).
  std::int64_t add(const char* name, Clock::time_point start,
                   Clock::time_point stop, std::int64_t parent = -1,
                   std::int64_t request = -1);
  [[nodiscard]] std::size_t spanCount() const;
  /// Writes {"traceEvents": [...]} to `path`.
  void write(const std::string& path) const;

 private:
  void push(const char* name, std::int64_t id, Clock::time_point start,
            Clock::time_point stop, std::int64_t parent,
            std::int64_t request);

  struct Span {
    const char* name;
    double startUs;
    double durUs;
    std::int64_t id, parent, request;
    std::uint64_t tid;
  };
  bool armed_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::int64_t nextId_ = 0;
};

/// RAII span over a scope.
class Span {
 public:
  Span(Trace& trace, const char* name, std::int64_t parent = -1,
       std::int64_t request = -1)
      : trace_(trace), name_(name), parent_(parent), request_(request),
        token_(trace.begin()) {}
  ~Span() { trace_.end(token_, name_, parent_, request_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::int64_t id() const { return token_.id; }

 private:
  Trace& trace_;
  const char* name_;
  std::int64_t parent_, request_;
  Trace::Token token_;
};

/// Settings of one run, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir;   ///< scratch space inside the checkout
  std::string assetDir; ///< perfbench/ (fixed weights)
};

}  // namespace perfbench
