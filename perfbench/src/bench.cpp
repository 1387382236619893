#include "bench.hpp"

#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>

namespace perfbench {

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double stealSeconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  double fields[8] = {};
  for (double& f : fields)
    if (!(in >> f)) return 0.0;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? fields[7] / static_cast<double>(hz) : 0.0;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double fastestBlockMedian(const std::vector<double>& values,
                          std::size_t block) {
  if (block == 0 || values.size() < block) return median(values);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + block <= values.size(); i += block)
    best = std::min(best, median({values.begin() + i,
                                  values.begin() + i + block}));
  return best;
}

double entropyBits(const std::map<std::pair<int, int>, long>& histogram) {
  double total = 0.0;
  for (const auto& [key, count] : histogram)
    total += static_cast<double>(count);
  double h = 0.0;
  for (const auto& [key, count] : histogram) {
    if (count <= 0) continue;
    const double p = static_cast<double>(count) / total;
    h -= p * std::log2(p);
  }
  return h;
}

void PhaseClock::begin() {
  cpu0_ = processCpuSeconds();
  steal0_ = stealSeconds();
}

void PhaseClock::end() {
  cpu_ += processCpuSeconds() - cpu0_;
  steal_ += stealSeconds() - steal0_;
}

void reportCommon(const CommonFigures& f, const PhaseClock& phases,
                  Report& report) {
  report.metric("peak_rss_mb", peakRssMb(), "MB");
  report.metric("throughput_per_s", f.throughput, "1/s");
  report.metric("aux_throughput_per_s", f.auxThroughput, "1/s");
  report.metric("latency_p50_ms",
                fastestBlockMedian(f.latenciesMs, f.latencyBlock), "ms");
  report.note("latency_p90_ms", quantile(f.latenciesMs, 0.9), "ms");
  report.metric("unique_patterns", f.uniquePatterns, "patterns");
  report.metric("diversity_h", f.diversityBits, "bits");
  report.note("latency_samples", static_cast<double>(f.latenciesMs.size()),
              "count");
  report.note("run.cpu_s", phases.cpuSeconds(), "s");
  report.note("run.steal_s", phases.stealSecondsTotal(), "s");
}

Trace::Token Trace::begin() {
  Token t;
  if (!armed_) return t;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    t.id = nextId_++;
  }
  t.start = Clock::now();
  return t;
}

void Trace::end(const Token& token, const char* name, std::int64_t parent,
                std::int64_t request) {
  if (token.id >= 0)
    push(name, token.id, token.start, Clock::now(), parent, request);
}

std::int64_t Trace::add(const char* name, Clock::time_point start,
                        Clock::time_point stop, std::int64_t parent,
                        std::int64_t request) {
  if (!armed_) return -1;
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = nextId_++;
  }
  push(name, id, start, stop, parent, request);
  return id;
}

void Trace::push(const char* name, std::int64_t id, Clock::time_point start,
                 Clock::time_point stop, std::int64_t parent,
                 std::int64_t request) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, us(start), us(stop) - us(start), id, parent,
                        request, tid});
}

std::size_t Trace::spanCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Trace::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::binary);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    std::ostringstream line;
    line.precision(3);
    line << std::fixed;
    line << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
         << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << s.tid << ",\"ts\":" << s.startUs << ",\"dur\":" << s.durUs
         << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent;
    if (s.request >= 0) line << ",\"request\":" << s.request;
    line << "}}";
    out << line.str();
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
