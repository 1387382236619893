#pragma once

/// \file testutil.hpp
/// Shared helpers for the test suite: literal topology construction,
/// random clip generation, numeric gradient checking for layers,
/// thread-count and kernel-target scoping and bit-exact tensor
/// comparison.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <system_error>
#include <vector>

#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geometry/clip.hpp"
#include "nn/layer.hpp"
#include "squish/topology.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace dp::test {

/// RAII guard that pins both the DP_THREADS environment variable and
/// the global thread pool to `threads` for the guard's lifetime, then
/// restores the previous environment and re-derives the pool size from
/// it. Lets a test exercise specific pool sizes without leaking the
/// setting into later tests.
class ScopedDpThreads {
 public:
  // getenv/setenv are concurrency-mt-unsafe, but gtest runs tests in a
  // single thread and nothing else mutates the environment.
  explicit ScopedDpThreads(int threads) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* old = std::getenv("DP_THREADS")) {
      hadOld_ = true;
      old_ = old;
    }
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    ::setenv("DP_THREADS", std::to_string(threads).c_str(), 1);
    ThreadPool::setGlobalThreads(threads);
  }
  ~ScopedDpThreads() {
    if (hadOld_) {
      // NOLINTNEXTLINE(concurrency-mt-unsafe)
      ::setenv("DP_THREADS", old_.c_str(), 1);
    } else {
      // NOLINTNEXTLINE(concurrency-mt-unsafe)
      ::unsetenv("DP_THREADS");
    }
    ThreadPool::setGlobalThreads(ThreadPool::defaultThreads());
  }
  ScopedDpThreads(const ScopedDpThreads&) = delete;
  ScopedDpThreads& operator=(const ScopedDpThreads&) = delete;

 private:
  bool hadOld_ = false;
  std::string old_;
};

/// RAII guard that pins the GEMM / fused-decode dispatch target for the
/// guard's lifetime and restores the previous one afterwards.
class ScopedKernelTarget {
 public:
  explicit ScopedKernelTarget(KernelTarget t)
      : saved_(nn::gemmKernelTarget()) {
    nn::setGemmKernelTarget(t);
  }
  ~ScopedKernelTarget() { nn::setGemmKernelTarget(saved_); }
  ScopedKernelTarget(const ScopedKernelTarget&) = delete;
  ScopedKernelTarget& operator=(const ScopedKernelTarget&) = delete;

 private:
  KernelTarget saved_;
};

/// RAII scratch directory under the system temp root. The constructor
/// removes any stale directory a crashed earlier run left behind and
/// creates it fresh; the destructor removes it recursively
/// (best-effort, so a failing test's cleanup never masks the failure).
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() / tag).string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Joins `name` onto the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// Bit-exact tensor comparison: same shape and every float identical at
/// the bit level (so +0.0 vs -0.0 or differently-rounded results fail,
/// unlike operator==). On mismatch, reports the first differing flat
/// index with both values and bit patterns.
inline ::testing::AssertionResult tensorsBitEqual(const nn::Tensor& a,
                                                  const nn::Tensor& b) {
  if (a.shape() != b.shape())
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.shapeString() << " vs "
           << b.shapeString();
  if (std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0)
    return ::testing::AssertionSuccess();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    std::uint32_t ba, bb;
    std::memcpy(&ba, &a.data()[i], sizeof(ba));
    std::memcpy(&bb, &b.data()[i], sizeof(bb));
    if (ba != bb)
      return ::testing::AssertionFailure()
             << "first mismatch at flat index " << i << ": " << a[i]
             << " (0x" << std::hex << ba << ") vs " << b[i] << " (0x"
             << bb << ")";
  }
  return ::testing::AssertionFailure() << "memcmp mismatch";  // unreachable
}

/// EXPECT-style wrapper around tensorsBitEqual.
inline void expectTensorsBitEqual(const nn::Tensor& a,
                                  const nn::Tensor& b) {
  EXPECT_TRUE(tensorsBitEqual(a, b));
}

/// `count` distinct indices drawn uniformly from [0, total) by partial
/// Fisher–Yates — sampling *without* replacement, so a gradient check
/// never verifies the same coordinate twice while silently skipping
/// others.
inline std::vector<std::size_t> sampleDistinct(std::size_t total,
                                               std::size_t count,
                                               dp::Rng& rng) {
  std::vector<std::size_t> idx(total);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t k = 0; k < count && k + 1 < total; ++k) {
    const auto j =
        k + static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(total - 1 - k)));
    std::swap(idx[k], idx[j]);
  }
  idx.resize(count);
  return idx;
}

/// Builds a topology from rows written top-first, e.g.
/// topo({"##.", "..#"}) — '#' = shape, anything else = space.
/// (Row 0 of the result is the BOTTOM row, matching the library
/// convention, so the last string becomes row 0.)
inline squish::Topology topo(const std::vector<std::string>& rowsTopFirst) {
  const int rows = static_cast<int>(rowsTopFirst.size());
  const int cols = rows > 0 ? static_cast<int>(rowsTopFirst[0].size()) : 0;
  squish::Topology t(rows, cols);
  for (int r = 0; r < rows; ++r) {
    const std::string& line = rowsTopFirst[static_cast<std::size_t>(rows - 1 - r)];
    for (int c = 0; c < cols; ++c)
      t.set(r, c, line[static_cast<std::size_t>(c)] == '#' ? 1 : 0);
  }
  return t;
}

/// A random rectilinear clip (shapes may overlap; not DRC-clean) for
/// squish round-trip property tests.
inline dp::Clip randomClip(dp::Rng& rng, int maxShapes = 6,
                           double window = 100.0) {
  dp::Clip clip(dp::Rect{0.0, 0.0, window, window});
  const int n = rng.uniformInt(0, maxShapes);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.uniform(0.0, window - 1.0);
    const double y0 = rng.uniform(0.0, window - 1.0);
    const double x1 = x0 + rng.uniform(1.0, window - x0);
    const double y1 = y0 + rng.uniform(1.0, window - y0);
    clip.addShape(dp::Rect{x0, y0, x1, y1});
  }
  return clip;
}

/// Central-difference gradient check for one layer: perturbs inputs and
/// parameters and compares numeric dL/dx against backward()'s output,
/// with L = sum(weights .* forward(x)) for a fixed random weighting.
/// Returns the maximum absolute deviation observed.
inline double gradCheck(nn::Layer& layer, const nn::Tensor& x,
                        dp::Rng& rng, double eps = 1e-2) {
  // Fixed upstream weighting makes L scalar and the upstream gradient
  // constant (independent of the forward pass).
  nn::Tensor y0 = layer.forward(x, /*training=*/true);
  const nn::Tensor weights = nn::Tensor::randn(y0.shape(), rng);
  auto lossOf = [&](const nn::Tensor& input) {
    nn::Tensor y = layer.forward(input, /*training=*/true);
    double l = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) l += weights[i] * y[i];
    return l;
  };

  // Analytic gradients.
  for (nn::Param* p : layer.params()) p->grad.zero();
  (void)layer.forward(x, /*training=*/true);
  const nn::Tensor dx = layer.backward(weights);

  double worst = 0.0;
  // Input gradient at a sample of distinct coordinates.
  const std::size_t checkN = std::min<std::size_t>(x.numel(), 24);
  const auto xIdx = sampleDistinct(x.numel(), checkN, rng);
  for (std::size_t k = 0; k < checkN; ++k) {
    const std::size_t i = xIdx[k];
    nn::Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(eps);
    xm[i] -= static_cast<float>(eps);
    const double num = (lossOf(xp) - lossOf(xm)) / (2.0 * eps);
    worst = std::max(worst, std::abs(num - dx[i]));
  }

  // Parameter gradients at a sample of coordinates. Re-run the
  // analytic pass so caches match the unperturbed input.
  for (nn::Param* p : layer.params()) p->grad.zero();
  (void)layer.forward(x, /*training=*/true);
  (void)layer.backward(weights);
  for (nn::Param* p : layer.params()) {
    const std::size_t pn = std::min<std::size_t>(p->value.numel(), 16);
    const auto pIdx = sampleDistinct(p->value.numel(), pn, rng);
    for (std::size_t k = 0; k < pn; ++k) {
      const std::size_t i = pIdx[k];
      const float saved = p->value[i];
      p->value[i] = saved + static_cast<float>(eps);
      const double lp = lossOf(x);
      p->value[i] = saved - static_cast<float>(eps);
      const double lm = lossOf(x);
      p->value[i] = saved;
      const double num = (lp - lm) / (2.0 * eps);
      worst = std::max(worst, std::abs(num - p->grad[i]));
    }
  }
  return worst;
}

}  // namespace dp::test
