/// \file kernel_test.cpp
/// Kernel-layer conformance suite (ctest label: kernel). Pins every
/// runtime dispatch target against a naive reference GEMM across
/// shapes, transpose combinations and alpha/beta edge cases, checks
/// the im2col-free direct convolution against the im2col+GEMM route,
/// and locks the determinism contract: per-target results are
/// bit-identical at every DP_THREADS setting.
///
/// Exactness policy: the scalar target must match the reference
/// bit-for-bit (both accumulate each element in ascending-p order with
/// plain mul+add; the baseline ISA cannot contract them into FMA). The
/// AVX2 target contracts with FMA and is compared with a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "tensor/conv_direct.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/im2col.hpp"
#include "testutil.hpp"

namespace dp::nn {
namespace {

/// Deterministic fill in [-1, 1) — plain LCG so the suite needs no
/// seed plumbing and every target sees identical operands.
void lcgFill(std::vector<float>& v, std::uint32_t seed) {
  std::uint32_t s = seed * 2654435761u + 1u;
  for (float& x : v) {
    s = s * 1664525u + 1013904223u;
    x = static_cast<float>(static_cast<std::int32_t>(s >> 8) & 0xffff) /
            32768.0f -
        1.0f;
  }
}

/// Naive reference: same operation sequence per output element as the
/// packed kernels (ascending-p mul+add chain, then beta/alpha applied
/// exactly like the driver: C = beta*C0 + alpha*acc, with beta == 0
/// storing zero regardless of C0).
void refGemm(bool transA, bool transB, int m, int n, int k, float alpha,
             const float* a, int lda, const float* b, int ldb, float beta,
             const float* c0, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float av = transA ? a[static_cast<long>(p) * lda + i]
                                : a[static_cast<long>(i) * lda + p];
        const float bv = transB ? b[static_cast<long>(j) * ldb + p]
                                : b[static_cast<long>(p) * ldb + j];
        acc += av * bv;
      }
      const long idx = static_cast<long>(i) * ldc + j;
      const float base = beta == 0.0f ? 0.0f : beta * c0[idx];
      c[idx] = base + alpha * acc;
    }
  }
}

using dp::test::ScopedKernelTarget;

/// Compares a target's result against the reference under the
/// per-target exactness policy.
void expectMatchesReference(KernelTarget t, const std::vector<float>& got,
                            const std::vector<float>& ref,
                            const char* what) {
  ASSERT_EQ(got.size(), ref.size());
  if (t == KernelTarget::kScalar) {
    if (std::memcmp(got.data(), ref.data(),
                    got.size() * sizeof(float)) == 0)
      return;
    for (std::size_t i = 0; i < got.size(); ++i) {
      std::uint32_t bg, br;
      std::memcpy(&bg, &got[i], sizeof(bg));
      std::memcpy(&br, &ref[i], sizeof(br));
      ASSERT_EQ(bg, br) << what << ": scalar target differs from the "
                        << "reference at flat index " << i << " (" << got[i]
                        << " vs " << ref[i] << ")";
    }
    return;
  }
  // FMA-contracted target: last-ulps drift only. Operands are in
  // [-1, 1) and k <= a few hundred, so 1e-3 absolute is generous
  // while still catching any indexing or accumulation-order bug.
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], ref[i], 1e-3f)
        << what << ": target " << kernelTargetName(t)
        << " out of tolerance at flat index " << i;
}

TEST(KernelDispatchTest, ScalarAlwaysSupportedAndSelectable) {
  const auto targets = supportedKernelTargets();
  ASSERT_FALSE(targets.empty());
  EXPECT_EQ(targets.front(), KernelTarget::kScalar);
  ScopedKernelTarget guard(KernelTarget::kScalar);
  EXPECT_EQ(gemmKernelTarget(), KernelTarget::kScalar);
}

TEST(KernelDispatchTest, UnsupportedTargetThrows) {
  const auto targets = supportedKernelTargets();
  const bool hasAvx2 =
      std::find(targets.begin(), targets.end(), KernelTarget::kAvx2) !=
      targets.end();
  if (hasAvx2) GTEST_SKIP() << "AVX2 available; nothing is unsupported";
  EXPECT_THROW(setGemmKernelTarget(KernelTarget::kAvx2),
               std::invalid_argument);
}

// DP_KERNEL=avx512 on a host or build without AVX-512 must warn on
// stderr, fall back to the best usable tier, and produce results
// identical to selecting that tier directly: the override machinery
// may change speed, never output. `avx512Compiled=false` models the
// non-AVX-512 environment deterministically on any hardware;
// chooseKernelTarget is the pure core behind the startup selection.
TEST(KernelDispatchTest, Avx512OverrideFallsBackWithWarning) {
  ASSERT_EQ(::setenv("DP_KERNEL", "avx512", 1), 0);
  ::testing::internal::CaptureStderr();
  const bool avx2Usable =
      detail::avx2KernelCompiled() && cpuSupports(KernelTarget::kAvx2);
  const KernelTarget picked =
      chooseKernelTarget(detail::avx2KernelCompiled(),
                         /*avx512Compiled=*/false);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  ::unsetenv("DP_KERNEL");

  EXPECT_NE(picked, KernelTarget::kAvx512);
  const KernelTarget expected =
      avx2Usable ? KernelTarget::kAvx2 : KernelTarget::kScalar;
  EXPECT_EQ(picked, expected);
  EXPECT_NE(warning.find("DP_KERNEL=avx512"), std::string::npos)
      << "fallback must be announced on stderr, got: \"" << warning
      << '"';
  EXPECT_NE(warning.find("no AVX-512 kernel"), std::string::npos)
      << "warning must say why, got: \"" << warning << '"';

  // Same results: a GEMM under the fallback matches the same GEMM
  // with that tier chosen explicitly, bit for bit (same kernel runs).
  const int m = 33, n = 29, k = 47;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  lcgFill(a, 7u);
  lcgFill(b, 11u);
  std::vector<float> viaOverride(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> direct(viaOverride);
  {
    ScopedKernelTarget guard(picked);
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         viaOverride.data(), n);
  }
  {
    ScopedKernelTarget guard(expected);
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         direct.data(), n);
  }
  EXPECT_EQ(std::memcmp(viaOverride.data(), direct.data(),
                        viaOverride.size() * sizeof(float)),
            0);
}

TEST(KernelGemmTest, AllTargetsShapesAndTransposes) {
  const int sizes[] = {1, 3, 17, 64, 129};
  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    for (const int m : sizes) {
      for (const int n : sizes) {
        for (const int k : sizes) {
          for (int combo = 0; combo < 4; ++combo) {
            const bool ta = combo & 1;
            const bool tb = combo & 2;
            const int lda = ta ? m : k;
            const int ldb = tb ? k : n;
            std::vector<float> a(static_cast<std::size_t>(m) * k);
            std::vector<float> b(static_cast<std::size_t>(k) * n);
            std::vector<float> c(static_cast<std::size_t>(m) * n, 777.0f);
            std::vector<float> ref(c.size());
            lcgFill(a, static_cast<std::uint32_t>(m * 131 + k));
            lcgFill(b, static_cast<std::uint32_t>(n * 17 + k + 7));
            gemm(ta, tb, m, n, k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f,
                 c.data(), n);
            refGemm(ta, tb, m, n, k, 1.0f, a.data(), lda, b.data(), ldb,
                    0.0f, nullptr, ref.data(), n);
            SCOPED_TRACE(::testing::Message()
                         << "m=" << m << " n=" << n << " k=" << k
                         << " transA=" << ta << " transB=" << tb);
            expectMatchesReference(t, c, ref, "gemm");
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(KernelGemmTest, AlphaBetaEdgeCases) {
  const int m = 17, n = 33, k = 129;  // covers edge tiles in both dims
  const struct {
    float alpha, beta;
  } cases[] = {{1.0f, 0.0f}, {0.5f, 0.3f}, {0.0f, 0.7f},
               {1.0f, 1.0f}, {2.0f, -1.0f}};
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c0(static_cast<std::size_t>(m) * n);
  lcgFill(a, 11);
  lcgFill(b, 23);
  lcgFill(c0, 37);
  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    for (const auto& cs : cases) {
      std::vector<float> c = c0;
      std::vector<float> ref(c.size());
      gemm(false, false, m, n, k, cs.alpha, a.data(), k, b.data(), n,
           cs.beta, c.data(), n);
      refGemm(false, false, m, n, k, cs.alpha, a.data(), k, b.data(), n,
              cs.beta, c0.data(), ref.data(), n);
      SCOPED_TRACE(::testing::Message() << "alpha=" << cs.alpha
                                        << " beta=" << cs.beta
                                        << " target=" << kernelTargetName(t));
      expectMatchesReference(t, c, ref, "gemm alpha/beta");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Regression: beta == 0 must store zero, not multiply — a C buffer
// holding NaN/Inf (e.g. uninitialized scratch) must be fully
// overwritten with finite values (BLAS semantics).
TEST(KernelGemmTest, BetaZeroOverwritesNanAndInf) {
  const int m = 13, n = 29, k = 17;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  lcgFill(a, 5);
  lcgFill(b, 9);
  const float poison[] = {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()};
  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = poison[i % 3];
    std::vector<float> ref(c.size());
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n);
    refGemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
            nullptr, ref.data(), n);
    for (const float v : c) ASSERT_TRUE(std::isfinite(v));
    expectMatchesReference(t, c, ref, "gemm beta=0 poison");

    // alpha == 0 && beta == 0: exact zeros even from poison.
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = poison[i % 3];
    gemm(false, false, m, n, k, 0.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n);
    for (const float v : c) ASSERT_EQ(v, 0.0f);
  }
}

// The determinism contract: for a fixed target, results are
// bit-identical at every DP_THREADS setting (chunking is a function of
// shape alone and each element's accumulation order is fixed).
TEST(KernelGemmTest, BitIdenticalAcrossThreadCounts) {
  const int m = 129, n = 65, k = 300;  // k > one K-block (256)
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  lcgFill(a, 41);
  lcgFill(b, 43);
  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    std::vector<std::vector<float>> results;
    for (const int threads : {1, 2, 4}) {
      test::ScopedDpThreads scoped(threads);
      std::vector<float> c(static_cast<std::size_t>(m) * n, -3.0f);
      gemm(false, true, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.5f,
           c.data(), n);
      results.push_back(std::move(c));
    }
    for (std::size_t r = 1; r < results.size(); ++r)
      ASSERT_EQ(0, std::memcmp(results[0].data(), results[r].data(),
                               results[0].size() * sizeof(float)))
          << "target " << kernelTargetName(t)
          << " not bit-identical across DP_THREADS";
  }
}

// The direct path must agree with the im2col+GEMM route it replaces:
// bit-exactly on the scalar target (identical per-element operation
// sequences), within FMA tolerance on AVX2.
TEST(KernelConvTest, DirectMatchesIm2colRoute) {
  const struct {
    ConvGeom g;
    int outC;
  } cases[] = {
      {{1, 24, 24, 3, 2, 1}, 8},   // TCAE encoder conv1
      {{1, 24, 24, 3, 1, 1}, 4},   // stride 1
      {{1, 11, 7, 3, 2, 1}, 3},    // non-square, odd sizes
      {{1, 8, 8, 1, 1, 0}, 2},     // 1x1 kernel, no padding
      {{1, 9, 9, 5, 2, 2}, 3},     // larger kernel, pad 2
      {{1, 6, 6, 3, 3, 1}, 2},     // stride 3
  };
  for (const auto& cs : cases) {
    ASSERT_TRUE(convDirectApplicable(cs.g));
    const int rows = cs.g.colRows();
    const int cols = cs.g.colCols();
    std::vector<float> image(
        static_cast<std::size_t>(cs.g.height) * cs.g.width);
    std::vector<float> weights(static_cast<std::size_t>(cs.outC) * rows);
    std::vector<float> bias(static_cast<std::size_t>(cs.outC));
    lcgFill(image, static_cast<std::uint32_t>(cs.g.height * 7 + cs.outC));
    lcgFill(weights, static_cast<std::uint32_t>(cs.g.kernel * 13 + 1));
    lcgFill(bias, 3);
    std::vector<float> colbuf(static_cast<std::size_t>(rows) * cols);
    im2col(cs.g, image.data(), colbuf.data());
    for (const KernelTarget t : supportedKernelTargets()) {
      ScopedKernelTarget guard(t);
      // Reference route: gemm over the column matrix, then the same
      // single bias add per element the direct path performs.
      std::vector<float> ref(static_cast<std::size_t>(cs.outC) * cols);
      gemm(false, false, cs.outC, cols, rows, 1.0f, weights.data(), rows,
           colbuf.data(), cols, 0.0f, ref.data(), cols);
      for (int oc = 0; oc < cs.outC; ++oc)
        for (int i = 0; i < cols; ++i)
          ref[static_cast<std::size_t>(oc) * cols + i] += bias[oc];
      std::vector<float> got(ref.size(), 99.0f);
      convDirect(cs.g, cs.outC, weights.data(), bias.data(), image.data(),
                 got.data());
      SCOPED_TRACE(::testing::Message()
                   << "H=" << cs.g.height << " W=" << cs.g.width
                   << " K=" << cs.g.kernel << " s=" << cs.g.stride
                   << " pad=" << cs.g.pad << " outC=" << cs.outC);
      expectMatchesReference(t, got, ref, "convDirect");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(KernelConvTest, MultiChannelNotApplicable) {
  ConvGeom g{8, 12, 12, 3, 2, 1};
  EXPECT_FALSE(convDirectApplicable(g));
}

}  // namespace
}  // namespace dp::nn
