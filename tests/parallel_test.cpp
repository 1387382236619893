// Determinism and regression tests for the thread-pool execution
// substrate. The contract under test: every parallelized computation in
// the project is bit-identical at any DP_THREADS setting — chunk
// boundaries depend only on (n, grain), per-element accumulation orders
// are fixed, and per-task Rng streams are derived from the task index,
// never from scheduling.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/fp_env.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "core/flows.hpp"
#include "core/pipeline.hpp"
#include "core/sensitivity.hpp"
#include "datagen/generator.hpp"
#include "drc/geometry_rules.hpp"
#include "drc/topology_rules.hpp"
#include "lp/geometry_solver.hpp"
#include "models/tcae.hpp"
#include "models/topology_codec.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/optimizer.hpp"
#include "squish/hash.hpp"
#include "tensor/gemm.hpp"
#include "testutil.hpp"

namespace {

using dp::ThreadPool;
using dp::nn::Tensor;
using dp::test::ScopedDpThreads;
using dp::test::tensorsBitEqual;

// ------------------------------------------------------- ThreadPool unit

TEST(ThreadPool, StartupAndShutdown) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    std::atomic<long> sum{0};
    pool.parallelFor(100, 3, [&](long b, long e) { sum += e - b; });
    EXPECT_EQ(sum.load(), 100);
  }
  // Destroying an idle pool must not hang (checked implicitly by scope
  // exit); a zero-thread request clamps to one.
  ThreadPool clamped(0);
  EXPECT_EQ(clamped.threads(), 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    const long n = 1000;
    std::vector<std::atomic<int>> visits(n);
    for (auto& v : visits) v = 0;
    pool.parallelFor(n, 7, [&](long b, long e) {
      for (long i = b; i < e; ++i) ++visits[static_cast<std::size_t>(i)];
    });
    for (long i = 0; i < n; ++i)
      ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " at " << threads << " threads";
  }
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount) {
  auto chunksAt = [](int threads) {
    ThreadPool pool(threads);
    dp::Mutex m;
    std::set<std::pair<long, long>> chunks;
    pool.parallelFor(103, 10, [&](long b, long e) {
      const dp::LockGuard lock(m);
      chunks.emplace(b, e);
    });
    return chunks;
  };
  const auto serial = chunksAt(1);
  EXPECT_EQ(serial.size(), 11u);  // ceil(103 / 10)
  EXPECT_EQ(serial, chunksAt(2));
  EXPECT_EQ(serial, chunksAt(4));
}

TEST(ThreadPool, PropagatesExceptionsAndSurvivesThem) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(64, 1,
                       [&](long b, long) {
                         if (b == 17)
                           throw std::runtime_error("chunk failure");
                       }),
      std::runtime_error);
  // The pool must remain usable after a failed batch.
  std::atomic<long> sum{0};
  pool.parallelFor(50, 5, [&](long b, long e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 50);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<long> inner{0};
  pool.parallelFor(8, 1, [&](long, long) {
    // A nested parallelFor from inside a worker must run inline rather
    // than wait on pool capacity it may itself be occupying.
    pool.parallelFor(10, 1, [&](long b, long e) { inner += e - b; });
  });
  EXPECT_EQ(inner.load(), 80);
}

TEST(ThreadPool, DefaultThreadsReadsEnvironment) {
  const ScopedDpThreads guard(3);
  EXPECT_EQ(ThreadPool::defaultThreads(), 3);
  EXPECT_EQ(ThreadPool::global().threads(), 3);
}

TEST(SplitMix, TaskSeedsAreDistinctAndStable) {
  // Stable: pure function of (seed, index).
  EXPECT_EQ(dp::taskSeed(42, 7), dp::taskSeed(42, 7));
  // Distinct across a contiguous index range (the generation use case).
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i)
    seen.insert(dp::taskSeed(0x5eed, i));
  EXPECT_EQ(seen.size(), 10000u);
  // Index 0 must not collapse onto the base seed.
  EXPECT_NE(dp::taskSeed(0x5eed, 0), 0x5eedu);
}

// --------------------------------------------------------- denormal flush
//
// Every parallelFor chunk and every pool lane computes with denormals
// flushed (FTZ|DAZ), the inline paths included, and the caller's own
// mode comes back when parallelFor returns or throws.

/// Pins the calling thread's flush mode for a test, then restores it.
class ScopedFlushMode {
 public:
  explicit ScopedFlushMode(bool on) : saved_(dp::denormalsFlushed()) {
    dp::setDenormalsFlushed(on);
  }
  ~ScopedFlushMode() { dp::setDenormalsFlushed(saved_); }
  ScopedFlushMode(const ScopedFlushMode&) = delete;
  ScopedFlushMode& operator=(const ScopedFlushMode&) = delete;

 private:
  bool saved_;
};

bool flushSupported() {
  const dp::ScopedFlushDenormals flush;
  return dp::denormalsFlushed();
}

/// True when this thread's arithmetic flushes: a product below the
/// normal range comes out as zero (FTZ) and a subnormal operand reads
/// as zero (DAZ).
bool arithmeticFlushes() {
  volatile float small = 1e-20f;
  volatile float subnormal = 1e-40f;
  const float product = small * small;
  const float scaled = subnormal * 1e10f;
  return product == 0.0f && scaled == 0.0f;
}

TEST(DenormalFlush, EveryChunkOnEveryLaneFlushes) {
  if (!flushSupported()) GTEST_SKIP() << "no denormal flush on this ISA";
  const ScopedFlushMode callerOff(false);
  ASSERT_FALSE(arithmeticFlushes());
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<long> chunks{0}, flushed{0};
    const auto record = [&] {
      ++chunks;
      if (dp::denormalsFlushed() && arithmeticFlushes()) ++flushed;
    };
    // Many chunks (spread over the lanes), one chunk (the inline
    // shortcut), and nested calls from inside a chunk.
    pool.parallelFor(256, 1, [&](long, long) { record(); });
    pool.parallelFor(5, 10, [&](long, long) { record(); });
    pool.parallelFor(8, 1, [&](long, long) {
      pool.parallelFor(4, 1, [&](long, long) { record(); });
      record();  // the nested call left the outer chunk flushed
    });
    EXPECT_EQ(chunks.load(), 256 + 1 + 8 * 4 + 8);
    EXPECT_EQ(flushed.load(), chunks.load()) << threads << " lanes";
    EXPECT_FALSE(dp::denormalsFlushed());
  }
  // The global pool at DP_THREADS=1 runs every chunk inline.
  const ScopedDpThreads serial(1);
  std::atomic<long> unflushed{0};
  dp::parallelFor(64, 4, [&](long, long) {
    if (!dp::denormalsFlushed() || !arithmeticFlushes()) ++unflushed;
  });
  EXPECT_EQ(unflushed.load(), 0);
}

TEST(DenormalFlush, CallerModeRestoredOnReturnAndThrow) {
  if (!flushSupported()) GTEST_SKIP() << "no denormal flush on this ISA";
  for (const bool callerMode : {false, true}) {
    const ScopedFlushMode caller(callerMode);
    for (const int threads : {1, 4}) {
      ThreadPool pool(threads);
      for (const long grain : {1L, 100L}) {  // pooled and single-chunk
        pool.parallelFor(64, grain, [](long, long) {});
        EXPECT_EQ(dp::denormalsFlushed(), callerMode)
            << "after return, " << threads << " lanes, grain " << grain;
        EXPECT_THROW(pool.parallelFor(64, grain,
                                      [](long b, long) {
                                        if (b == 0)
                                          throw std::runtime_error("boom");
                                      }),
                     std::runtime_error);
        EXPECT_EQ(dp::denormalsFlushed(), callerMode)
            << "after throw, " << threads << " lanes, grain " << grain;
      }
    }
  }
}

// Subnormal operands read as zero on every target and lane count: with
// small-integer values elsewhere every product and sum is exact, so the
// result is the integer sum without the subnormal terms, bit for bit.
// Unflushed, a subnormal times 2^120 would add ~2^-7 to some entries,
// and 2^-70 * 2^-70 would leave subnormal 2^-140 in the zero entries.
TEST(DenormalFlush, GemmWithSubnormalInputsExactAcrossThreadsAndTargets) {
  if (!flushSupported()) GTEST_SKIP() << "no denormal flush on this ISA";
  const int m = 23, n = 37, k = 48;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<double> want(static_cast<std::size_t>(m) * n, 0.0);
  // Inner index p % 3 picks the kind of term: 0 small integers, 1 a
  // subnormal in A times 2^120 in B, 2 the pair 2^-70 * 2^-70.
  dp::Rng rng(5);
  const auto term = [&rng](int p, bool inA) {
    switch (p % 3) {
      case 0:
        return static_cast<float>(rng.uniformInt(-2, 2));
      case 1:
        return inA ? std::ldexp(static_cast<float>(rng.uniformInt(1, 7)),
                                -140)
                   : std::ldexp(1.0f, 120);
      default:
        return std::ldexp(1.0f, -70);
    }
  };
  for (int p = 0; p < k; ++p) {
    for (int i = 0; i < m; ++i)
      a[static_cast<std::size_t>(i) * k + p] = term(p, true);
    for (int j = 0; j < n; ++j)
      b[static_cast<std::size_t>(p) * n + j] = term(p, false);
  }
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      for (int p = 0; p < k; p += 3)
        want[static_cast<std::size_t>(i) * n + j] +=
            double{a[static_cast<std::size_t>(i) * k + p]} *
            b[static_cast<std::size_t>(p) * n + j];
  for (const dp::KernelTarget t : dp::nn::supportedKernelTargets()) {
    const dp::test::ScopedKernelTarget target(t);
    for (const int threads : {1, 2, 8}) {
      const ScopedDpThreads scoped(threads);
      std::vector<float> c(want.size(), 7.0f);
      dp::nn::gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                   0.0f, c.data(), n);
      for (std::size_t e = 0; e < c.size(); ++e)
        ASSERT_EQ(c[e], static_cast<float>(want[e]))
            << "target " << dp::kernelTargetName(t) << ", " << threads
            << " lanes, element " << e;
    }
  }
}

// A sigmoid saturated low (z about -84) on cells whose target is 1 is
// where training's subnormals come from: its backward multiplies the
// normal loss gradient -2/n by an output near 1e-37. Unflushed, that
// leaves subnormals in every parameter's gradient; flushed, none
// reaches a gradient or an Adam moment.
TEST(DenormalFlush, SaturatedTrainStepLeavesNoSubnormals) {
  if (!flushSupported()) GTEST_SKIP() << "no denormal flush on this ISA";
  dp::Rng rng(3);
  dp::models::TcaeConfig cfg;
  cfg.inputSize = 8;
  cfg.latentDim = 4;
  cfg.conv1Channels = 2;
  cfg.conv2Channels = 3;
  cfg.hidden = 8;
  cfg.batchSize = 4;
  dp::models::Tcae model(cfg, rng);
  dp::nn::Param& outBias = *model.params().back();
  ASSERT_EQ(outBias.value.numel(), 1u);
  outBias.value[0] = -84.0f;
  const float n = static_cast<float>(cfg.batchSize * 8 * 8);
  ASSERT_EQ(std::fpclassify(dp::nn::sigmoid(-84.0f) * (2.0f / n)),
            FP_SUBNORMAL);

  Tensor batch({cfg.batchSize, 1, 8, 8});
  for (std::size_t i = 0; i < batch.numel(); ++i)
    batch[i] = rng.bernoulli(0.4) ? 1.0f : 0.0f;
  dp::nn::Adam opt(model.params(), 1e-3);
  for (const int threads : {1, 2}) {
    const ScopedDpThreads scoped(threads);
    (void)model.trainStep(batch, opt);
    const auto subnormals = [](const Tensor& t) {
      long count = 0;
      for (std::size_t i = 0; i < t.numel(); ++i)
        if (std::fpclassify(t[i]) == FP_SUBNORMAL) ++count;
      return count;
    };
    const auto params = model.params();
    for (std::size_t i = 0; i < params.size(); ++i)
      EXPECT_EQ(subnormals(params[i]->grad), 0)
          << "gradient of param " << i << ", " << threads << " lanes";
    for (const Tensor* moment : opt.state())
      EXPECT_EQ(subnormals(*moment), 0) << threads << " lanes";
  }
}

// ------------------------------------------------- bit-exact equivalence

/// Runs `fn` under `threads` pool threads and returns its result.
template <typename Fn>
auto withThreads(int threads, Fn&& fn) {
  const ScopedDpThreads guard(threads);
  return fn();
}

TEST(BitExact, GemmMatchesSerialAtFourThreads) {
  dp::Rng rng(21);
  const int m = 67, n = 45, k = 123;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  auto run = [&] {
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.5f);
    dp::nn::gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                 0.25f, c.data(), n);
    return c;
  };
  const auto serial = withThreads(1, run);
  EXPECT_EQ(serial, withThreads(2, run));
  EXPECT_EQ(serial, withThreads(4, run));
}

TEST(BitExact, Conv2dForwardBackwardMatchesSerial) {
  auto run = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(31);
    dp::nn::Conv2d conv(3, 5, 3, 2, 1, rng);
    const Tensor x = Tensor::randn({6, 3, 12, 12}, rng);
    const Tensor y = conv.forward(x, /*training=*/true);
    const Tensor dy = Tensor::randn(y.shape(), rng);
    const Tensor dx = conv.backward(dy);
    std::vector<Tensor> grads;
    for (dp::nn::Param* p : conv.params()) grads.push_back(p->grad);
    return std::make_tuple(y, dx, grads);
  };
  const auto [y1, dx1, g1] = run(1);
  const auto [y4, dx4, g4] = run(4);
  EXPECT_TRUE(tensorsBitEqual(y1, y4));
  EXPECT_TRUE(tensorsBitEqual(dx1, dx4));
  ASSERT_EQ(g1.size(), g4.size());
  for (std::size_t i = 0; i < g1.size(); ++i)
    EXPECT_TRUE(tensorsBitEqual(g1[i], g4[i])) << "param " << i;
}

TEST(BitExact, ConvTranspose2dForwardBackwardMatchesSerial) {
  auto run = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(32);
    dp::nn::ConvTranspose2d deconv(5, 3, 4, 2, 1, rng);
    const Tensor x = Tensor::randn({6, 5, 6, 6}, rng);
    const Tensor y = deconv.forward(x, /*training=*/true);
    const Tensor dy = Tensor::randn(y.shape(), rng);
    const Tensor dx = deconv.backward(dy);
    std::vector<Tensor> grads;
    for (dp::nn::Param* p : deconv.params()) grads.push_back(p->grad);
    return std::make_tuple(y, dx, grads);
  };
  const auto [y1, dx1, g1] = run(1);
  const auto [y4, dx4, g4] = run(4);
  EXPECT_TRUE(tensorsBitEqual(y1, y4));
  EXPECT_TRUE(tensorsBitEqual(dx1, dx4));
  ASSERT_EQ(g1.size(), g4.size());
  for (std::size_t i = 0; i < g1.size(); ++i)
    EXPECT_TRUE(tensorsBitEqual(g1[i], g4[i])) << "param " << i;
}

TEST(BitExact, InferMatchesForwardEval) {
  // The stateless infer() path must reproduce forward(training=false)
  // exactly — it is what makes shared models thread-safe.
  dp::Rng rng(33);
  dp::models::TcaeConfig cfg;
  cfg.inputSize = 12;
  cfg.latentDim = 6;
  cfg.conv1Channels = 3;
  cfg.conv2Channels = 4;
  cfg.hidden = 16;
  dp::models::Tcae tcae(cfg, rng);
  const Tensor x = Tensor::randn({4, 1, 12, 12}, rng);
  const Tensor latent = tcae.encode(x);
  EXPECT_EQ(latent.shape(), (std::vector<int>{4, 6}));
  const Tensor recon = tcae.decode(latent);
  EXPECT_EQ(recon.shape(), x.shape());
  // Same call twice on a shared const model: identical output.
  EXPECT_TRUE(tensorsBitEqual(recon, tcae.decode(latent)));
}

std::vector<dp::squish::Topology> randomTopologies(int count, int rows,
                                                   int cols, dp::Rng& rng) {
  std::vector<dp::squish::Topology> out;
  for (int i = 0; i < count; ++i) {
    dp::squish::Topology t(rows, cols);
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c)
        t.set(r, c, rng.bernoulli(0.4) ? 1 : 0);
    out.push_back(std::move(t));
  }
  return out;
}

TEST(BitExact, TcaeTrainingMatchesSerial) {
  // Short end-to-end training run: every gemm, conv forward/backward
  // and gradient reduction in the loop must be deterministic for the
  // final weights to match bit-for-bit.
  auto train = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(77);
    dp::models::TcaeConfig cfg;
    cfg.inputSize = 8;
    cfg.latentDim = 4;
    cfg.conv1Channels = 2;
    cfg.conv2Channels = 3;
    cfg.hidden = 8;
    cfg.trainSteps = 9;  // 3 passes over 12 samples at batch 4
    cfg.batchSize = 4;
    auto model = std::make_unique<dp::models::Tcae>(cfg, rng);
    dp::Rng trainRng(78);
    (void)model->train(randomTopologies(12, 6, 6, rng), trainRng);
    return model;
  };
  auto m1 = train(1);
  auto m2 = train(2);
  auto m4 = train(4);
  const auto p1 = m1->params();
  const auto p2 = m2->params();
  const auto p4 = m4->params();
  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_TRUE(tensorsBitEqual(p1[i]->value, p2[i]->value))
        << "param " << i << " at 2 threads";
    EXPECT_TRUE(tensorsBitEqual(p1[i]->value, p4[i]->value))
        << "param " << i << " at 4 threads";
  }
}

/// Sorted canonical-hash multiset of a generation result's unique set.
std::vector<std::uint64_t> hashMultiset(const dp::core::GenerationResult& r) {
  std::vector<std::uint64_t> hashes;
  for (const auto& t : r.unique.patterns())
    hashes.push_back(dp::squish::hashCanonical(t));
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

TEST(BitExact, MassiveGenerationIdenticalAcrossThreadCounts) {
  const dp::DesignRules rules = dp::euv7nmM2();
  const dp::drc::TopologyChecker checker(
      dp::drc::TopologyRuleConfig::fromRules(rules));
  auto generate = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(5);
    const auto clips = dp::datagen::generateLibrary(
        dp::datagen::directprintSpec(1), rules, 24, rng);
    const auto topos = dp::datagen::extractTopologies(clips);
    dp::models::Tcae tcae(dp::models::TcaeConfig{}, rng);
    const auto perturber =
        dp::core::SensitivityAwarePerturber::uniformNoise(
            tcae.config().latentDim, 0.5);
    dp::core::FlowConfig flow;
    flow.count = 96;
    flow.batchSize = 32;
    flow.sourcePoolSize = 16;
    flow.collectGoodVectors = true;
    dp::Rng genRng(6);
    return dp::core::tcaeRandom(tcae, topos, perturber, checker, flow,
                                genRng);
  };
  const auto r1 = generate(1);
  const auto r2 = generate(2);
  const auto r4 = generate(4);
  EXPECT_EQ(r1.generated, 96);
  EXPECT_EQ(r1.legal, r4.legal);
  EXPECT_EQ(r1.goodVectors, r2.goodVectors);
  EXPECT_EQ(r1.goodVectors, r4.goodVectors);
  EXPECT_EQ(hashMultiset(r1), hashMultiset(r2));
  EXPECT_EQ(hashMultiset(r1), hashMultiset(r4));
}

TEST(BitExact, SensitivityIdenticalAcrossThreadCounts) {
  const dp::DesignRules rules = dp::euv7nmM2();
  const dp::drc::TopologyChecker checker(
      dp::drc::TopologyRuleConfig::fromRules(rules));
  auto estimate = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(9);
    dp::models::TcaeConfig cfg;
    cfg.inputSize = 8;
    cfg.latentDim = 6;
    cfg.conv1Channels = 2;
    cfg.conv2Channels = 3;
    cfg.hidden = 8;
    dp::models::Tcae tcae(cfg, rng);
    dp::core::SensitivityConfig sens;
    sens.sweepSteps = 3;
    sens.maxTopologies = 8;
    return dp::core::estimateSensitivity(
        tcae, randomTopologies(8, 6, 6, rng), checker, sens);
  };
  const auto s1 = estimate(1);
  EXPECT_EQ(s1.size(), 6u);
  EXPECT_EQ(s1, estimate(2));
  EXPECT_EQ(s1, estimate(4));
}

TEST(BitExact, MaterializeIdenticalAcrossThreadCounts) {
  const dp::DesignRules rules = dp::euv7nmM2();
  auto materializeAt = [&](int threads,
                           dp::lp::GeometryBackend backend) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(14);
    const auto clips = dp::datagen::generateLibrary(
        dp::datagen::directprintSpec(1), rules, 16, rng);
    dp::core::PatternLibrary library;
    for (const auto& t : dp::datagen::extractTopologies(clips))
      library.add(t);
    const dp::lp::GeometrySolver solver(rules, backend);
    const dp::drc::GeometryChecker geomChecker(rules);
    dp::Rng matRng(15);
    return dp::core::materialize(library, solver, geomChecker, matRng);
  };
  for (const auto backend :
       {dp::lp::GeometryBackend::kDifferenceConstraints,
        dp::lp::GeometryBackend::kSimplexRandomVertex}) {
    const auto r1 = materializeAt(1, backend);
    const auto r4 = materializeAt(4, backend);
    EXPECT_GT(r1.attempted, 0);
    EXPECT_EQ(r1.attempted, r4.attempted);
    EXPECT_EQ(r1.solved, r4.solved);
    EXPECT_EQ(r1.drcClean, r4.drcClean);
    ASSERT_EQ(r1.clips.size(), r4.clips.size());
    for (std::size_t i = 0; i < r1.clips.size(); ++i) {
      const auto& a = r1.clips[i].shapes();
      const auto& b = r4.clips[i].shapes();
      ASSERT_EQ(a.size(), b.size()) << "clip " << i;
      for (std::size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].x0, b[s].x0);
        EXPECT_EQ(a[s].y0, b[s].y0);
        EXPECT_EQ(a[s].x1, b[s].x1);
        EXPECT_EQ(a[s].y1, b[s].y1);
      }
    }
  }
}

}  // namespace
