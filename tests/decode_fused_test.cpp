// Fused decode route equivalence suite (ctest label: kernel) —
// DESIGN.md §14.
//
// The fused route replaces float activations with bit-packed row
// masks between decode and assessment, so its contract is exact
// equivalence with the float reference path on everything downstream
// of binarization:
//   * the packed canonicalize/hash/pack ops reproduce the float
//     path's results bit-for-bit, including the pinned seeded corpus
//     in tests/fixtures/canonical_hashes.inc (shared with the
//     pipeline suite — a drift here means stored libraries built by
//     the two routes would diverge);
//   * decodeMasks output is bit-identical across every dispatch
//     target and DP_THREADS setting;
//   * on a trained model, the fused route's per-sample topology,
//     legality verdict, canonical hash and packed bytes match the
//     unfused float path on every target at DP_THREADS 1 and 8.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "core/flows.hpp"
#include "core/fused_generate.hpp"
#include "datagen/generator.hpp"
#include "drc/packed_rules.hpp"
#include "drc/topology_rules.hpp"
#include "geometry/design_rules.hpp"
#include "models/tcae.hpp"
#include "models/topology_codec.hpp"
#include "nn/activations.hpp"
#include "pipeline/packed.hpp"
#include "squish/canonical.hpp"
#include "squish/hash.hpp"
#include "squish/packed_topo.hpp"
#include "squish/topology.hpp"
#include "tensor/decode_fused.hpp"
#include "tensor/gemm.hpp"
#include "testutil.hpp"

namespace {

using dp::KernelTarget;
using dp::nn::supportedKernelTargets;
using dp::test::ScopedKernelTarget;

dp::squish::Topology randomTopology(dp::Rng& rng, int maxDim,
                                    double density) {
  const int rows = rng.uniformInt(1, maxDim);
  const int cols = rng.uniformInt(1, maxDim);
  dp::squish::Topology t(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      t.set(r, c, rng.bernoulli(density) ? 1 : 0);
  return t;
}

// ------------------------------------------- packed ops vs float ops

// The pinned seeded corpus: the packed-word canonicalize/hash/pack
// pipeline must reproduce both the float path and the checked-in pin
// (the same one pipeline_test verifies for the float path, so the two
// suites cross-check each other).
TEST(PackedCanonicalOps, MatchFloatPathOnPinnedCorpus) {
  struct CorpusEntry {
    std::uint64_t hash;
    std::uint32_t crc;  // record CRC, pinned by the pipeline suite
  };
  static constexpr CorpusEntry kCorpus[] = {
#include "fixtures/canonical_hashes.inc"
  };
  dp::Rng rng(424242);
  for (const CorpusEntry& expected : kCorpus) {
    const dp::squish::Topology t = randomTopology(rng, 10, 0.4);
    const dp::squish::Topology canon = dp::squish::canonicalize(t);

    std::uint32_t masks[dp::squish::kMaxMaskCols] = {};
    dp::squish::topologyToMasks(t, masks);
    int rows = t.rows();
    int cols = t.cols();
    dp::squish::canonicalizeMasks(masks, rows, cols);

    ASSERT_EQ(rows, canon.rows());
    ASSERT_EQ(cols, canon.cols());
    EXPECT_EQ(dp::squish::masksToTopology(masks, rows, cols), canon);
    EXPECT_EQ(dp::squish::hashMasks(masks, rows, cols), expected.hash);
    EXPECT_EQ(dp::squish::hashMasks(masks, rows, cols),
              dp::squish::hashTopology(canon));
    if (rows > 0 && cols > 0) {
      EXPECT_EQ(dp::pipeline::packMasks(masks, rows, cols),
                dp::pipeline::pack(canon));
    }
  }
}

// Legality on the packed canonical form must agree with the float
// checker (which canonicalizes internally) on arbitrary topologies.
TEST(PackedCanonicalOps, LegalityMatchesFloatChecker) {
  const dp::drc::TopologyChecker checker(
      dp::drc::TopologyRuleConfig::fromRules(dp::euv7nmM2()));
  dp::Rng rng(20190604);
  for (int i = 0; i < 400; ++i) {
    const dp::squish::Topology t = randomTopology(rng, 14, 0.35);
    std::uint32_t masks[dp::squish::kMaxMaskCols] = {};
    dp::squish::topologyToMasks(t, masks);
    int rows = t.rows();
    int cols = t.cols();
    dp::squish::canonicalizeMasks(masks, rows, cols);
    EXPECT_EQ(dp::drc::isLegalCanonicalMasks(checker.config(), masks, rows,
                                             cols),
              checker.isLegal(t))
        << "packed/float legality verdicts diverge for:\n"
        << t.toString();
  }
}

// ------------------------------------------- fused decode route

/// Trained world shared by the route-equivalence tests (built once per
/// process), on which the fused zHalf epilogue and the float
/// sigmoid-threshold path must binarize every cell alike.
struct TrainedWorld {
  dp::drc::TopologyChecker checker;
  dp::models::Tcae tcae;
  dp::nn::Tensor latents;
};

const TrainedWorld& trainedWorld() {
  static const TrainedWorld* world = [] {
    dp::Rng rng(2019);
    const dp::DesignRules rules = dp::euv7nmM2();
    const auto clips = dp::datagen::generateLibrary(
        dp::datagen::directprintSpec(1), rules, 24, rng);
    const auto topologies = dp::datagen::extractTopologies(clips);
    dp::models::TcaeConfig cfg;
    cfg.trainSteps = 150;
    auto* w = new TrainedWorld{
        dp::drc::TopologyChecker(
            dp::drc::TopologyRuleConfig::fromRules(rules)),
        dp::models::Tcae(cfg, rng), dp::nn::Tensor()};
    w->tcae.train(topologies, rng);
    // Source-pool latents plus perturbations: the same latent
    // population the generation flows decode.
    w->latents = dp::core::encodeSourceLatents(w->tcae, topologies, 96);
    for (std::size_t i = 0; i < w->latents.numel(); ++i)
      w->latents[i] += static_cast<float>(rng.uniform(-0.6, 0.6));
    return w;
  }();
  return *world;
}

// The fused epilogue's zHalf compare must reproduce the float path's
// `sigmoid(z) >= 0.5f` on every float near the threshold, where a plain
// sign test disagrees: 1 / (1 + exp(-z)) still rounds to 0.5f for tiny
// negative z. A plan with all-zero weights makes every cell's
// pre-activation exactly its deconv2 bias, so sweeping the bias sweeps z
// through each target's epilogue (16 columns: full vectors on AVX2 and
// AVX-512).
TEST(FusedDecodeRoute, BinarizationMatchesFloatSigmoidNearThreshold) {
  const int c1 = 4;
  const int s4 = 4;
  const std::vector<float> zeros(16 * 16 * c1, 0.0f);
  dp::nn::fused::DecodePlan plan = dp::nn::fused::buildDecodePlan(
      1, 1, 1, s4, c1, 4, 2, 1, zeros.data(), zeros.data(), zeros.data(),
      zeros.data(), zeros.data(), zeros.data(), zeros.data(), 0.0f);
  const float zHalf = plan.zHalf;
  ASSERT_LT(zHalf, 0.0f);
  EXPECT_GE(dp::nn::sigmoid(zHalf), 0.5f);
  EXPECT_LT(dp::nn::sigmoid(std::nextafter(zHalf, -1.0f)), 0.5f);

  constexpr int kUlps = 4096;
  float z = zHalf;
  for (int i = 0; i < kUlps; ++i) z = std::nextafter(z, -1.0f);
  dp::nn::Tensor zs({1, 2 * kUlps + 1});
  for (std::size_t i = 0; i < zs.numel(); ++i) {
    zs[i] = z;
    z = std::nextafter(z, 1.0f);
  }
  const dp::nn::Tensor activations = dp::nn::Sigmoid().infer(zs);

  const float latent = 0.0f;
  std::vector<std::uint32_t> masks(static_cast<std::size_t>(plan.s));
  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    for (std::size_t i = 0; i < zs.numel(); ++i) {
      plan.bd2 = zs[i];
      dp::nn::fused::decodeBatch(plan, &latent, 1, masks.data());
      const std::uint32_t want = activations[i] >= 0.5f ? 0xffffU : 0U;
      for (const std::uint32_t row : masks)
        ASSERT_EQ(row, want) << "target " << dp::kernelTargetName(t)
                             << " z = " << zs[i] << " ("
                             << static_cast<long>(i) - kUlps
                             << " ulps from zHalf)";
    }
  }
}

// decodeMasks must be bit-identical across every dispatch target and
// thread count — even on an untrained model, where boundary-band
// logits make this the strictest cross-target statement (the float
// intermediates themselves agree bit-for-bit by construction).
TEST(FusedDecodeRoute, BitIdenticalAcrossTargetsAndThreads) {
  dp::Rng rng(7);
  dp::models::TcaeConfig cfg;
  const dp::models::Tcae tcae(cfg, rng);
  const dp::core::FusedDecodeRoute route(tcae);
  dp::nn::Tensor latents({64, cfg.latentDim});
  for (std::size_t i = 0; i < latents.numel(); ++i)
    latents[i] = static_cast<float>(rng.uniform(-2.0, 2.0));

  std::vector<std::uint32_t> reference;
  {
    ScopedKernelTarget guard(KernelTarget::kScalar);
    dp::test::ScopedDpThreads scoped(1);
    route.decodeMasks(latents, reference);
  }
  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    for (const int threads : {1, 8}) {
      dp::test::ScopedDpThreads scoped(threads);
      std::vector<std::uint32_t> masks;
      route.decodeMasks(latents, masks);
      ASSERT_EQ(masks, reference)
          << "target " << dp::kernelTargetName(t) << " DP_THREADS "
          << threads << " diverges from scalar/1";
    }
  }
}

// On the trained model, every per-sample artifact of the fused route
// — binarized topology, legality verdict, canonical hash, packed
// bytes — must match the unfused float path, on every target at
// DP_THREADS 1 and 8.
TEST(FusedDecodeRoute, MatchesFloatPathAllTargetsAndThreads) {
  const TrainedWorld& w = trainedWorld();
  const dp::core::FusedDecodeRoute route(w.tcae);
  const int edge = route.topologySize();
  const int n = w.latents.size(0);

  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    for (const int threads : {1, 8}) {
      dp::test::ScopedDpThreads scoped(threads);
      const dp::nn::Tensor activations = w.tcae.decode(w.latents);
      std::vector<std::uint32_t> masks;
      route.decodeMasks(w.latents, masks);
      ASSERT_EQ(masks.size(),
                static_cast<std::size_t>(n) * static_cast<std::size_t>(edge));

      for (int i = 0; i < n; ++i) {
        const dp::squish::Topology topo =
            dp::models::decodeGeneratedTopology(activations, i);
        const bool legal = w.checker.isLegal(topo);
        std::uint32_t sample[dp::squish::kMaxMaskCols] = {};
        for (int r = 0; r < edge; ++r)
          sample[r] = masks[static_cast<std::size_t>(i) * edge + r];
        int rows = edge;
        int cols = edge;
        dp::squish::unpadMasks(sample, rows, cols);
        ASSERT_EQ(dp::squish::masksToTopology(sample, rows, cols), topo)
            << "binarized topology diverges: target "
            << dp::kernelTargetName(t) << " sample " << i;
        dp::squish::canonicalizeMasks(sample, rows, cols);
        const dp::squish::Topology canon = dp::squish::canonicalize(topo);
        ASSERT_EQ(dp::drc::isLegalCanonicalMasks(w.checker.config(), sample,
                                                 rows, cols),
                  legal);
        ASSERT_EQ(rows, canon.rows());
        ASSERT_EQ(cols, canon.cols());
        if (rows > 0 && cols > 0) {
          ASSERT_EQ(dp::squish::hashMasks(sample, rows, cols),
                    dp::squish::hashTopology(canon));
          ASSERT_EQ(dp::pipeline::packMasks(sample, rows, cols),
                    dp::pipeline::pack(canon));
        }
      }
    }
  }
}

// The accounting folds must agree end-to-end: identical generated /
// legal tallies, an identical pattern library (size, contents and
// enumeration order) and identical good perturbation vectors (content
// and order) between accountActivationBatch and the fused
// accountMaskBatch.
TEST(FusedDecodeRoute, AccountingMatchesFloatPath) {
  const TrainedWorld& w = trainedWorld();
  const dp::core::FusedDecodeRoute route(w.tcae);
  // Distinct rows, so a good vector recorded for the wrong sample shows.
  dp::nn::Tensor perturbations(w.latents.shape());
  dp::Rng rng(11);
  for (std::size_t i = 0; i < perturbations.numel(); ++i)
    perturbations[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    for (const int threads : {1, 8}) {
      dp::test::ScopedDpThreads scoped(threads);
      dp::core::GenerationResult viaFloat;
      dp::core::accountActivationBatch(w.tcae.decode(w.latents), w.checker,
                                       viaFloat, &perturbations);
      dp::core::GenerationResult viaFused;
      std::vector<std::uint32_t> masks;
      route.decodeMasks(w.latents, masks);
      dp::core::accountMaskBatch(masks.data(), w.latents.size(0),
                                 route.topologySize(), w.checker, viaFused,
                                 &perturbations);

      EXPECT_EQ(viaFused.generated, viaFloat.generated);
      EXPECT_EQ(viaFused.legal, viaFloat.legal);
      ASSERT_EQ(viaFused.unique.size(), viaFloat.unique.size());
      EXPECT_EQ(viaFused.unique.patterns(), viaFloat.unique.patterns())
          << "library contents diverge: target " << dp::kernelTargetName(t)
          << " DP_THREADS " << threads;
      ASSERT_FALSE(viaFloat.goodVectors.empty());
      EXPECT_EQ(static_cast<long>(viaFused.goodVectors.size()),
                viaFused.legal);
      EXPECT_EQ(viaFused.goodVectors, viaFloat.goodVectors)
          << "good vectors diverge: target " << dp::kernelTargetName(t)
          << " DP_THREADS " << threads;
    }
  }
}

}  // namespace
