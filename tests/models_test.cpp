#include <gtest/gtest.h>

#include <cstdio>

#include "datagen/generator.hpp"
#include "models/batch.hpp"
#include "models/gan.hpp"
#include "nn/loss.hpp"
#include "models/tcae.hpp"
#include "models/topology_codec.hpp"
#include "models/vae.hpp"
#include "testutil.hpp"

namespace dp::models {
namespace {

using dp::test::topo;

/// Small, fast TCAE configuration for tests.
TcaeConfig tinyTcae() {
  TcaeConfig c;
  c.conv1Channels = 4;
  c.conv2Channels = 8;
  c.hidden = 32;
  c.latentDim = 16;
  c.trainSteps = 150;
  c.batchSize = 8;
  return c;
}

std::vector<squish::Topology> sampleTopologies(int count,
                                               std::uint64_t seed = 42) {
  dp::Rng rng(seed);
  const auto clips = datagen::generateLibrary(datagen::directprintSpec(1),
                                              dp::euv7nmM2(), count, rng);
  return datagen::extractTopologies(clips);
}

// ----------------------------------------------------------------- Codec

TEST(TopologyCodec, EncodePadsToNetworkSize) {
  // topo() rows are written top-first: bottom row (r=0) is ".#".
  const auto t = encodeTopologies({topo({"#.", ".#"})}, 24);
  EXPECT_EQ(t.shape(), (std::vector<int>{1, 1, 24, 24}));
  EXPECT_EQ(t.at(0, 0, 0, 1), 1.0f);
  EXPECT_EQ(t.at(0, 0, 1, 0), 1.0f);
  EXPECT_EQ(t.at(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(t.at(0, 0, 23, 23), 0.0f);
}

TEST(TopologyCodec, DecodeInvertsEncodeModuloPadding) {
  const squish::Topology original = topo({"#.#", ".#."});
  const auto enc = encodeTopology(original, 24);
  const squish::Topology decoded = decodeTopology(enc, 0);
  EXPECT_EQ(squish::unpad(decoded), original);
}

TEST(TopologyCodec, DecodeAppliesThreshold) {
  nn::Tensor t({1, 1, 2, 2});
  t.at(0, 0, 0, 0) = 0.6f;
  t.at(0, 0, 1, 1) = 0.4f;
  const auto d = decodeTopology(t, 0, 0.5f);
  EXPECT_EQ(d.at(0, 0), 1);
  EXPECT_EQ(d.at(1, 1), 0);
}

TEST(TopologyCodec, DecodeAllSamples) {
  nn::Tensor t({3, 1, 4, 4});
  const auto all = decodeTopologies(t);
  EXPECT_EQ(all.size(), 3u);
}

TEST(TopologyCodec, RejectsOversizeAndEmpty) {
  EXPECT_THROW(encodeTopologies({}, 24), std::invalid_argument);
  EXPECT_THROW(encodeTopologies({squish::Topology(30, 30)}, 24),
               std::invalid_argument);
  EXPECT_THROW(decodeTopology(nn::Tensor({2, 3}), 0), std::invalid_argument);
}

// ----------------------------------------------------------------- Batch

TEST(Batch, GatherRowsCopiesSamples) {
  nn::Tensor data({3, 2});
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j) data.at(i, j) = static_cast<float>(10 * i + j);
  const nn::Tensor picked = gatherRows(data, {2, 0, 2});
  EXPECT_EQ(picked.shape(), (std::vector<int>{3, 2}));
  EXPECT_EQ(picked.at(0, 1), 21.0f);
  EXPECT_EQ(picked.at(1, 0), 0.0f);
  EXPECT_EQ(picked.at(2, 0), 20.0f);
}

TEST(Batch, GatherRowsValidatesIndices) {
  nn::Tensor data({3, 2});
  EXPECT_THROW(gatherRows(data, {3}), std::out_of_range);
  EXPECT_THROW(gatherRows(data, {-1}), std::out_of_range);
}

TEST(Batch, SampleIndicesInRange) {
  dp::Rng rng(1);
  const auto idx = sampleIndices(10, 100, rng);
  EXPECT_EQ(idx.size(), 100u);
  for (int i : idx) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 10);
  }
  EXPECT_THROW(sampleIndices(0, 5, rng), std::invalid_argument);
}

// ------------------------------------------------------------------ TCAE

TEST(Tcae, EncodeDecodeShapes) {
  dp::Rng rng(1);
  Tcae tcae(tinyTcae(), rng);
  const nn::Tensor x = nn::Tensor::zeros({3, 1, 24, 24});
  const nn::Tensor l = tcae.encode(x);
  EXPECT_EQ(l.shape(), (std::vector<int>{3, 16}));
  const nn::Tensor y = tcae.decode(l);
  EXPECT_EQ(y.shape(), (std::vector<int>{3, 1, 24, 24}));
  // Sigmoid output in [0, 1].
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_GE(y[i], 0.0f);
    EXPECT_LE(y[i], 1.0f);
  }
}

TEST(Tcae, RejectsBadConfigAndData) {
  dp::Rng rng(1);
  TcaeConfig bad = tinyTcae();
  bad.inputSize = 23;
  EXPECT_THROW(Tcae(bad, rng), std::invalid_argument);
  bad.inputSize = 36;  // divisible by 4, but wider than a row mask
  EXPECT_THROW(Tcae(bad, rng), std::invalid_argument);
  Tcae tcae(tinyTcae(), rng);
  EXPECT_THROW(tcae.train({}, rng), std::invalid_argument);
}

TEST(Tcae, TrainingReducesReconstructionLoss) {
  dp::Rng rng(2);
  const auto data = sampleTopologies(60);
  ASSERT_GE(data.size(), 30u);
  Tcae tcae(tinyTcae(), rng);

  // Loss before training.
  const nn::Tensor batch = encodeTopologies(
      {data.begin(), data.begin() + 16}, 24);
  nn::Tensor grad;
  const double before = nn::mseLoss(tcae.reconstruct(batch), batch, grad);
  const TrainStats stats = tcae.train(data, rng);
  const double after = nn::mseLoss(tcae.reconstruct(batch), batch, grad);
  EXPECT_EQ(stats.steps, tinyTcae().trainSteps);
  EXPECT_LT(after, before * 0.8);
}

TEST(Tcae, OverfitsTinySetNearIdentity) {
  dp::Rng rng(3);
  auto data = sampleTopologies(80);
  data.resize(8);
  TcaeConfig cfg = tinyTcae();
  cfg.trainSteps = 2000;
  cfg.batchSize = 8;
  Tcae tcae(cfg, rng);
  tcae.train(data, rng);
  // Binarized reconstructions should be within a handful of pixels of
  // the training topologies (24x24 = 576 cells each).
  const nn::Tensor x = encodeTopologies(data, 24);
  const auto recon = decodeTopologies(tcae.reconstruct(x));
  long wrong = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto padded = squish::padTo(data[i], 24, 24);
    for (int r = 0; r < 24; ++r)
      for (int c = 0; c < 24; ++c)
        if (padded.at(r, c) != recon[i].at(r, c)) ++wrong;
  }
  EXPECT_LT(static_cast<double>(wrong) / static_cast<double>(data.size()),
            8.0);
}

TEST(Tcae, LossTraceIsRecordedAndImproves) {
  dp::Rng rng(6);
  const auto data = sampleTopologies(40);
  TcaeConfig cfg = tinyTcae();
  cfg.trainSteps = 300;
  Tcae tcae(cfg, rng);
  const TrainStats stats = tcae.train(data, rng);
  ASSERT_EQ(stats.lossEvery100.size(), 3u);  // steps 0, 100, 200
  EXPECT_LT(stats.lossEvery100.back(), stats.lossEvery100.front());
  EXPECT_GT(stats.finalLoss, 0.0);
}

TEST(Gan, TrainReportsStats) {
  dp::Rng rng(7);
  Gan gan = makeMlpGan(4, rng, 2, 16);
  nn::Tensor data({64, 4});
  for (std::size_t i = 0; i < data.numel(); ++i)
    data[i] = static_cast<float>(rng.gaussian(1.0, 0.2));
  GanConfig cfg;
  cfg.trainSteps = 50;
  cfg.batchSize = 16;
  const GanStats stats = gan.train(data, cfg, rng);
  EXPECT_EQ(stats.steps, 50);
  EXPECT_GT(stats.finalDiscLoss, 0.0);
  EXPECT_GT(stats.finalGenLoss, 0.0);
}

TEST(Tcae, SaveLoadRoundTrip) {
  dp::Rng rng(4);
  Tcae a(tinyTcae(), rng);
  Tcae b(tinyTcae(), rng);  // different init
  const std::string path = ::testing::TempDir() + "/tcae.bin";
  a.save(path);
  b.load(path);
  const nn::Tensor x = nn::Tensor::randn({2, 1, 24, 24}, rng);
  EXPECT_EQ(a.reconstruct(x), b.reconstruct(x));
  std::remove(path.c_str());
}

TEST(Tcae, ParameterCountMatchesArchitecture) {
  dp::Rng rng(5);
  Tcae tcae(tinyTcae(), rng);
  EXPECT_GT(tcae.parameterCount(), 1000u);
  EXPECT_EQ(tcae.params().size(), 16u);  // 8 layers with W+b
}

// ------------------------------------------------------------------- GAN

TEST(Gan, MlpGanSampleShape) {
  dp::Rng rng(1);
  Gan gan = makeMlpGan(32, rng);
  const nn::Tensor s = gan.sample(5, rng);
  EXPECT_EQ(s.shape(), (std::vector<int>{5, 32}));
}

TEST(Gan, LearnsShiftedGaussian) {
  // Train on N(3, 0.5) 8-d vectors; generator samples must move toward
  // the data mean.
  dp::Rng rng(2);
  const int dim = 8;
  nn::Tensor data({512, dim});
  for (std::size_t i = 0; i < data.numel(); ++i)
    data[i] = static_cast<float>(rng.gaussian(3.0, 0.5));
  Gan gan = makeMlpGan(dim, rng, 4, 32);
  GanConfig cfg;
  cfg.trainSteps = 800;
  cfg.batchSize = 32;
  gan.train(data, cfg, rng);
  const nn::Tensor s = gan.sample(256, rng);
  EXPECT_NEAR(s.mean(), 3.0, 1.0);
}

TEST(Gan, TrainRejectsEmptyData) {
  dp::Rng rng(1);
  Gan gan = makeMlpGan(8, rng);
  EXPECT_THROW(gan.train(nn::Tensor({0, 8}), GanConfig{}, rng),
               std::invalid_argument);
}

TEST(Gan, DcganShapes) {
  dp::Rng rng(3);
  Gan gan = makeDcgan(rng, 24, 32);
  const nn::Tensor s = gan.sample(2, rng);
  EXPECT_EQ(s.shape(), (std::vector<int>{2, 1, 24, 24}));
  for (std::size_t i = 0; i < s.numel(); ++i) {
    EXPECT_GE(s[i], 0.0f);
    EXPECT_LE(s[i], 1.0f);
  }
  EXPECT_THROW(makeDcgan(rng, 23), std::invalid_argument);
}

// ------------------------------------------------------------------- VAE

TEST(Vae, TopologyBackboneShapes) {
  dp::Rng rng(1);
  VaeConfig cfg;
  cfg.backbone = VaeConfig::Backbone::kTopology;
  cfg.conv1Channels = 4;
  cfg.conv2Channels = 8;
  cfg.hidden = 32;
  cfg.latentDim = 8;
  Vae vae(cfg, rng);
  const nn::Tensor x = nn::Tensor::zeros({2, 1, 24, 24});
  const VaeForward f = vae.encode(x);
  EXPECT_EQ(f.mu.shape(), (std::vector<int>{2, 8}));
  EXPECT_EQ(f.logVar.shape(), (std::vector<int>{2, 8}));
  const nn::Tensor s = vae.sample(3, rng);
  EXPECT_EQ(s.shape(), (std::vector<int>{3, 1, 24, 24}));
}

TEST(Vae, VectorBackboneTrainsAndSamples) {
  dp::Rng rng(2);
  VaeConfig cfg;
  cfg.backbone = VaeConfig::Backbone::kVector;
  cfg.inputDim = 8;
  cfg.latentDim = 4;
  cfg.hidden = 32;
  cfg.trainSteps = 800;
  cfg.batchSize = 32;
  Vae vae(cfg, rng);
  nn::Tensor data({256, 8});
  for (std::size_t i = 0; i < data.numel(); ++i)
    data[i] = static_cast<float>(rng.gaussian(-2.0, 0.3));
  vae.train(data, rng);
  // Prior samples must decode toward the data distribution (mean -2,
  // far from the decoder's untrained output around 0).
  const nn::Tensor s = vae.sample(128, rng);
  EXPECT_EQ(s.shape(), (std::vector<int>{128, 8}));
  EXPECT_LT(s.mean(), -1.0);
  EXPECT_GT(s.mean(), -3.0);
}

TEST(Vae, TrainingReducesLossOnTopologies) {
  dp::Rng rng(3);
  const auto data = sampleTopologies(40);
  VaeConfig cfg;
  cfg.backbone = VaeConfig::Backbone::kTopology;
  cfg.conv1Channels = 4;
  cfg.conv2Channels = 8;
  cfg.hidden = 32;
  cfg.latentDim = 8;
  cfg.trainSteps = 60;
  cfg.batchSize = 8;
  Vae vae(cfg, rng);
  const double final = vae.train(encodeTopologies(data, 24), rng);
  EXPECT_LT(final, 0.5);  // well below the trivial all-0.5 loss
  EXPECT_TRUE(std::isfinite(final));
}

TEST(Vae, RejectsBadConfig) {
  dp::Rng rng(1);
  VaeConfig cfg;
  cfg.inputSize = 22;
  EXPECT_THROW(Vae(cfg, rng), std::invalid_argument);
}

}  // namespace
}  // namespace dp::models
