#include "fixture.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "bench.hpp"
#include "core/flows.hpp"
#include "core/sensitivity.hpp"
#include "datagen/generator.hpp"
#include "datagen/library_spec.hpp"

namespace perfbench {

namespace {

constexpr char kMagic[] = "DPPB-TCAE-1\n";

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
T take(const std::string& in, std::size_t& pos, const std::string& path) {
  if (pos + sizeof(T) > in.size())
    throw std::runtime_error(path + ": truncated weight file");
  T v;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

}  // namespace

Library makeLibrary() {
  Library lib;
  dp::Rng rng(kLibrarySeed);
  lib.clips = dp::datagen::generateLibrary(
      dp::datagen::directprintSpec(kLibraryGroup), lib.rules, kLibraryClips,
      rng);
  lib.topologies = dp::datagen::extractTopologies(lib.clips);
  return lib;
}

dp::models::TcaeConfig tcaeConfig() {
  dp::models::TcaeConfig c;
  c.inputSize = 24;
  c.latentDim = 32;
  c.conv1Channels = 8;
  c.conv2Channels = 16;
  c.hidden = 96;
  c.convWeightDecay = 0.0;
  c.denseWeightDecay = 0.0;
  c.initialLr = 2e-3;
  c.lrDecayFactor = 0.7;
  c.lrDecayEvery = kWeightSteps / 2;
  c.trainSteps = kWeightSteps;
  c.batchSize = 64;
  return c;
}

std::string weightsPath(const std::string& assetDir) {
  return assetDir + "/weights/tcae_directprint1.bin";
}

void saveWeights(dp::models::Tcae& tcae, const std::string& path) {
  std::string out(kMagic);
  const std::vector<dp::nn::Param*> params = tcae.params();
  put<std::uint32_t>(out, static_cast<std::uint32_t>(params.size()));
  for (const dp::nn::Param* p : params) {
    const std::vector<int>& shape = p->value.shape();
    put<std::uint32_t>(out, static_cast<std::uint32_t>(shape.size()));
    for (const int d : shape)
      put<std::uint32_t>(out, static_cast<std::uint32_t>(d));
    out.append(reinterpret_cast<const char*>(p->value.data()),
               p->value.numel() * sizeof(float));
  }
  put<std::uint64_t>(out, fnv1a(out));
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!file) throw std::runtime_error(path + ": write failed");
}

void loadWeights(dp::models::Tcae& tcae, const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error(path + ": cannot open weight file");
  const std::string in((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  const std::size_t magicLen = sizeof(kMagic) - 1;
  if (in.size() < magicLen + 12 || in.compare(0, magicLen, kMagic) != 0)
    throw std::runtime_error(path + ": not a perfbench weight file");
  std::size_t pos = in.size() - sizeof(std::uint64_t);
  if (take<std::uint64_t>(in, pos, path) !=
      fnv1a(in.substr(0, in.size() - sizeof(std::uint64_t))))
    throw std::runtime_error(path + ": checksum mismatch");
  pos = magicLen;
  const std::vector<dp::nn::Param*> params = tcae.params();
  if (take<std::uint32_t>(in, pos, path) != params.size())
    throw std::runtime_error(path + ": tensor count does not match the TCAE");
  for (dp::nn::Param* p : params) {
    const auto rank = take<std::uint32_t>(in, pos, path);
    std::vector<int> shape;
    for (std::uint32_t i = 0; i < rank; ++i)
      shape.push_back(static_cast<int>(take<std::uint32_t>(in, pos, path)));
    if (shape != p->value.shape())
      throw std::runtime_error(path +
                               ": tensor shape does not match the TCAE");
    const std::size_t bytes = p->value.numel() * sizeof(float);
    if (pos + bytes > in.size() - sizeof(std::uint64_t))
      throw std::runtime_error(path + ": truncated weight file");
    std::memcpy(p->value.data(), in.data() + pos, bytes);
    pos += bytes;
  }
  if (pos != in.size() - sizeof(std::uint64_t))
    throw std::runtime_error(path + ": trailing bytes in weight file");
}

void makeWeights(const std::string& path) {
  const Library lib = makeLibrary();
  dp::Rng rng(kWeightSeed);
  dp::models::Tcae tcae(tcaeConfig(), rng);
  const dp::models::TrainStats stats = tcae.train(lib.topologies, rng);
  saveWeights(tcae, path);
  std::printf("wrote %s: %ld steps on %zu topologies, final loss %.6f\n",
              path.c_str(), stats.steps, lib.topologies.size(),
              stats.finalLoss);
}

std::shared_ptr<dp::serve::Bundle> fixedBundle(const Library& library,
                                               const std::string& assetDir,
                                               double* sensitivitySeconds) {
  dp::serve::BundleSpec spec;
  spec.name = "fixed";
  spec.rules = library.rules;
  spec.tcae = tcaeConfig();
  dp::Rng initRng(0);  // architecture only; the weights are loaded
  auto bundle = std::make_shared<dp::serve::Bundle>(spec, initRng);
  loadWeights(bundle->tcae(), weightsPath(assetDir));
  const Clock::time_point t0 = Clock::now();
  bundle->setSensitivity(dp::core::estimateSensitivity(
      bundle->tcae(), library.topologies, bundle->checker(),
      dp::core::SensitivityConfig{}));
  if (sensitivitySeconds) *sensitivitySeconds = secondsSince(t0);
  bundle->setSourceLatents(dp::core::encodeSourceLatents(
      bundle->tcae(), library.topologies, spec.sourcePoolSize));
  bundle->refreshFusedRoute();
  return bundle;
}

}  // namespace perfbench
