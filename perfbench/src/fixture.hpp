#pragma once

/// \file fixture.hpp
/// Inputs every workload starts from: the directprint1 clip library,
/// the benchmark's own TCAE architecture, and the fixed TCAE weights
/// that the generate workload and the serve probes decode with (so
/// that a change to training arithmetic cannot change how much work
/// they do).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geometry/clip.hpp"
#include "geometry/design_rules.hpp"
#include "models/tcae.hpp"
#include "serve/bundle.hpp"
#include "squish/topology.hpp"

namespace perfbench {

/// The clip library all workloads train on or perturb: benchmark group
/// directprint1, a fixed clip count and a fixed seed (independent of
/// --seed, so the fixed weights always match their training data).
struct Library {
  dp::DesignRules rules;
  std::vector<dp::Clip> clips;
  std::vector<dp::squish::Topology> topologies;
};
inline constexpr int kLibraryGroup = 1;
inline constexpr int kLibraryClips = 800;
inline constexpr std::uint64_t kLibrarySeed = 2019;
[[nodiscard]] Library makeLibrary();

/// The TCAE architecture and training recipe of the fixed weights,
/// spelled out here rather than taken from the library defaults so a
/// change of defaults cannot silently detach the committed file.
[[nodiscard]] dp::models::TcaeConfig tcaeConfig();
inline constexpr long kWeightSteps = 3500;
inline constexpr std::uint64_t kWeightSeed = 7;

/// Fixed-weight file format (little-endian):
///   "DPPB-TCAE-1\n", u32 tensor count, then per Tcae::params() entry
///   u32 rank, u32 dims[rank], f32 values[numel]; then a u64 FNV-1a of
///   every preceding byte.
void saveWeights(dp::models::Tcae& tcae, const std::string& path);
/// Throws std::runtime_error on a missing, truncated, corrupt or
/// shape-mismatched file.
void loadWeights(dp::models::Tcae& tcae, const std::string& path);
[[nodiscard]] std::string weightsPath(const std::string& assetDir);

/// Trains the fixed weights from kWeightSeed and writes them to `path`.
void makeWeights(const std::string& path);

/// A serving bundle around the fixed weights: load, Algorithm-1
/// sensitivity, source latents and the fused route, exactly the steps
/// serve::buildBundle runs after training. `sensitivitySeconds`
/// receives the time of the sensitivity estimate.
[[nodiscard]] std::shared_ptr<dp::serve::Bundle> fixedBundle(
    const Library& library, const std::string& assetDir,
    double* sensitivitySeconds = nullptr);

}  // namespace perfbench
