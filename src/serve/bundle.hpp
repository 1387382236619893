#pragma once

/// \file bundle.hpp
/// Model bundles: the named, versioned checkpoint unit of the serving
/// subsystem. A bundle packages everything a generate request needs —
/// a trained TCAE, the encoded source-latent pool, the sensitivity
/// vector / perturber, an optional trained guide model (G-TCAE GAN or
/// V-TCAE VAE), and the design-rule preset with its derived checkers
/// and the Eq. (10) solver.
///
/// On-disk layout (one directory per bundle):
///   manifest.json   name, version, rules, architecture, sensitivity,
///                   guide kind + normalization moments, generation,
///                   and a "files" map (path + byte size + CRC-32 per
///                   data file, verified on load)
///   tcae.<g>.bin    TCAE parameters (nn::saveTensors)
///   latents.<g>.bin encoded source-latent pool (nn::saveTensor)
///   guide.<g>.bin   guide parameters + state (only when guided)
///
/// Data files carry the manifest's generation number <g>; save never
/// overwrites the previous generation's files, and the manifest is
/// published last via an atomic rename, so a crash at any point in
/// save leaves the previous bundle loadable (DESIGN.md §11). Legacy
/// manifests without a "files" map load from the unsuffixed names
/// without checksum verification.
///
/// A loaded Bundle is immutable and served through const inference
/// paths only, so one instance is shared across all request threads.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "core/flows.hpp"
#include "core/fused_generate.hpp"
#include "core/guide.hpp"
#include "core/perturb.hpp"
#include "core/sensitivity.hpp"
#include "drc/geometry_rules.hpp"
#include "drc/topology_rules.hpp"
#include "geometry/design_rules.hpp"
#include "lp/geometry_solver.hpp"
#include "models/tcae.hpp"
#include "serve/metrics.hpp"
#include "squish/topology.hpp"
#include "tensor/tensor.hpp"
#include "train/harness.hpp"

namespace dp::serve {

/// Identity + architecture of a bundle (everything the manifest needs
/// to rebuild the in-memory object before loading weights).
struct BundleSpec {
  std::string name = "default";
  std::string version = "1";
  dp::DesignRules rules;
  models::TcaeConfig tcae;
  double perturbScale = 1.0;
  int sourcePoolSize = 1000;
  std::optional<core::GuideConfig> guide;  ///< nullopt = unguided
};

class Bundle {
 public:
  /// Builds the architecture from `spec` (weights are random until
  /// train or load fills them; `initRng` only seeds the construction).
  Bundle(BundleSpec spec, Rng& initRng);

  [[nodiscard]] const BundleSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] const std::string& version() const {
    return spec_.version;
  }

  [[nodiscard]] models::Tcae& tcae() { return tcae_; }
  [[nodiscard]] const models::Tcae& tcae() const { return tcae_; }
  [[nodiscard]] core::GuideModel* guide() {
    return guide_ ? &*guide_ : nullptr;
  }
  [[nodiscard]] const core::GuideModel* guide() const {
    return guide_ ? &*guide_ : nullptr;
  }

  /// Installs the sensitivity vector and derives the perturber.
  void setSensitivity(std::vector<double> sensitivity);
  [[nodiscard]] const std::vector<double>& sensitivity() const {
    return sensitivity_;
  }
  /// Throws std::logic_error before setSensitivity().
  [[nodiscard]] const core::SensitivityAwarePerturber& perturber() const;

  void setSourceLatents(nn::Tensor latents);
  [[nodiscard]] const nn::Tensor& sourceLatents() const {
    return sourceLatents_;
  }

  /// Re-prepacks the fused decode route (DESIGN.md §14) from the
  /// TCAE's current weights. Called after train/load finalizes them.
  void refreshFusedRoute();
  /// The prepacked decode route every request decodes through; built
  /// at construction, so never null.
  [[nodiscard]] const core::FusedDecodeRoute* fusedRoute() const {
    return &fused_;
  }

  [[nodiscard]] const drc::TopologyChecker& checker() const {
    return checker_;
  }
  [[nodiscard]] const lp::GeometrySolver& solver() const {
    return solver_;
  }
  [[nodiscard]] const drc::GeometryChecker& geomChecker() const {
    return geomChecker_;
  }

  /// Writes the bundle directory (creates it if needed).
  void save(const std::string& dir) const;

 private:
  BundleSpec spec_;
  models::Tcae tcae_;
  std::optional<core::GuideModel> guide_;
  core::FusedDecodeRoute fused_;
  std::vector<double> sensitivity_;
  std::optional<core::SensitivityAwarePerturber> perturber_;
  nn::Tensor sourceLatents_;
  drc::TopologyChecker checker_;
  lp::GeometrySolver solver_;
  drc::GeometryChecker geomChecker_;
};

/// Training inputs of buildBundle beyond the spec itself.
struct BundleBuildConfig {
  core::SensitivityConfig sensitivity;
  /// Good-vector collection run used to train the guide (only when
  /// spec.guide is set); collectGoodVectors is forced on.
  core::FlowConfig guideCollect;
  /// Robustness options for the TCAE training phase: checkpointing
  /// (tcaeTrain.checkpointDir makes the build crash-resumable),
  /// divergence guards, LR backoff. Defaults: sentinels on, no disk
  /// checkpoints.
  train::TrainOptions tcaeTrain;
};

/// Trains a complete bundle from an existing topology library: TCAE
/// identity training, Algorithm-1 sensitivity, source-latent encoding,
/// and (when spec.guide is set) a guide trained on the perturbation
/// vectors that decoded legally. Deterministic given `rng`. When
/// `metrics` is non-null, the TCAE harness counters are folded into
/// its dp_train_* exposition.
[[nodiscard]] std::shared_ptr<const Bundle> buildBundle(
    const BundleSpec& spec, const BundleBuildConfig& config,
    const std::vector<squish::Topology>& topologies, Rng& rng,
    Metrics* metrics = nullptr);

/// Loads a bundle directory written by Bundle::save.
[[nodiscard]] std::shared_ptr<const Bundle> loadBundle(
    const std::string& dir);

/// Thread-safe name -> bundle map shared by the batcher and the HTTP
/// front end.
class BundleRegistry {
 public:
  void add(std::shared_ptr<const Bundle> bundle) DP_EXCLUDES(mutex_);
  [[nodiscard]] std::shared_ptr<const Bundle> find(
      const std::string& name) const DP_EXCLUDES(mutex_);
  [[nodiscard]] std::vector<std::shared_ptr<const Bundle>> list() const
      DP_EXCLUDES(mutex_);

  /// Loads every immediate subdirectory of `root` that contains a
  /// manifest.json, in sorted path order. Returns the number of
  /// bundles loaded. A directory that fails to load (corrupt data,
  /// checksum mismatch, injected fault) is skipped rather than fatal;
  /// when `errors` is non-null one "<dir>: <reason>" line is appended
  /// per failure.
  int loadDirectory(const std::string& root,
                    std::vector<std::string>* errors = nullptr);

 private:
  mutable Mutex mutex_;
  std::vector<std::shared_ptr<const Bundle>> bundles_
      DP_GUARDED_BY(mutex_);
};

}  // namespace dp::serve
