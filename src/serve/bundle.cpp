#include "serve/bundle.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "common/atomic_file.hpp"
#include "common/fault.hpp"
#include "core/generation_result.hpp"
#include "io/json.hpp"
#include "nn/serialize.hpp"

namespace dp::serve {

namespace fs = std::filesystem;
using dp::io::Json;

namespace {

Json momentsJson(const std::vector<double>& values) {
  Json arr = Json::array();
  for (const double v : values) arr.push(Json(v));
  return arr;
}

std::vector<double> momentsFromJson(const Json& arr) {
  std::vector<double> out;
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i)
    out.push_back(arr.at(i).asDouble());
  return out;
}

Json manifestJson(const Bundle& bundle) {
  const BundleSpec& spec = bundle.spec();
  Json m = Json::object();
  m.set("format", "dp-bundle-1");
  m.set("name", spec.name);
  m.set("version", spec.version);

  Json rules = Json::object();
  rules.set("pitch", spec.rules.pitch);
  rules.set("minT2T", spec.rules.minT2T);
  rules.set("minLength", spec.rules.minLength);
  rules.set("minSpaceX", spec.rules.minSpaceX);
  rules.set("clipWidth", spec.rules.clipWidth);
  rules.set("clipHeight", spec.rules.clipHeight);
  rules.set("maxCx", spec.rules.maxCx);
  rules.set("maxCy", spec.rules.maxCy);
  m.set("rules", std::move(rules));

  Json tcae = Json::object();
  tcae.set("inputSize", spec.tcae.inputSize);
  tcae.set("latentDim", spec.tcae.latentDim);
  tcae.set("conv1Channels", spec.tcae.conv1Channels);
  tcae.set("conv2Channels", spec.tcae.conv2Channels);
  tcae.set("hidden", spec.tcae.hidden);
  m.set("tcae", std::move(tcae));

  m.set("perturbScale", spec.perturbScale);
  m.set("sourcePoolSize", spec.sourcePoolSize);
  m.set("sensitivity", momentsJson(bundle.sensitivity()));

  if (const core::GuideModel* guide = bundle.guide()) {
    Json g = Json::object();
    g.set("kind", guide->config().kind == core::GuideConfig::Kind::kGan
                      ? "gan"
                      : "vae");
    g.set("zDim", guide->config().zDim);
    g.set("hidden", guide->config().hidden);
    g.set("vaeLatentDim", guide->config().vaeLatentDim);
    g.set("dataMean", momentsJson(guide->dataMoments().mean));
    g.set("dataStd", momentsJson(guide->dataMoments().std));
    g.set("guideMean", momentsJson(guide->guideMoments().mean));
    g.set("guideStd", momentsJson(guide->guideMoments().std));
    m.set("guide", std::move(g));
  } else {
    m.set("guide", Json());
  }
  return m;
}

BundleSpec specFromManifest(const Json& m) {
  if (m.get("format").isString() &&
      m.at("format").asString() != "dp-bundle-1")
    throw std::runtime_error("loadBundle: unsupported format " +
                             m.at("format").asString());
  BundleSpec spec;
  spec.name = m.at("name").asString();
  spec.version = m.at("version").asString();

  const Json& rules = m.at("rules");
  spec.rules.pitch = rules.at("pitch").asDouble();
  spec.rules.minT2T = rules.at("minT2T").asDouble();
  spec.rules.minLength = rules.at("minLength").asDouble();
  spec.rules.minSpaceX = rules.at("minSpaceX").asDouble();
  spec.rules.clipWidth = rules.at("clipWidth").asDouble();
  spec.rules.clipHeight = rules.at("clipHeight").asDouble();
  spec.rules.maxCx = static_cast<int>(rules.at("maxCx").asLong());
  spec.rules.maxCy = static_cast<int>(rules.at("maxCy").asLong());

  const Json& tcae = m.at("tcae");
  spec.tcae.inputSize = static_cast<int>(tcae.at("inputSize").asLong());
  spec.tcae.latentDim = static_cast<int>(tcae.at("latentDim").asLong());
  spec.tcae.conv1Channels =
      static_cast<int>(tcae.at("conv1Channels").asLong());
  spec.tcae.conv2Channels =
      static_cast<int>(tcae.at("conv2Channels").asLong());
  spec.tcae.hidden = static_cast<int>(tcae.at("hidden").asLong());

  spec.perturbScale = m.at("perturbScale").asDouble();
  spec.sourcePoolSize =
      static_cast<int>(m.at("sourcePoolSize").asLong());

  const Json& guide = m.at("guide");
  if (!guide.isNull()) {
    core::GuideConfig gc;
    gc.kind = guide.at("kind").asString() == "gan"
                  ? core::GuideConfig::Kind::kGan
                  : core::GuideConfig::Kind::kVae;
    gc.dataDim = spec.tcae.latentDim;
    gc.zDim = static_cast<int>(guide.at("zDim").asLong());
    gc.hidden = static_cast<int>(guide.at("hidden").asLong());
    gc.vaeLatentDim =
        static_cast<int>(guide.at("vaeLatentDim").asLong());
    spec.guide = gc;
  }
  return spec;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Removes data files from generations other than `keep`, plus legacy
/// unsuffixed files and orphaned atomic-writer temp files. Best-effort:
/// stale files cost disk, never correctness.
void cleanupStaleGenerations(const fs::path& dir, std::uint64_t keep) {
  // Built piecewise: gcc 12's -Wrestrict misfires on
  // "." + std::to_string(...) + ".bin" temporaries.
  std::string keepSuffix = ".";
  keepSuffix += std::to_string(keep);
  keepSuffix += ".bin";
  std::error_code ec;
  std::vector<fs::path> stale;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      stale.push_back(entry.path());  // crashed atomic write
      continue;
    }
    const bool data = name.rfind("tcae.", 0) == 0 ||
                      name.rfind("latents.", 0) == 0 ||
                      name.rfind("guide.", 0) == 0;
    if (!data || name.size() < 4 ||
        name.compare(name.size() - 4, 4, ".bin") != 0)
      continue;
    if (name.size() >= keepSuffix.size() &&
        name.compare(name.size() - keepSuffix.size(), keepSuffix.size(),
                     keepSuffix) == 0)
      continue;
    stale.push_back(entry.path());
  }
  for (const auto& path : stale) fs::remove(path, ec);
}

}  // namespace

Bundle::Bundle(BundleSpec spec, Rng& initRng)
    : spec_(std::move(spec)),
      tcae_(spec_.tcae, initRng),
      fused_(tcae_),
      checker_(drc::TopologyRuleConfig::fromRules(spec_.rules)),
      solver_(spec_.rules),
      geomChecker_(spec_.rules) {
  if (spec_.guide) {
    core::GuideConfig gc = *spec_.guide;
    gc.dataDim = spec_.tcae.latentDim;  // guides act on TCAE latents
    spec_.guide = gc;
    guide_.emplace(gc, initRng);
  }
}

void Bundle::refreshFusedRoute() {
  fused_ = core::FusedDecodeRoute(tcae_);
}

void Bundle::setSensitivity(std::vector<double> sensitivity) {
  if (static_cast<int>(sensitivity.size()) != spec_.tcae.latentDim)
    throw std::invalid_argument(
        "Bundle::setSensitivity: expected one entry per latent node");
  sensitivity_ = std::move(sensitivity);
  perturber_.emplace(sensitivity_, spec_.perturbScale);
}

const core::SensitivityAwarePerturber& Bundle::perturber() const {
  if (!perturber_)
    throw std::logic_error("Bundle: sensitivity not set");
  return *perturber_;
}

void Bundle::setSourceLatents(nn::Tensor latents) {
  if (latents.dim() != 2 || latents.size(1) != spec_.tcae.latentDim)
    throw std::invalid_argument(
        "Bundle::setSourceLatents: expected (pool, latentDim)");
  sourceLatents_ = std::move(latents);
}

void Bundle::save(const std::string& dir) const {
  fs::create_directories(dir);
  const std::string manifestPath = dir + "/manifest.json";

  // Crash-safe publication: data files carry a generation suffix so a
  // new save never overwrites the files the current manifest points
  // at, and the manifest's atomic rename is the single commit point.
  // A crash anywhere before that rename leaves the previous bundle
  // fully loadable; stale generations are swept only after commit.
  std::uint64_t gen = 1;
  if (fs::exists(manifestPath)) {
    try {
      const Json old = Json::parse(readFile(manifestPath));
      if (old.has("generation"))
        gen = old.at("generation").asUint64() + 1;
    } catch (const std::exception&) {
      // Unreadable previous manifest: start a fresh generation line.
    }
  }
  std::string suffix = ".";
  suffix += std::to_string(gen);
  suffix += ".bin";

  // save/load are non-const on the models (they hand out Param
  // pointers); serialization itself only reads.
  auto& self = const_cast<Bundle&>(*this);
  Json files = Json::object();
  const auto record = [&](const std::string& key,
                          const std::string& file) {
    Json f = Json::object();
    f.set("path", file);
    f.set("crc32", static_cast<double>(crc32File(dir + "/" + file)));
    f.set("bytes",
          static_cast<double>(fs::file_size(dir + "/" + file)));
    files.set(key, std::move(f));
  };
  self.tcae_.save(dir + "/tcae" + suffix);
  record("tcae", "tcae" + suffix);
  nn::saveTensor(sourceLatents_, dir + "/latents" + suffix);
  record("latents", "latents" + suffix);
  if (guide_) {
    self.guide_->save(dir + "/guide" + suffix);
    record("guide", "guide" + suffix);
  }

  Json m = manifestJson(*this);
  m.set("generation", static_cast<double>(gen));
  m.set("files", std::move(files));
  AtomicFileWriter out(manifestPath);
  out.append(m.dump());
  out.append("\n");
  (void)out.commit();

  cleanupStaleGenerations(dir, gen);
}

std::shared_ptr<const Bundle> buildBundle(
    const BundleSpec& spec, const BundleBuildConfig& config,
    const std::vector<squish::Topology>& topologies, Rng& rng,
    Metrics* metrics) {
  if (topologies.empty())
    throw std::invalid_argument("buildBundle: empty topology library");
  auto bundle = std::make_shared<Bundle>(spec, rng);
  const models::TrainStats trainStats =
      bundle->tcae().train(topologies, rng, config.tcaeTrain);
  if (metrics) {
    TrainCounters counters;
    counters.steps = static_cast<std::uint64_t>(trainStats.steps);
    counters.rollbacks = static_cast<std::uint64_t>(trainStats.rollbacks);
    counters.nanEvents = static_cast<std::uint64_t>(trainStats.nanEvents);
    counters.checkpointsSaved =
        static_cast<std::uint64_t>(trainStats.checkpointsSaved);
    counters.resumes = trainStats.resumed ? 1 : 0;
    metrics->recordTrain(counters);
  }
  bundle->setSensitivity(core::estimateSensitivity(
      bundle->tcae(), topologies, bundle->checker(), config.sensitivity));
  bundle->setSourceLatents(core::encodeSourceLatents(
      bundle->tcae(), topologies, spec.sourcePoolSize));
  if (core::GuideModel* guide = bundle->guide()) {
    core::FlowConfig collect = config.guideCollect;
    collect.collectGoodVectors = true;
    const core::GenerationResult seedRun = core::tcaeRandom(
        bundle->tcae(), topologies, bundle->perturber(), bundle->checker(),
        collect, rng);
    if (seedRun.goodVectors.empty())
      throw std::runtime_error(
          "buildBundle: collection run produced no legal vectors to train "
          "the guide");
    guide->train(core::vectorsToTensor(seedRun.goodVectors), rng);
  }
  bundle->refreshFusedRoute();
  return bundle;
}

std::shared_ptr<const Bundle> loadBundle(const std::string& dir) {
  static FaultSite loadFault("serve.bundle.load");
  loadFault.orThrow();
  const Json manifest = Json::parse(readFile(dir + "/manifest.json"));
  BundleSpec spec = specFromManifest(manifest);
  Rng initRng(0);  // architecture init only; load overwrites weights
  auto bundle = std::make_shared<Bundle>(std::move(spec), initRng);

  // Resolves a data file through the manifest's "files" map, verifying
  // byte size and CRC-32 before anything is deserialized. Manifests
  // written before the generation scheme have no "files" map and fall
  // back to fixed names without checksums.
  const auto dataPath = [&](const std::string& key,
                            const std::string& legacy) {
    if (!manifest.has("files")) return dir + "/" + legacy;
    const Json& f = manifest.at("files").at(key);
    const std::string path = dir + "/" + f.at("path").asString();
    const std::uint64_t bytes = f.at("bytes").asUint64();
    const auto want = static_cast<std::uint32_t>(f.at("crc32").asUint64());
    std::error_code ec;
    const std::uint64_t actual = fs::file_size(path, ec);
    if (ec || actual != bytes)
      throw std::runtime_error(
          "loadBundle: " + path + ": size mismatch (manifest says " +
          std::to_string(bytes) + " bytes, file has " +
          (ec ? "none" : std::to_string(actual)) + ")");
    if (crc32File(path) != want)
      throw std::runtime_error("loadBundle: " + path +
                               ": checksum mismatch (corrupt bundle)");
    return path;
  };

  std::vector<double> sensitivity =
      momentsFromJson(manifest.at("sensitivity"));
  bundle->setSensitivity(std::move(sensitivity));
  bundle->tcae().load(dataPath("tcae", "tcae.bin"));
  bundle->setSourceLatents(
      nn::loadTensor(dataPath("latents", "latents.bin")));
  if (core::GuideModel* guide = bundle->guide()) {
    guide->load(dataPath("guide", "guide.bin"));
    const Json& g = manifest.at("guide");
    core::Moments data;
    data.mean = momentsFromJson(g.at("dataMean"));
    data.std = momentsFromJson(g.at("dataStd"));
    core::Moments guideMoments;
    guideMoments.mean = momentsFromJson(g.at("guideMean"));
    guideMoments.std = momentsFromJson(g.at("guideStd"));
    guide->setMoments(std::move(data), std::move(guideMoments));
  }
  bundle->refreshFusedRoute();
  return bundle;
}

void BundleRegistry::add(std::shared_ptr<const Bundle> bundle) {
  if (!bundle) throw std::invalid_argument("BundleRegistry: null bundle");
  LockGuard lock(mutex_);
  for (auto& existing : bundles_)
    if (existing->name() == bundle->name()) {
      existing = std::move(bundle);  // replace: latest version wins
      return;
    }
  bundles_.push_back(std::move(bundle));
}

std::shared_ptr<const Bundle> BundleRegistry::find(
    const std::string& name) const {
  LockGuard lock(mutex_);
  for (const auto& bundle : bundles_)
    if (bundle->name() == name) return bundle;
  return nullptr;
}

std::vector<std::shared_ptr<const Bundle>> BundleRegistry::list() const {
  LockGuard lock(mutex_);
  return bundles_;
}

int BundleRegistry::loadDirectory(const std::string& root,
                                  std::vector<std::string>* errors) {
  std::vector<fs::path> dirs;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_directory()) continue;
    if (!fs::exists(entry.path() / "manifest.json")) continue;
    dirs.push_back(entry.path());
  }
  std::sort(dirs.begin(), dirs.end());  // deterministic load order

  int loaded = 0;
  for (const auto& dir : dirs) {
    try {
      add(loadBundle(dir.string()));
      ++loaded;
    } catch (const std::exception& e) {
      // A corrupt bundle directory is skipped, not fatal: an already
      // registered last-good bundle of the same name keeps serving.
      if (errors) errors->push_back(dir.string() + ": " + e.what());
    }
  }
  return loaded;
}

}  // namespace dp::serve
