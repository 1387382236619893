// Workload "train": the training that serve::buildBundle runs. Every
// cycle trains, per fixed initialization, a fresh TCAE on batches from
// the run seed with disk checkpoints on a coarse grid and a G-TCAE
// MLP-GAN guide on the good vectors that the fixed weights produced
// during set-up, then times a block of single Tcae::trainStep calls on
// the fixed weights. Training is most of every paper experiment's
// wall time, and this is the only workload where nn, the tensor GEMM,
// Adam and train checkpointing carry the load.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>

#include "core/flows.hpp"
#include "core/guide.hpp"
#include "fixture.hpp"
#include "models/batch.hpp"
#include "models/topology_codec.hpp"
#include "nn/optimizer.hpp"
#include "train/checkpoint.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr long kTcaeRoundSteps = 100;
constexpr long kCheckpointEvery = 50;  ///< coarse grid: 2 per round
constexpr long kGuideRoundSteps = 300;
constexpr long kCollectSamples = 10000;
constexpr double kNever = std::numeric_limits<double>::infinity();
/// Model initializations every cycle trains. Step speed depends
/// on the initialization (some produce denormal floats, see CHANGES.md),
/// so every run trains the same fixed mix; --seed drives the batches.
constexpr std::uint64_t kInitSeeds[] = {1, 2, 3, 4};
constexpr std::size_t kInits = std::size(kInitSeeds);
/// trainStep calls per cycle, and per block of latency_p50_ms.
constexpr std::size_t kCycleSteps = 50;
constexpr std::size_t kStepBlock = 25;

struct TrainSetup {
  Library lib;
  std::shared_ptr<dp::serve::Bundle> fixed;
  dp::nn::Tensor goodVectors;
  double unique = 0.0;
  double diversity = 0.0;
};

TrainSetup setup(const RunConfig& cfg) {
  TrainSetup s;
  s.lib = makeLibrary();
  s.fixed = fixedBundle(s.lib, cfg.assetDir);
  // Good-vector collection, as buildBundle runs it before guide
  // training, but on the fixed weights.
  dp::core::FlowConfig collect;
  collect.count = kCollectSamples;
  collect.collectGoodVectors = true;
  dp::Rng rng(cfg.seed);
  const dp::core::GenerationResult seedRun = dp::core::tcaeRandom(
      s.fixed->tcae(), s.lib.topologies, s.fixed->perturber(),
      s.fixed->checker(), collect, rng);
  s.goodVectors = dp::core::vectorsToTensor(seedRun.goodVectors);
  std::map<std::pair<int, int>, long> hist;
  for (const dp::squish::Topology& t : seedRun.unique.patterns())
    ++hist[{t.cols(), t.rows()}];
  s.unique = static_cast<double>(seedRun.unique.size());
  s.diversity = entropyBits(hist);
  return s;
}

bool bitEqual(const dp::nn::Tensor& a, const dp::nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

}  // namespace

void runTrain(const RunConfig& cfg, Report& report, Trace& trace,
              int setupReps) {
  const TrainSetup s =
      timedSetup(setupReps, report, [&] { return setup(cfg); });
  report.check(s.goodVectors.dim() == 2 && s.goodVectors.size(0) > 0,
               "train: set-up collected no good vectors");

  PhaseClock phases;
  dp::models::TcaeConfig tc = tcaeConfig();
  tc.trainSteps = kTcaeRoundSteps;

  // The single steps continue the fixed weights with a fresh optimizer:
  // their step time does not depend on --seed (a model trained from the
  // run seed steps 1.5x faster or slower from seed to seed, see
  // CHANGES.md).
  const dp::nn::Tensor dataset =
      dp::models::encodeTopologies(s.lib.topologies, tc.inputSize);
  dp::Rng replicaRng(0);
  dp::models::Tcae stepModel(tc, replicaRng);
  loadWeights(stepModel, weightsPath(cfg.assetDir));
  dp::nn::Adam opt(stepModel.params(), tc.initialLr);
  dp::Rng stepRng(cfg.seed ^ 0x57e9ULL);

  // Whole cycles until --seconds has passed. A cycle runs, per fixed
  // initialization, one TCAE round (checkpointed) and one guide round,
  // then kCycleSteps single trainStep calls. Interleaving spreads the
  // rounds of every figure over the whole run, and since machine steal
  // only adds time, each rate is a cycle's steps over the sum of each
  // initialization's fastest round.
  std::vector<double> tcaeBest(kInits, kNever), guideBest(kInits, kNever);
  std::vector<double> stepMs;
  long cycleSteps = 0;
  std::unique_ptr<dp::models::Tcae> last;
  dp::models::TrainStats lastStats;
  std::string lastDir;
  long tcaeSteps = 0, guideSteps = 0, rollbacks = 0, nanEvents = 0,
       checkpoints = 0;
  bool drawsFinite = true;
  int round = 0;
  phases.begin();
  const Trace::Token run = trace.begin();
  const Clock::time_point start = Clock::now();
  for (int cycle = 0; cycle == 0 || secondsSince(start) < cfg.seconds;
       ++cycle) {
    cycleSteps = 0;
    for (std::size_t k = 0; k < kInits; ++k) {
      const std::string dir = cfg.outDir + "/ckpt-" + std::to_string(round++);
      std::filesystem::remove_all(dir);
      Clock::time_point roundStart = Clock::now();
      dp::Rng initRng(kInitSeeds[k]);
      dp::Rng rng(cfg.seed);
      Trace::Token span = trace.begin();
      auto tcae = std::make_unique<dp::models::Tcae>(tc, initRng);
      dp::train::TrainOptions opts;
      opts.checkpointDir = dir;
      opts.checkpointEvery = kCheckpointEvery;
      opts.traceEvery = 10;
      lastStats = tcae->train(s.lib.topologies, rng, opts);
      trace.end(span, "train.tcae_round", run.id);
      tcaeBest[k] = std::min(tcaeBest[k], secondsSince(roundStart));
      cycleSteps += lastStats.steps;
      rollbacks += lastStats.rollbacks;
      nanEvents += lastStats.nanEvents;
      checkpoints += lastStats.checkpointsSaved;
      if (!lastDir.empty()) std::filesystem::remove_all(lastDir);
      lastDir = dir;
      last = std::move(tcae);

      roundStart = Clock::now();
      dp::Rng guideInit(kInitSeeds[k]);
      dp::Rng guideRng(cfg.seed ^ 0x9e11deULL);
      dp::core::GuideConfig gc;
      gc.dataDim = tc.latentDim;
      gc.gan.trainSteps = kGuideRoundSteps;
      span = trace.begin();
      dp::core::GuideModel guide(gc, guideInit);
      guide.train(s.goodVectors, guideRng);
      trace.end(span, "train.guide_round", run.id);
      guideBest[k] = std::min(guideBest[k], secondsSince(roundStart));
      guideSteps += kGuideRoundSteps;
      const dp::nn::Tensor draws = guide.sample(256, guideRng);
      for (std::size_t i = 0; i < draws.numel(); ++i)
        drawsFinite = drawsFinite && std::isfinite(draws[i]);
    }
    tcaeSteps += cycleSteps;
    // A step takes milliseconds, far above timer resolution, so each
    // one is timed on its own.
    for (std::size_t i = 0; i < kCycleSteps; ++i) {
      const auto idx =
          dp::models::sampleIndices(dataset.size(0), tc.batchSize, stepRng);
      const dp::nn::Tensor batch = dp::models::gatherRows(dataset, idx);
      const Clock::time_point t0 = Clock::now();
      const Trace::Token span = trace.begin();
      (void)stepModel.trainStep(batch, opt);
      trace.end(span, "train.step", run.id);
      stepMs.push_back(1e3 * secondsSince(t0));
    }
  }
  trace.end(run, "train.run");
  phases.end();

  // The last checkpoint of the last round must reload bit for bit into
  // a replica.
  {
    dp::Rng initRng(0);
    dp::models::Tcae replica(tc, initRng);
    dp::nn::Adam replicaOpt(replica.params(), tc.initialLr);
    std::vector<dp::nn::Tensor*> tensors;
    for (dp::nn::Param* p : replica.params()) tensors.push_back(&p->value);
    for (dp::nn::Tensor* t : replicaOpt.state()) tensors.push_back(t);
    const auto record = dp::train::loadCheckpoint(
        lastDir, replica.configHash(s.lib.topologies.size()), tensors);
    bool equal = record && record->step == kTcaeRoundSteps;
    const std::vector<dp::nn::Param*> live = last->params();
    const std::vector<dp::nn::Param*> loaded = replica.params();
    for (std::size_t i = 0; equal && i < live.size(); ++i)
      equal = bitEqual(live[i]->value, loaded[i]->value);
    report.check(equal,
                 "train: last checkpoint does not reload bit for bit");
  }

  // Checks. The loss must fall well below its first recorded value.
  const std::vector<double>& losses = lastStats.lossEvery100;
  report.check(losses.size() >= 2 && losses.back() < 0.5 * losses.front(),
               "train: loss did not fall below half its first value");
  report.check(drawsFinite, "train: guide draws are not all finite");

  CommonFigures f;
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  f.throughput = static_cast<double>(cycleSteps) / sum(tcaeBest);
  f.auxThroughput =
      static_cast<double>(kGuideRoundSteps * kInits) / sum(guideBest);
  f.latenciesMs = stepMs;
  f.latencyBlock = kStepBlock;
  f.uniquePatterns = s.unique;
  f.diversityBits = s.diversity;
  reportCommon(f, phases, report);

  report.attempted +=
      tcaeSteps + guideSteps + static_cast<long>(stepMs.size());
  report.failed += rollbacks + nanEvents;
  report.note("train_steps_per_s", f.throughput, "steps/s");
  report.note("guide_steps_per_s", f.auxThroughput, "steps/s");
  report.note("train.checkpoints", static_cast<double>(checkpoints), "count");
  report.note("train.rollbacks", static_cast<double>(rollbacks), "count");
}

}  // namespace perfbench
