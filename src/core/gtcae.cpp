#include "core/gtcae.hpp"

#include "core/guide.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <cmath>
#include <map>

#include "core/fused_generate.hpp"
#include "models/batch.hpp"
#include "models/topology_codec.hpp"
#include "squish/complexity.hpp"
#include "squish/pad.hpp"

namespace dp::core {

namespace {

[[nodiscard]] core::GuideConfig guideConfigFor(int dataDim,
                                               const GtcaeConfig& config) {
  GuideConfig gc;
  gc.kind = config.guide == GtcaeConfig::Guide::kGan
                ? GuideConfig::Kind::kGan
                : GuideConfig::Kind::kVae;
  gc.dataDim = dataDim;
  gc.zDim = config.ganZDim;
  gc.hidden = config.ganHidden;
  gc.gan = config.gan;
  gc.vaeLatentDim = config.vaeLatentDim;
  gc.vaeTrainSteps = config.vaeTrainSteps;
  return gc;
}

/// Decode-and-account loop shared by both G-TCAE flows. Guide sampling
/// stays serial (it consumes `rng`); the fused decode and the packed
/// legality accounting run sample-parallel.
GenerationResult runGeneration(const models::Tcae& tcae,
                               const nn::Tensor* sourceLatents,
                               const GuideModel& guide,
                               const drc::TopologyChecker& checker,
                               const FlowConfig& flow, Rng& rng) {
  const FusedDecodeRoute route(tcae);
  GenerationResult result;
  std::vector<std::uint32_t> masks;
  long remaining = flow.count;
  while (remaining > 0) {
    const int b =
        static_cast<int>(std::min<long>(remaining, flow.batchSize));
    nn::Tensor latents = guide.sample(b, rng);
    if (sourceLatents) {
      const auto idx =
          models::sampleIndices(sourceLatents->size(0), b, rng);
      latents += models::gatherRows(*sourceLatents, idx);
    }
    route.decodeMasks(latents, masks);
    accountMaskBatch(masks.data(), b, route.topologySize(), checker,
                     result);
    remaining -= b;
  }
  return result;
}

}  // namespace

GenerationResult gtcaeMassive(const models::Tcae& tcae,
                              const std::vector<squish::Topology>& existing,
                              const nn::Tensor& goodPerturbations,
                              const drc::TopologyChecker& checker,
                              const GtcaeConfig& config, Rng& rng) {
  if (existing.empty())
    throw std::invalid_argument("gtcaeMassive: empty existing library");
  if (goodPerturbations.dim() != 2 || goodPerturbations.size(0) == 0)
    throw std::invalid_argument(
        "gtcaeMassive: need (N,D) perturbation vectors");

  const int pool = std::min<int>(static_cast<int>(existing.size()),
                                 config.flow.sourcePoolSize);
  const std::vector<squish::Topology> sources(existing.begin(),
                                              existing.begin() + pool);
  const nn::Tensor sourceLatents = tcae.encode(
      models::encodeTopologies(sources, tcae.config().inputSize));

  GuideModel guide(guideConfigFor(goodPerturbations.size(1), config), rng);
  guide.train(goodPerturbations, rng);
  return runGeneration(tcae, &sourceLatents, guide, checker, config.flow,
                       rng);
}

std::vector<ContextGroupResult> gtcaeContextSpecific(
    const models::Tcae& tcae,
    const std::vector<squish::Topology>& existing,
    const drc::TopologyChecker& checker,
    const std::vector<ContextBand>& bands, const GtcaeConfig& config,
    Rng& rng) {
  if (existing.empty())
    throw std::invalid_argument("gtcaeContextSpecific: empty library");
  const nn::Tensor latents = tcae.encode(
      models::encodeTopologies(existing, tcae.config().inputSize));

  std::vector<ContextGroupResult> results;
  for (const ContextBand& band : bands) {
    std::vector<int> members;
    for (std::size_t i = 0; i < existing.size(); ++i) {
      // Band membership uses the same identity convention as generated
      // patterns: trailing zero margins stripped.
      const auto c = squish::complexityOf(squish::unpad(existing[i]));
      if (c.cx >= band.minCx && c.cx <= band.maxCx)
        members.push_back(static_cast<int>(i));
    }
    ContextGroupResult group;
    group.band = band;
    group.trainingCount = static_cast<long>(members.size());
    if (members.size() >= 2) {
      const nn::Tensor bandLatents = models::gatherRows(latents, members);
      GuideModel guide(guideConfigFor(bandLatents.size(1), config), rng);
      guide.train(bandLatents, rng);
      // Context mode: the recognition unit is discarded; the guide
      // produces pure latent vectors for the generation unit.
      group.result = runGeneration(tcae, nullptr, guide, checker,
                                   config.flow, rng);
      group.avgCx = group.result.unique.meanCx();
      group.avgCy = group.result.unique.meanCy();
    }
    results.push_back(std::move(group));
  }
  return results;
}

std::vector<ContextBand> contextBandsByQuantiles(
    const std::vector<squish::Topology>& existing) {
  if (existing.empty())
    throw std::invalid_argument("contextBandsByQuantiles: empty library");
  std::map<int, long> counts;
  for (const auto& t : existing)
    ++counts[squish::complexityOf(squish::unpad(t)).cx];
  const long n = static_cast<long>(existing.size());
  const int minCx = counts.begin()->first;
  const int maxCx = counts.rbegin()->first;

  // Tercile cuts over the distinct-value histogram.
  int t1 = minCx, t2 = minCx;
  long cum = 0;
  bool haveT1 = false, haveT2 = false;
  for (const auto& [v, c] : counts) {
    cum += c;
    if (!haveT1 && 3 * cum >= n) {
      t1 = v;
      haveT1 = true;
    }
    if (!haveT2 && 3 * cum >= 2 * n) {
      t2 = v;
      haveT2 = true;
    }
  }
  // Libraries concentrated at the top (the paper's case: most patterns
  // at cx 11-12) push both cuts onto the maximum; back them off onto
  // the previous distinct values so every band keeps mass.
  auto prevDistinct = [&](int v) {
    auto it = counts.lower_bound(v);
    return it == counts.begin() ? v : std::prev(it)->first;
  };
  if (t2 >= maxCx) t2 = prevDistinct(maxCx);
  if (t1 >= t2) t1 = prevDistinct(t2);
  return {
      ContextBand{"low-cx", minCx, t1},
      ContextBand{"med-cx", t1 + 1, t2},
      ContextBand{"high-cx", t2 + 1, maxCx},
  };
}

std::vector<ContextBand> defaultContextBands(int minCx, int maxCx) {
  const int span = std::max(1, maxCx - minCx + 1);
  const int lowEnd = minCx + span / 3 - 1;
  const int medEnd = minCx + 2 * span / 3 - 1;
  return {
      ContextBand{"low-cx", minCx, std::max(minCx, lowEnd)},
      ContextBand{"med-cx", std::max(minCx, lowEnd) + 1,
                  std::max(minCx, medEnd)},
      ContextBand{"high-cx", std::max(minCx, medEnd) + 1, maxCx},
  };
}

}  // namespace dp::core
