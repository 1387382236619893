// Workload "generate": the paper's generation chain on the fixed
// weights, in cycles of three parts — pipeline::runMassive streams
// TCAE-Random samples into a fresh store (fused decode, packed
// assessment, dedup, store), core::tcaeRandom runs the float decode and
// byte assessment the paper harnesses use, and core::materialize solves
// Eq. 10 for stored unique patterns in requests of kClipsPerCall.
// Decode, dedup, the store and lp carry the load here and almost none in
// "train"; the float flow beside the fused pipeline shows a change to
// one decode route that costs the other.

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "core/flows.hpp"
#include "core/pipeline.hpp"
#include "drc/packed_rules.hpp"
#include "fixture.hpp"
#include "pipeline/massive.hpp"
#include "pipeline/packed.hpp"
#include "pipeline/pattern_store.hpp"
#include "squish/canonical.hpp"
#include "squish/extract.hpp"
#include "squish/hash.hpp"
#include "squish/packed_topo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr long kMassiveSamples = 131072;  ///< per runMassive round
constexpr long kFlowSamples = 16384;      ///< per float-flow round
constexpr long kMaterializePatterns = 1024;
constexpr long kClipsPerCall = 16;
constexpr int kMaterializePasses = 64;  ///< per cycle
constexpr int kLegalitySample = 512;

struct GenerateSetup {
  Library lib;
  std::shared_ptr<dp::serve::Bundle> bundle;
};

/// Reads every record of a finished store back and checks it against
/// the pipeline's own summary with code apart from the path under test.
void checkStore(const std::string& dir, const dp::pipeline::MassiveResult& r,
                const dp::serve::Bundle& bundle, std::uint64_t seed,
                Report& report) {
  const auto manifest = dp::pipeline::loadManifest(dir);
  report.check(manifest.has_value(), "generate: store has no manifest");
  if (!manifest) return;
  std::set<std::uint64_t> hashes;
  std::map<std::pair<int, int>, long> hist;
  std::vector<std::pair<std::uint64_t, dp::pipeline::PackedPattern>> records;
  long count = 0;
  for (const dp::pipeline::SegmentInfo& seg : manifest->segments) {
    const dp::pipeline::SegmentReader reader(dir, seg);
    reader.forEach([&](std::uint64_t hash,
                       const dp::pipeline::PackedPattern& p) {
      ++count;
      hashes.insert(hash);
      ++hist[{p.cx(), p.cy()}];
      records.emplace_back(hash, p);
    });
  }
  report.check(static_cast<std::uint64_t>(count) == r.unique,
               "generate: store record count differs from gen_unique");
  report.check(hashes.size() == static_cast<std::size_t>(count),
               "generate: store holds duplicate hashes");
  const double h = entropyBits(hist);
  report.check(std::abs(h - r.diversity) <= 1e-9 * std::max(1.0, h),
               "generate: recomputed H differs from the pipeline's");
  // A seeded sample must be legal under both the byte-Topology checker
  // and the packed rules, and hash to its stored key.
  dp::Rng pick(seed ^ 0x5a3bULL);
  for (int i = 0; i < kLegalitySample && !records.empty(); ++i) {
    const auto& [hash, packed] = records[static_cast<std::size_t>(
        pick.uniformInt(0, static_cast<int>(records.size()) - 1))];
    const dp::squish::Topology t = dp::pipeline::unpack(packed);
    std::uint32_t masks[dp::squish::kMaxMaskCols] = {};
    dp::squish::topologyToMasks(t, masks);
    const bool ok =
        bundle.checker().isLegal(t) &&
        dp::drc::isLegalCanonicalMasks(bundle.checker().config(), masks,
                                       t.rows(), t.cols()) &&
        dp::squish::hashTopology(t) == hash;
    if (!ok) {
      report.check(false, "generate: stored pattern fails legality or hash");
      break;
    }
  }
}

}  // namespace

void runGenerate(const RunConfig& cfg, Report& report, Trace& trace,
                 int setupReps) {
  double sensitivitySeconds = 0.0;
  const GenerateSetup s = timedSetup(setupReps, report, [&] {
    GenerateSetup g;
    g.lib = makeLibrary();
    g.bundle = fixedBundle(g.lib, cfg.assetDir, &sensitivitySeconds);
    return g;
  });
  const dp::serve::Bundle& b = *s.bundle;
  PhaseClock phases;

  // Whole cycles until --seconds has passed. A cycle runs one
  // runMassive round into a fresh store, one float-flow round and
  // kMaterializePasses passes of Eq. 10 calls over the stored patterns.
  // Every round sees the same inputs, so every round must produce the
  // same store. Interleaving spreads the rounds of every figure over the
  // whole run, and since machine steal only adds time, each rate is the
  // fastest round's.
  double massiveRate = 0.0, flowRate = 0.0;
  dp::pipeline::MassiveResult first;
  const std::string storeDir = cfg.outDir + "/store";
  std::vector<dp::core::PatternLibrary> calls;
  std::vector<double> callMs;
  long samples = 0, lpAttempted = 0, lpSolved = 0, drcClean = 0;
  double materializeSeconds = 0.0;
  bool clipsOk = true;
  phases.begin();
  const Trace::Token run = trace.begin();
  const Clock::time_point start = Clock::now();
  for (int cycle = 0; cycle == 0 || secondsSince(start) < cfg.seconds;
       ++cycle) {
    std::filesystem::remove_all(storeDir);
    dp::pipeline::MassiveConfig mc;
    mc.dir = storeDir;
    mc.count = kMassiveSamples;
    mc.seed = cfg.seed;
    Clock::time_point t0 = Clock::now();
    Trace::Token span = trace.begin();
    const dp::pipeline::MassiveResult r = dp::pipeline::runMassive(
        b.tcae(), b.sourceLatents(), b.perturber(), b.checker(), mc);
    trace.end(span, "generate.massive_round", run.id);
    massiveRate = std::max(massiveRate, static_cast<double>(r.generated) /
                                            secondsSince(t0));
    samples += r.generated;
    if (cycle == 0) {
      first = r;
      // Eq. 10 requests of kClipsPerCall over the first
      // kMaterializePatterns stored patterns (untimed).
      phases.end();
      const std::vector<dp::squish::Topology> stored =
          dp::pipeline::loadLibrary(storeDir, kMaterializePatterns)
              .patterns();
      report.check(!stored.empty(),
                   "generate: nothing stored to materialize");
      for (std::size_t i = 0; i < stored.size(); i += kClipsPerCall) {
        dp::core::PatternLibrary lib;
        const std::size_t end = std::min(stored.size(), i + kClipsPerCall);
        for (std::size_t j = i; j < end; ++j) lib.add(stored[j]);
        calls.push_back(std::move(lib));
      }
      phases.begin();
    } else {
      report.check(r.unique == first.unique && r.legal == first.legal,
                   "generate: runMassive rounds disagree");
    }

    dp::core::FlowConfig fc;
    fc.count = kFlowSamples;
    dp::Rng flowRng(cfg.seed);
    t0 = Clock::now();
    span = trace.begin();
    const dp::core::GenerationResult flow = dp::core::tcaeRandom(
        b.tcae(), s.lib.topologies, b.perturber(), b.checker(), fc, flowRng);
    trace.end(span, "generate.flow_round", run.id);
    flowRate = std::max(flowRate, static_cast<double>(flow.generated) /
                                      secondsSince(t0));
    samples += flow.generated;

    // Whole passes over the call list keep every run's mix identical.
    for (int pass = 0; pass < kMaterializePasses; ++pass) {
      for (std::size_t c = 0; c < calls.size(); ++c) {
        dp::Rng rng(cfg.seed ^ c);
        t0 = Clock::now();
        span = trace.begin();
        const dp::core::MaterializeResult m = dp::core::materialize(
            calls[c], b.solver(), b.geomChecker(), rng);
        trace.end(span, "generate.materialize_call", run.id);
        const double seconds = secondsSince(t0);
        callMs.push_back(1e3 * seconds);
        materializeSeconds += seconds;
        lpAttempted += m.attempted;
        lpSolved += m.solved;
        drcClean += m.drcClean;
        if (cycle > 0 || pass > 0) continue;
        // Every clip of the first pass must pass geometry DRC and
        // re-extract to a topology of its request.
        for (const dp::Clip& clip : m.clips) {
          const dp::squish::Topology back =
              dp::squish::canonicalize(dp::squish::extract(clip).topo);
          clipsOk = clipsOk && b.geomChecker().isClean(clip) &&
                    calls[c].contains(back);
        }
      }
    }
  }
  trace.end(run, "generate.run");
  phases.end();
  checkStore(storeDir, first, b, cfg.seed, report);
  report.check(clipsOk, "generate: a materialized clip fails geometry DRC "
                        "or does not re-extract to its source topology");

  CommonFigures f;
  f.throughput = massiveRate;
  f.auxThroughput = flowRate;
  f.latenciesMs = callMs;
  f.latencyBlock = calls.size();  // one pass over the call list
  f.uniquePatterns = static_cast<double>(first.unique);
  f.diversityBits = first.diversity;
  reportCommon(f, phases, report);

  report.attempted += samples + lpAttempted;
  // Infeasible Eq. 10 systems and solved clips failing geometry DRC.
  report.failed += (lpAttempted - lpSolved) + (lpSolved - drcClean);
  report.note("gen_samples_per_s", f.throughput, "samples/s");
  report.note("flow_samples_per_s", f.auxThroughput, "samples/s");
  report.note("materialize_clips_per_s",
              materializeSeconds > 0 ? drcClean / materializeSeconds : 0.0,
              "clips/s");
  report.note("gen_legal", static_cast<double>(first.legal), "samples");
  for (const auto& [stage, st] : first.stages)
    report.note("pipeline." + stage + "_s", st.seconds, "s");
  report.note("core.sensitivity_s", sensitivitySeconds, "s");
}

}  // namespace perfbench
