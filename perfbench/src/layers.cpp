// Per-layer probes: the benchmark times calls into each module's public
// functions on fixed inputs (the fixed weights, the directprint1
// library, seeded latents), so the figures come from the benchmark's
// own files and need no instrumentation inside the program. Which
// end-to-end metric each figure should move is mapped in README.md.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/flows.hpp"
#include "core/fused_generate.hpp"
#include "core/pipeline.hpp"
#include "drc/packed_rules.hpp"
#include "fixture.hpp"
#include "http_client.hpp"
#include "models/topology_codec.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/reshape.hpp"
#include "nn/sequential.hpp"
#include "pipeline/massive.hpp"
#include "pipeline/pattern_store.hpp"
#include "pipeline/sharded_set.hpp"
#include "serve_common.hpp"
#include "squish/packed_topo.hpp"
#include "squish/reconstruct.hpp"
#include "tensor/gemm.hpp"
#include "train/checkpoint.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dp::nn::Tensor;

double msSince(Clock::time_point t0) { return 1e3 * secondsSince(t0); }

/// Median wall milliseconds of `reps` calls of fn().
template <typename Fn>
double medianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(msSince(t0));
  }
  return median(ms);
}

Tensor randomLatents(int n, int dim, dp::Rng& rng) {
  Tensor t({n, dim});
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.gaussian());
  return t;
}

/// GEMM at the per-sample shapes of the TCAE convolutions (forward
/// im2col products of both convs and both transposed convs).
void probeGemm(Report& report) {
  struct Shape {
    int m, n, k;
  };
  const Shape shapes[] = {
      {8, 144, 9}, {16, 36, 72}, {128, 36, 16}, {16, 144, 8}};
  std::vector<std::vector<float>> a, b, c;
  double flopsPerPass = 0.0;
  dp::Rng rng(11);
  for (const Shape& s : shapes) {
    a.emplace_back(static_cast<std::size_t>(s.m * s.k));
    b.emplace_back(static_cast<std::size_t>(s.k * s.n));
    c.emplace_back(static_cast<std::size_t>(s.m * s.n));
    for (float& v : a.back()) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : b.back()) v = static_cast<float>(rng.uniform(-1, 1));
    flopsPerPass += 64.0 * 2.0 * s.m * s.n * s.k;  // one batch of 64
  }
  const double ms = medianMs(21, [&] {
    for (int rep = 0; rep < 64; ++rep)
      for (std::size_t i = 0; i < std::size(shapes); ++i) {
        const Shape& s = shapes[i];
        dp::nn::gemm(false, false, s.m, s.n, s.k, 1.0f, a[i].data(), s.k,
                     b[i].data(), s.n, 0.0f, c[i].data(), s.n);
      }
  });
  report.layer("tensor.gemm.gflops", flopsPerPass / (ms * 1e6), "GFLOP/s");
}

/// Forward/backward per layer kind on a replica of the TCAE stack and
/// of the MLP-GAN generator, driven layer by layer.
void probeNn(const Library& lib, Report& report) {
  dp::Rng rng(12);
  const dp::models::TcaeConfig tc = tcaeConfig();
  const int s4 = tc.inputSize / 4;
  const int flat = tc.conv2Channels * s4 * s4;
  dp::nn::Sequential tcae;
  tcae.emplace<dp::nn::Conv2d>(1, tc.conv1Channels, 3, 2, 1, rng);
  tcae.emplace<dp::nn::ReLU>();
  tcae.emplace<dp::nn::Conv2d>(tc.conv1Channels, tc.conv2Channels, 3, 2, 1,
                               rng);
  tcae.emplace<dp::nn::ReLU>();
  tcae.emplace<dp::nn::Flatten>();
  tcae.emplace<dp::nn::Linear>(flat, tc.hidden, rng);
  tcae.emplace<dp::nn::ReLU>();
  tcae.emplace<dp::nn::Linear>(tc.hidden, tc.latentDim, rng);
  tcae.emplace<dp::nn::Linear>(tc.latentDim, tc.hidden, rng);
  tcae.emplace<dp::nn::ReLU>();
  tcae.emplace<dp::nn::Linear>(tc.hidden, flat, rng);
  tcae.emplace<dp::nn::ReLU>();
  tcae.emplace<dp::nn::Reshape>(tc.conv2Channels, s4, s4);
  tcae.emplace<dp::nn::ConvTranspose2d>(tc.conv2Channels, tc.conv1Channels, 4,
                                        2, 1, rng);
  tcae.emplace<dp::nn::ReLU>();
  tcae.emplace<dp::nn::ConvTranspose2d>(tc.conv1Channels, 1, 4, 2, 1, rng);
  tcae.emplace<dp::nn::Sigmoid>();

  const std::vector<dp::squish::Topology> batchTopos(
      lib.topologies.begin(),
      lib.topologies.begin() +
          std::min<std::size_t>(64, lib.topologies.size()));
  const Tensor input = dp::models::encodeTopologies(batchTopos, tc.inputSize);
  dp::nn::Adam adam(tcae.params(), tc.initialLr);

  // kind -> per-rep milliseconds
  std::map<std::string, std::vector<double>> fwd, bwd;
  std::vector<double> adamMs;
  const auto kindOf = [](const std::string& name) {
    return name == "conv2d" || name == "conv_transpose2d" || name == "linear"
               ? name
               : std::string("elementwise");
  };
  for (int rep = 0; rep < 15; ++rep) {
    std::map<std::string, double> f, b;
    adam.zeroGrad();
    Tensor x = input;
    for (std::size_t i = 0; i < tcae.layerCount(); ++i) {
      const Clock::time_point t0 = Clock::now();
      x = tcae.layer(i).forward(x, true);
      f[kindOf(tcae.layer(i).name())] += msSince(t0);
    }
    Tensor grad;
    (void)dp::nn::mseLoss(x, input, grad);
    for (std::size_t i = tcae.layerCount(); i-- > 0;) {
      const Clock::time_point t0 = Clock::now();
      grad = tcae.layer(i).backward(grad);
      b[kindOf(tcae.layer(i).name())] += msSince(t0);
    }
    const Clock::time_point t0 = Clock::now();
    adam.step();
    adamMs.push_back(msSince(t0));
    for (const auto& [k, v] : f) fwd[k].push_back(v);
    for (const auto& [k, v] : b) bwd[k].push_back(v);
  }
  report.layer("nn.conv2d.fwd_ms", median(fwd["conv2d"]), "ms");
  report.layer("nn.conv2d.bwd_ms", median(bwd["conv2d"]), "ms");
  report.layer("nn.conv_transpose2d.fwd_ms", median(fwd["conv_transpose2d"]),
               "ms");
  report.layer("nn.conv_transpose2d.bwd_ms", median(bwd["conv_transpose2d"]),
               "ms");
  std::vector<double> elementwise;
  for (std::size_t i = 0; i < fwd["elementwise"].size(); ++i)
    elementwise.push_back(fwd["elementwise"][i] + bwd["elementwise"][i]);
  report.layer("nn.elementwise_ms", median(elementwise), "ms");
  report.layer("nn.adam.step_ms", median(adamMs), "ms");

  // The guide's MLP-GAN generator (Linear + BatchNorm1d + LeakyReLU).
  dp::nn::Sequential gen;
  gen.emplace<dp::nn::Linear>(16, 64, rng);
  gen.emplace<dp::nn::BatchNorm1d>(64);
  gen.emplace<dp::nn::LeakyReLU>(0.2f);
  gen.emplace<dp::nn::Linear>(64, 64, rng);
  gen.emplace<dp::nn::BatchNorm1d>(64);
  gen.emplace<dp::nn::LeakyReLU>(0.2f);
  gen.emplace<dp::nn::Linear>(64, 32, rng);
  const Tensor z = randomLatents(64, 16, rng);
  std::map<std::string, std::vector<double>> gf, gb;
  for (int rep = 0; rep < 101; ++rep) {
    std::map<std::string, double> f, b;
    Tensor x = z;
    for (std::size_t i = 0; i < gen.layerCount(); ++i) {
      const Clock::time_point t0 = Clock::now();
      x = gen.layer(i).forward(x, true);
      f[gen.layer(i).name()] += msSince(t0);
    }
    Tensor grad = x;
    for (std::size_t i = gen.layerCount(); i-- > 0;) {
      const Clock::time_point t0 = Clock::now();
      grad = gen.layer(i).backward(grad);
      b[gen.layer(i).name()] += msSince(t0);
    }
    for (const auto& [k, v] : f) gf[k].push_back(v);
    for (const auto& [k, v] : b) gb[k].push_back(v);
  }
  report.layer("nn.linear.fwd_ms", median(gf["linear"]), "ms");
  report.layer("nn.linear.bwd_ms", median(gb["linear"]), "ms");
  report.layer("nn.batchnorm.fwd_ms", median(gf["batchnorm1d"]), "ms");
  report.layer("nn.batchnorm.bwd_ms", median(gb["batchnorm1d"]), "ms");
}

/// Tcae::trainStep, checkpoint save/load of a TCAE-sized payload, and
/// the counters of a short checkpointed Tcae::train.
void probeTrain(const RunConfig& cfg, const Library& lib, Report& report) {
  dp::Rng rng(13);
  dp::models::TcaeConfig tc = tcaeConfig();
  dp::models::Tcae tcae(tc, rng);
  loadWeights(tcae, weightsPath(cfg.assetDir));
  dp::nn::Adam adam(tcae.params(), tc.initialLr);
  const Tensor data =
      dp::models::encodeTopologies(lib.topologies, tc.inputSize);
  Tensor batch({64, 1, tc.inputSize, tc.inputSize});
  std::copy(data.data(), data.data() + batch.numel(), batch.data());
  report.layer("models.tcae.step_ms",
               medianMs(21, [&] { (void)tcae.trainStep(batch, adam); }), "ms");

  const std::string dir = cfg.outDir + "/probe-ckpt";
  std::filesystem::remove_all(dir);
  std::vector<const Tensor*> payload;
  std::vector<Tensor*> target;
  for (dp::nn::Param* p : tcae.params()) {
    payload.push_back(&p->value);
    target.push_back(&p->value);
  }
  for (Tensor* t : adam.state()) {
    payload.push_back(t);
    target.push_back(t);
  }
  dp::train::TrainCheckpoint record;
  record.totalSteps = 1000;
  record.configHash = tcae.configHash(lib.topologies.size());
  record.rngState = rng.state();
  long step = 0;
  report.layer("train.checkpoint.save_ms", medianMs(7, [&] {
                 record.step = ++step;
                 dp::train::saveCheckpoint(dir, record, payload);
               }),
               "ms");
  report.layer("train.checkpoint.load_ms", medianMs(7, [&] {
                 (void)dp::train::loadCheckpoint(dir, record.configHash,
                                                 target);
               }),
               "ms");

  tc.trainSteps = 60;
  dp::Rng trainRng(cfg.seed);
  dp::models::Tcae fresh(tc, trainRng);
  dp::train::TrainOptions opts;
  opts.checkpointDir = cfg.outDir + "/probe-train";
  opts.checkpointEvery = 20;
  std::filesystem::remove_all(opts.checkpointDir);
  const double cpu0 = processCpuSeconds();
  const dp::models::TrainStats st =
      fresh.train(lib.topologies, trainRng, opts);
  report.layer("train.cpu_s", processCpuSeconds() - cpu0, "s");
  report.layer("train.steps", static_cast<double>(st.steps), "count");
  report.layer("train.checkpoints", static_cast<double>(st.checkpointsSaved),
               "count");
  report.layer("train.rollbacks", static_cast<double>(st.rollbacks), "count");
}

/// Plan, decode, assess and materialize on the fixed weights.
void probeCore(const dp::serve::Bundle& b, Report& report) {
  dp::Rng rng(14);
  constexpr int kSamples = 4096;
  constexpr int kBatch = 256;
  const dp::core::LatentPlan plan = dp::core::planRandomLatents(
      b.sourceLatents(), b.perturber(), kSamples, kBatch, rng);
  report.layer("core.plan_random.us_per_sample", 1e3 * medianMs(5, [&] {
                 dp::Rng r(15);
                 (void)dp::core::planRandomLatents(b.sourceLatents(),
                                                   b.perturber(), kSamples,
                                                   kBatch, r);
               }) / kSamples,
               "us");

  // Fused decode and packed assessment timed inside one loop, so the
  // parts add up to the whole.
  const dp::core::FusedDecodeRoute& route = *b.fusedRoute();
  const int edge = route.topologySize();
  std::vector<std::uint32_t> masks, allMasks;
  double decodeMs = 0.0, assessMs = 0.0;
  dp::core::GenerationResult fused;
  for (int rep = 0; rep < 3; ++rep)
    for (int i = 0; i < kSamples; i += kBatch) {
      Tensor rows({kBatch, route.latentDim()});
      const float* src = plan.latents.data() +
                         static_cast<std::size_t>(i) * route.latentDim();
      std::copy(src, src + rows.numel(), rows.data());
      const Clock::time_point t0 = Clock::now();
      route.decodeMasks(rows, masks);
      const Clock::time_point t1 = Clock::now();
      dp::core::GenerationResult part;
      dp::core::accountMaskBatch(masks.data(), kBatch, edge, b.checker(),
                                 rep == 0 ? fused : part);
      assessMs += msSince(t1);
      decodeMs += 1e3 * std::chrono::duration<double>(t1 - t0).count();
      if (rep == 0)
        allMasks.insert(allMasks.end(), masks.begin(), masks.end());
    }
  report.layer("tensor.decode_fused.us_per_sample",
               1e3 * decodeMs / (3.0 * kSamples), "us");
  report.layer("core.account_masks.us_per_sample",
               1e3 * assessMs / (3.0 * kSamples), "us");

  // Packed squish and DRC primitives per sample.
  std::vector<std::uint32_t> work = allMasks;
  std::vector<int> rowsOf(kSamples, edge), colsOf(kSamples, edge);
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSamples; ++i) {
    std::uint32_t* m = work.data() + static_cast<std::size_t>(i) * edge;
    dp::squish::unpadMasks(m, rowsOf[i], colsOf[i]);
    dp::squish::canonicalizeMasks(m, rowsOf[i], colsOf[i]);
  }
  report.layer("squish.canonicalize_masks.ns",
               1e9 * secondsSince(t0) / kSamples, "ns");
  long legal = 0;
  t0 = Clock::now();
  for (int i = 0; i < kSamples; ++i)
    legal += dp::drc::isLegalCanonicalMasks(
        b.checker().config(), work.data() + static_cast<std::size_t>(i) * edge,
        rowsOf[i], colsOf[i]);
  report.layer("drc.packed_legal.ns", 1e9 * secondsSince(t0) / kSamples, "ns");
  report.check(legal == fused.legal,
               "probe: packed legality disagrees with accountMaskBatch");

  // Float decode, byte assessment and byte legality.
  const Tensor head = plan.latents.reshaped({kSamples, route.latentDim()});
  Tensor first({1024, route.latentDim()});
  std::copy(head.data(), head.data() + first.numel(), first.data());
  Tensor acts;
  report.layer("nn.decoder_infer.us_per_sample", 1e3 * medianMs(5, [&] {
                 acts = b.tcae().decode(first);
               }) / 1024.0,
               "us");
  report.layer("core.account_activations.us_per_sample",
               1e3 * medianMs(5, [&] {
                 dp::core::GenerationResult r;
                 dp::core::accountActivationBatch(acts, b.checker(), r);
               }) / 1024.0,
               "us");
  const std::vector<dp::squish::Topology> topos =
      dp::models::decodeGeneratedTopologies(acts);
  t0 = Clock::now();
  for (const dp::squish::Topology& t : topos) legal += b.checker().isLegal(t);
  report.layer("drc.topology_legal.us",
               1e6 * secondsSince(t0) / static_cast<double>(topos.size()),
               "us");

  // Eq. 10 per pattern, geometry DRC per clip, and materialize.
  std::vector<dp::squish::Topology> patterns = fused.unique.patterns();
  if (patterns.size() > 256) patterns.resize(256);
  long solved = 0;
  std::vector<dp::Clip> clips;
  t0 = Clock::now();
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    dp::Rng r(i);
    if (const auto p = b.solver().solve(patterns[i], r)) {
      ++solved;
      clips.push_back(dp::squish::reconstruct(*p));
    }
  }
  report.layer("lp.solve.us_per_pattern",
               1e6 * secondsSince(t0) / std::max<double>(1, patterns.size()),
               "us");
  report.layer("lp.attempted", static_cast<double>(patterns.size()), "count");
  report.layer("lp.solved", static_cast<double>(solved), "count");
  long clean = 0;
  t0 = Clock::now();
  for (const dp::Clip& c : clips) clean += b.geomChecker().isClean(c);
  report.layer("drc.geometry_check.us_per_clip",
               1e6 * secondsSince(t0) / std::max<double>(1, clips.size()),
               "us");
  dp::core::PatternLibrary lib;
  for (const dp::squish::Topology& p : patterns) lib.add(p);
  report.layer("core.materialize.us_per_clip", 1e3 * medianMs(3, [&] {
                 dp::Rng r(16);
                 (void)dp::core::materialize(lib, b.solver(),
                                             b.geomChecker(), r);
               }) / std::max<double>(1, patterns.size()),
               "us");
}

/// Stage times of a short runMassive, the store it leaves, and dedup
/// insertion into a fresh sharded set.
void probePipeline(const RunConfig& cfg, const dp::serve::Bundle& b,
                   Report& report) {
  dp::pipeline::MassiveConfig mc;
  mc.dir = cfg.outDir + "/probe-store";
  mc.count = 131072;
  mc.seed = cfg.seed;
  std::filesystem::remove_all(mc.dir);
  const double cpu0 = processCpuSeconds();
  const dp::pipeline::MassiveResult r = dp::pipeline::runMassive(
      b.tcae(), b.sourceLatents(), b.perturber(), b.checker(), mc);
  report.layer("pipeline.cpu_s", processCpuSeconds() - cpu0, "s");
  for (const char* stage :
       {"plan", "decode", "assess", "dedup", "seal", "commit"}) {
    const auto it = r.stages.find(stage);
    report.layer(std::string("pipeline.") + stage + "_s",
                 it == r.stages.end() ? 0.0 : it->second.seconds, "s");
  }
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(mc.dir))
    if (entry.is_regular_file())
      bytes += static_cast<double>(entry.file_size());
  report.layer("pipeline.store_bytes", bytes, "bytes");

  std::vector<std::pair<std::uint64_t, dp::pipeline::PackedPattern>> records;
  const auto manifest = dp::pipeline::loadManifest(mc.dir);
  if (manifest)
    for (const dp::pipeline::SegmentInfo& seg : manifest->segments)
      dp::pipeline::SegmentReader(mc.dir, seg)
          .forEach([&](std::uint64_t h, const dp::pipeline::PackedPattern& p) {
            records.emplace_back(h, p);
          });
  dp::pipeline::ShardedPatternSet set;
  const Clock::time_point t0 = Clock::now();
  for (const auto& [h, p] : records) set.insertPacked(h, p);
  report.layer("pipeline.sharded_set.insert_ns",
               1e9 * secondsSince(t0) / std::max<double>(1, records.size()),
               "ns");
  report.check(set.size() == r.unique,
               "probe: sharded set size differs from the store's");
}

/// HTTP round trip against in-process Batcher::submit for the same
/// requests, request parsing and response serialization. Both spans of
/// request i carry request id i.
void probeServe(const RunConfig& cfg,
                std::shared_ptr<dp::serve::Bundle> bundle, Report& report,
                Trace& trace, std::int64_t parent) {
  auto server = startServer(bundle);
  constexpr int kRequests = 100;
  constexpr double kRate = 100.0;
  std::vector<ServeRequest> reqs;
  dp::Rng rng(cfg.seed ^ 0x9a0beULL);
  for (int i = 0; i < kRequests; ++i) reqs.push_back(makeRequest(i, rng));

  std::vector<double> roundtrip, late;
  long failed = 0;
  {
    HttpClient client(server->port());
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kRequests; ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i / kRate));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      const HttpReply reply = client.call("POST", "/generate", reqs[i].body);
      trace.add("serve.http_request", sent, Clock::now(), parent, i);
      roundtrip.push_back(msSince(sent));
      late.push_back(1e3 * std::chrono::duration<double>(sent - due).count());
      failed += reply.status != 200 || !reply.complete;
    }
  }
  report.layer("serve.http_roundtrip_ms", median(roundtrip), "ms");
  report.layer("serve.tail_p99_ms", quantile(roundtrip, 0.99), "ms");
  report.layer("loadgen.late_ms_p50", median(late), "ms");

  std::vector<double> submit;
  std::vector<dp::serve::GenerateResponse> responses;
  for (int i = 0; i < kRequests; ++i) {
    const Clock::time_point t0 = Clock::now();
    dp::serve::SubmitResult s = server->batcher().submit(reqs[i].req);
    if (s.status != dp::serve::SubmitResult::Status::kAccepted) {
      ++failed;
      continue;
    }
    responses.push_back(s.future.get());
    trace.add("serve.batcher_submit", t0, Clock::now(), parent, i);
    submit.push_back(msSince(t0));
  }
  report.layer("serve.batcher.submit_ms", median(submit), "ms");

  Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 10; ++rep)
    for (const ServeRequest& r : reqs)
      (void)dp::serve::parseGenerateRequest(r.body);
  report.layer("serve.parse_request_us",
               1e6 * secondsSince(t0) / (10.0 * kRequests), "us");
  t0 = Clock::now();
  for (int rep = 0; rep < 10; ++rep)
    for (const dp::serve::GenerateResponse& r : responses)
      (void)dp::serve::generateResponseJson(r);
  report.layer("serve.response_json_us",
               1e6 * secondsSince(t0) /
                   (10.0 * std::max<double>(1, responses.size())),
               "us");
  const ServerCounters counters = scrapeCounters(server->port());
  report.layer("serve.batch_occupancy_mean", counters.occupancyMean,
               "requests");
  report.check(failed == 0, "probe: a serve request failed");
  report.check(counters.generate200 == kRequests + kWarmupRequests,
               "probe: /metrics 200 count differs from the client's");
  server->stop();
}

}  // namespace

void probeLayers(const RunConfig& cfg, Report& report, Trace& trace) {
  const Library lib = makeLibrary();
  double sensitivitySeconds = 0.0;
  const std::shared_ptr<dp::serve::Bundle> bundle =
      fixedBundle(lib, cfg.assetDir, &sensitivitySeconds);
  report.layer("core.sensitivity_s", sensitivitySeconds, "s");
  {
    Span span(trace, "probe.tensor.gemm");
    probeGemm(report);
  }
  {
    Span span(trace, "probe.nn");
    probeNn(lib, report);
  }
  {
    Span span(trace, "probe.train");
    probeTrain(cfg, lib, report);
  }
  {
    Span span(trace, "probe.core");
    probeCore(*bundle, report);
  }
  {
    Span span(trace, "probe.pipeline");
    probePipeline(cfg, *bundle, report);
  }
  {
    Span span(trace, "probe.serve");
    probeServe(cfg, bundle, report, trace, span.id());
  }
}

}  // namespace perfbench
