#pragma once

/// \file batcher.hpp
/// The micro-batching request pipeline. Requests enter a bounded MPMC
/// queue (submit fails fast when full — the HTTP layer maps that to
/// 429 + Retry-After); a single batcher worker coalesces the latent
/// rows of pending same-bundle requests into shared decode batches,
/// decodes each batch on the bundle's fused route and runs the packed
/// legality accounting (core::accountMaskBatch) on the global thread
/// pool.
///
/// Load shedding: a request may carry a deadlineMs budget. Jobs whose
/// budget expires while queued or between decode batches fail with
/// DeadlineExceeded instead of occupying decode capacity; every shed
/// is counted in Metrics (dp_shed_total). The serve.batcher.admit and
/// serve.batcher.decode fault sites inject admission rejections and
/// decode failures for chaos testing (common/fault.hpp).
///
/// Determinism contract: each request's latent plan is drawn on the
/// submit thread with a private Rng(seed), consuming the stream exactly
/// as the in-process flows do (core::planRandomLatents /
/// planCombineLatents / planGuidedLatents). Decode is row-independent
/// and accounting replays each request's rows in ascending order, so
/// the response is bit-identical to the in-process flow no matter how
/// requests are coalesced — and at any DP_THREADS.

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "serve/bundle.hpp"
#include "serve/metrics.hpp"

namespace dp::serve {

struct GenerateRequest {
  std::string bundle = "default";
  std::string flow = "random";  ///< random | combine | guided
  long count = 128;             ///< topologies to attempt
  int batchSize = 128;          ///< plan batch size (RNG parity knob)
  int arity = 2;                ///< combine flow: latents per sample
  std::uint64_t seed = 1;
  bool materialize = false;     ///< also solve Eq. (10) for unique set
  long maxClips = -1;           ///< materialization cap (-1 = all)
  long deadlineMs = 0;          ///< latency budget; 0 = unbounded
  // Complexity window filter on the unique set; 0 = unbounded.
  int minCx = 0;
  int maxCx = 0;
  int minCy = 0;
  int maxCy = 0;
};

struct GenerateResponse {
  std::string bundle;
  std::string version;
  std::string flow;
  std::uint64_t seed = 0;
  long generated = 0;
  long legal = 0;
  long uniqueTotal = 0;     ///< unique legal patterns, pre-window
  long uniqueInWindow = 0;  ///< after the complexity window filter
  double diversity = 0.0;   ///< Shannon H of the in-window set
  double meanCx = 0.0;
  double meanCy = 0.0;
  std::vector<std::uint64_t> patternHashes;  ///< sorted canonical hashes
  // Materialization (zeros unless requested).
  long attempted = 0;
  long solved = 0;
  long drcClean = 0;
  double latencyMs = 0.0;
  int decodeBatches = 0;  ///< coalesced batches this request rode in
};

struct SubmitResult {
  enum class Status { kAccepted, kQueueFull, kShuttingDown, kInvalid };
  Status status = Status::kInvalid;
  std::string error;                      ///< set unless accepted
  std::future<GenerateResponse> future;   ///< valid when accepted
};

/// Delivered through an accepted request's future when its deadlineMs
/// budget expired before the batcher finished it (the HTTP layer maps
/// this to 503 + Retry-After).
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

class Batcher {
 public:
  struct Config {
    int queueCapacity = 64;  ///< pending requests before backpressure
    int maxActive = 8;       ///< requests coalesced concurrently
    int decodeBatch = 128;   ///< rows per coalesced decode
    long maxCount = 200000;  ///< per-request attempt cap
  };

  Batcher(BundleRegistry& registry, Metrics& metrics, Config config);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Validates, plans the request's latents (on the calling thread),
  /// and enqueues it. Never blocks on a full queue.
  [[nodiscard]] SubmitResult submit(const GenerateRequest& request)
      DP_EXCLUDES(mutex_);

  /// Drains accepted requests, then joins the worker. Idempotent.
  void stop() DP_EXCLUDES(mutex_);

  [[nodiscard]] bool running() const DP_EXCLUDES(mutex_);
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct Job {
    GenerateRequest request;
    std::shared_ptr<const Bundle> bundle;
    nn::Tensor latents;  ///< full latent plan (count, latentDim)
    Rng rng;             ///< post-plan stream (materialization draws)
    long offset = 0;     ///< rows decoded so far
    int decodeBatches = 0;
    core::GenerationResult result;
    std::promise<GenerateResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute budget expiry; meaningful only when hasDeadline.
    std::chrono::steady_clock::time_point deadline;
    bool hasDeadline = false;
  };

  void workerLoop() DP_EXCLUDES(mutex_);
  void runBatch();
  /// Fails every active job whose deadline has passed with
  /// DeadlineExceeded and drops it from the coalescing set.
  void shedExpired();
  void finalize(Job& job);

  BundleRegistry& registry_;
  Metrics& metrics_;
  Config config_;

  mutable Mutex mutex_;
  CondVar cv_;  ///< wakes the worker on submit/stop
  std::deque<std::unique_ptr<Job>> pending_ DP_GUARDED_BY(mutex_);
  bool stopping_ DP_GUARDED_BY(mutex_) = false;
  bool started_ DP_GUARDED_BY(mutex_) = false;

  // Worker-private (no lock needed): jobs being coalesced.
  std::deque<std::unique_ptr<Job>> active_;
  std::thread worker_;
};

}  // namespace dp::serve
