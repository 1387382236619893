#pragma once

/// \file serve_common.hpp
/// Serving helpers of the per-layer serve probes: the request mix,
/// server start-up and /metrics scraping.

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "serve/bundle.hpp"
#include "serve/server.hpp"

namespace perfbench {

struct ServeRequest {
  dp::serve::GenerateRequest req;
  std::string body;  ///< the JSON the client sends
};

/// Request `index` of the mix: the four request kinds that serving
/// offers, in turn — TCAE-Random (count 64), TCAE-Combine (count 128),
/// TCAE-Random with materialize (count 64, at most 8 clips) and
/// TCAE-Random with a complexity window cx, cy <= 8 (count 128). The
/// mix is assumed, not taken from recorded traffic (perfbench/README.md).
/// Its shape is a function of the index alone; only the seed comes from
/// `rng`.
[[nodiscard]] ServeRequest makeRequest(long index, dp::Rng& rng);

/// Warm-up requests sent by startServer (random flow, count 64 each).
inline constexpr int kWarmupRequests = 4;
inline constexpr long kWarmupCount = 64;

/// Starts a PatternServer on an ephemeral loopback port serving
/// `bundle` (name "fixed"), with two handler threads, and sends the
/// warm-up requests.
[[nodiscard]] std::unique_ptr<dp::serve::PatternServer> startServer(
    std::shared_ptr<dp::serve::Bundle> bundle);

struct ServerCounters {
  long generate200 = -1;       ///< dp_requests_total /generate 200
  double occupancyMean = 0.0;  ///< dp_batch_occupancy sum / count
};
[[nodiscard]] ServerCounters scrapeCounters(int port);

}  // namespace perfbench
