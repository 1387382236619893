#include "serve_common.hpp"

#include <cstdlib>
#include <stdexcept>

#include "http_client.hpp"
#include "io/json.hpp"

namespace perfbench {

namespace {

/// The value of the sample line that starts with `needle` (-1 if none).
double sampleValue(const std::string& page, const std::string& needle) {
  std::size_t pos = 0;
  while ((pos = page.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || page[pos - 1] == '\n') break;
    pos += needle.size();
  }
  if (pos == std::string::npos) return -1.0;
  const std::size_t eol = page.find('\n', pos);
  const std::string line = page.substr(pos, eol - pos);
  return std::atof(line.c_str() + line.rfind(' ') + 1);
}

}  // namespace

ServeRequest makeRequest(long index, dp::Rng& rng) {
  const long kind = index % 4;
  ServeRequest r;
  r.req.bundle = "fixed";
  r.req.flow = kind == 1 ? "combine" : "random";
  r.req.count = kind % 2 == 0 ? 64 : 128;
  r.req.seed = rng.engine()() >> 11;  // exact in a JSON double
  r.req.materialize = kind == 2;
  if (r.req.materialize) r.req.maxClips = 8;
  if (kind == 3) {
    r.req.maxCx = 8;
    r.req.maxCy = 8;
  }
  dp::io::Json j = dp::io::Json::object();
  j.set("bundle", r.req.bundle);
  j.set("flow", r.req.flow);
  j.set("count", r.req.count);
  j.set("seed", static_cast<double>(r.req.seed));
  if (r.req.materialize) {
    j.set("materialize", true);
    j.set("maxClips", r.req.maxClips);
  }
  if (r.req.maxCx != 0) {
    j.set("maxCx", r.req.maxCx);
    j.set("maxCy", r.req.maxCy);
  }
  r.body = j.dump();
  return r;
}

std::unique_ptr<dp::serve::PatternServer> startServer(
    std::shared_ptr<dp::serve::Bundle> bundle) {
  dp::serve::PatternServer::Config config;
  config.http.handlerThreads = 2;
  auto server = std::make_unique<dp::serve::PatternServer>(config);
  server->registry().add(std::move(bundle));
  server->start();
  HttpClient client(server->port());
  for (int i = 0; i < kWarmupRequests; ++i) {
    const HttpReply r = client.call(
        "POST", "/generate",
        "{\"bundle\":\"fixed\",\"count\":" + std::to_string(kWarmupCount) +
            ",\"seed\":" + std::to_string(i + 1) + "}");
    if (r.status != 200 || !r.complete)
      throw std::runtime_error("serve warm-up request failed with status " +
                               std::to_string(r.status));
  }
  return server;
}

ServerCounters scrapeCounters(int port) {
  HttpClient client(port);
  const HttpReply r = client.call("GET", "/metrics");
  ServerCounters c;
  if (r.status != 200) return c;
  c.generate200 = static_cast<long>(sampleValue(
      r.body, "dp_requests_total{route=\"/generate\",status=\"200\"}"));
  const double sum = sampleValue(r.body, "dp_batch_occupancy_sum");
  const double count = sampleValue(r.body, "dp_batch_occupancy_count");
  c.occupancyMean = count > 0 ? sum / count : 0.0;
  return c;
}

}  // namespace perfbench
