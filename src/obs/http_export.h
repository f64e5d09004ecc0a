// Live telemetry endpoints: a minimal HTTP/1.0 server on the transport's
// own net::EventLoop, serving
//
//   /metrics  — Prometheus text exposition of a metrics registry
//   /healthz  — liveness probe ("ok")
//   /statusz  — JSON snapshot from a caller-provided provider (the master's
//               per-worker/foreman liveness, queue depths, in-flight tasks,
//               wire + dist counters)
//
// This is deliberately not a web server: requests are single-shot
// (Connection: close), bodies are ignored, and only GET is answered. It
// exists so an operator can point curl or a Prometheus scraper at a live
// master without any out-of-process exporter.
//
// Lives in its own library (lfm_obs_http) because it needs the event loop:
// lfm_net already links lfm_obs, so the obs core cannot link net back.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/conn.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "serde/value.h"

namespace lfm::obs {

struct HttpEndpointConfig {
  uint16_t port = 0;  // 0 = kernel-assigned ephemeral port
  std::string bind_addr = "127.0.0.1";
  // Registry behind /metrics; nullptr serves the process-global registry.
  const Metrics* metrics = nullptr;
  // Provider behind /statusz; unset serves an empty JSON object. Runs on
  // the loop thread.
  std::function<serde::Value()> statusz;
};

class HttpEndpoint {
 public:
  // Binds immediately; throws lfm::Error on bind failure (port in use) so
  // callers fail fast instead of timing out downstream.
  HttpEndpoint(net::EventLoop& loop, HttpEndpointConfig config);
  ~HttpEndpoint();
  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  uint16_t port() const { return listener_.port(); }
  int64_t requests_served() const { return served_; }

 private:
  struct Client {
    std::vector<uint8_t> in;
    std::string out;
    size_t out_off = 0;
    bool responded = false;
    uint64_t deadline_timer = 0;
  };

  void on_client_event(int fd, uint32_t events);
  void try_respond(int fd, Client& client);
  void flush(int fd, Client& client);
  std::string handle_request(const std::string& head) const;
  std::string response(int code, const char* reason, const char* content_type,
                       const std::string& body) const;
  void close_client(int fd);

  net::EventLoop& loop_;
  HttpEndpointConfig config_;
  net::Listener listener_;
  std::map<int, Client> clients_;
  int64_t served_ = 0;
};

}  // namespace lfm::obs
