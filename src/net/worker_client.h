// WorkerClient: the process on the worker node end of the transport
// (DESIGN.md §13).
//
// Connects to a MasterService, introduces itself with a hello naming its
// preferred wire version and capacity, then serves the dispatch dialogue:
// staged files accumulate in an in-memory FileSet, task (and v2 batch)
// frames execute through wq::LocalWorker — i.e. through a real forked
// monitor::LFM — and each request is answered in the wire version it
// arrived in. Pings are answered with pongs; bye means the run is over:
// drain and return.
//
// The upward link — connect, hello, pings, reconnect with backoff under a
// budget refilled only by completed tasks, handshake and idle timeouts — is
// net::Uplink's; a connection that dies without a bye is a network fault.
// The cached FileSet survives reconnects; the master re-stages whatever the
// fresh connection is missing.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "alloc/resources.h"
#include "chaos/retry.h"
#include "net/uplink.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::net {

struct WorkerClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string name = "worker";
  wq::WireVersion wire_version = wq::WireVersion::kV2;
  alloc::Resources capacity{4.0, 8e9, 50e9};
  wq::LocalWorkerOptions worker;
  // Echo mode, for transport benchmarks: skip the LFM and answer every task
  // immediately with exit 0 and `echo_payload` — measures the wire, not the
  // fork.
  bool echo_results = false;
  serde::Bytes echo_payload;
  chaos::RetryPolicy reconnect = default_reconnect_policy();
  // Consecutive failed connect attempts before run() gives up.
  int max_reconnect_attempts = 30;
  // Reconnect if the link goes silent this long, or if the master never
  // answers the hello within handshake_timeout (0 = off; see net::Uplink).
  double idle_timeout = kDefaultIdleTimeout;
  double handshake_timeout = kDefaultHandshakeTimeout;
  // Telemetry shipping (tracing runs only; inert while the obs recorder is
  // disabled). Buffered trace events drain upward in kTelemetry frames
  // after each result send, every telemetry_interval seconds (0 = no
  // timer), and before the bye-close. A backlogged link (queued bytes past
  // telemetry_backpressure_bytes) drops the batch instead of queueing more;
  // drops are counted and reported in the next frame that does ship.
  double telemetry_interval = 0.5;
  size_t telemetry_backpressure_bytes = 4u << 20;
};

class WorkerClient : public Uplink {
 public:
  explicit WorkerClient(WorkerClientOptions options);

  // Connect (retrying with backoff) and serve until the master says bye or
  // the reconnect budget exhausts. Returns the number of tasks executed.
  // Throws lfm::Error if the master was never reached at all.
  int64_t run();

  int64_t tasks_executed() const { return executed_; }

 private:
  void on_frame(Connection& conn, std::string&& wire) override;
  void on_bye(Connection& conn) override;
  void on_tick() override { ship_telemetry(); }
  void count_dropped(int64_t events) override;
  void handle_tasks(const std::string& wire);

  WorkerClientOptions options_;
  wq::LocalWorker worker_;
  wq::FileSet files_;
  std::map<std::string, bool> file_cacheable_;
  int64_t executed_ = 0;
};

}  // namespace lfm::net
