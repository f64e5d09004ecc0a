// MasterService: real-socket task dispatch to worker processes (DESIGN.md
// §13).
//
// Serves the Work Queue dialogue the simulated wq::Master only accounts
// for: workers connect over TCP, receive staged input files and task
// dispatches, and stream results back. The link plumbing — hello and
// version negotiation, heartbeats, the idle and backpressure policy, the
// bye sequence — is net::PeerHub's, and exactly-once completion is
// net::DoneLedger's. What remains here is the dispatch policy: a FIFO ready
// queue drained fill-first into each worker's pipeline (tasks_per_worker in
// flight, up to max_batch per v2 batch frame), cacheable input files
// shipped once per connection, and a dropped connection's in-flight tasks
// requeued at the front of the queue (at-least-once attempts). A task's
// staged inputs are freed as soon as its result lands.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/peer_hub.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::net {

struct MasterServiceConfig : PeerHubConfig {
  // In-flight dispatches per connection (pipelining depth).
  int tasks_per_worker = 8;
  // A persistent service never declares the run over on its own: draining
  // the queue does NOT send bye or stop the loop, because more submissions
  // may arrive from above (a fed::Foreman relaying for a RootMaster). The
  // owner ends the run explicitly with shutdown().
  bool persistent = false;
  // Sink for kTelemetry frames shipped by workers. The service adds its
  // per-connection clock-offset estimate to the message's cumulative
  // clock_offset before invoking, so a relay chain accumulates the full
  // source-to-here offset hop by hop. Null drops telemetry (counted as
  // net.telemetry_dropped_frames).
  std::function<void(wq::TelemetryMessage&&)> on_telemetry;
};

struct NetMasterStats : LinkTotals {
  int64_t tasks_completed = 0;
  int64_t duplicate_results = 0;  // results for already-completed tasks
  int64_t requeued_tasks = 0;     // in-flight dispatches returned by drops
};

class MasterService : public PeerHub {
 public:
  MasterService(EventLoop& loop, MasterServiceConfig config = {});

  // Queue a task (with its transferable input files) for dispatch. Safe
  // before or during run_until_complete (loop thread only).
  void submit(wq::TaskMessage task, wq::FileSet files = {});

  // Run the loop until every submitted task has a result, then send bye to
  // all workers, flush, and return the aggregate stats. Throws lfm::Error
  // if `timeout` (> 0) wall seconds elapse first. Not meaningful for a
  // persistent service (throws): the owner drives the loop and calls
  // shutdown() itself.
  NetMasterStats run_until_complete(double timeout = 0.0);

  // --- fault injection & introspection -------------------------------------
  // Abruptly close the k-th (by accept order) live worker connection: its
  // in-flight tasks requeue, the worker is expected to reconnect with
  // backoff. Returns false if no such connection.
  bool drop_connection(size_t k) { return drop(k); }

  size_t pending() const { return ledger_.pending(); }
  // Tasks whose staged input files are still held (pending ones only).
  size_t staged() const { return files_.size(); }
  int connected_workers() const { return connected(); }
  NetMasterStats stats() const;
  // JSON snapshot for the /statusz endpoint: queue depth, completion
  // counts, and per-worker liveness / in-flight / backlog.
  serde::Value statusz_value() const;

 private:
  void dispatch(Peer* w) override;
  void settle(Peer& w, size_t index) override;
  void lost(Peer& w, const std::string& reason) override;
  void dispatch_to(Peer& w);

  MasterServiceConfig config_;
  std::unordered_map<size_t, wq::FileSet> files_;  // pending tasks' inputs
  std::deque<size_t> queue_;
  int64_t requeued_ = 0;
};

}  // namespace lfm::net
