#include "net/worker_client.h"

#include <utility>
#include <vector>

#include "obs/recorder.h"

namespace lfm::net {

WorkerClient::WorkerClient(WorkerClientOptions options)
    : Uplink({options.name, options.host, options.port, options.wire_version,
              options.capacity, options.reconnect,
              options.max_reconnect_attempts, options.idle_timeout,
              options.handshake_timeout,
              options.telemetry_backpressure_bytes},
             TierMetrics(nullptr, "worker")),
      options_(std::move(options)),
      worker_(options_.worker) {}

int64_t WorkerClient::run() {
  Uplink::run(obs::Recorder::enabled() ? options_.telemetry_interval : 0.0);
  return executed_;
}

void WorkerClient::on_frame(Connection& conn, std::string&& wire) {
  switch (wq::classify(wire)) {
    case wq::MessageKind::kFile: {
      wq::FileMessage fm = wq::decode_file(wire);
      file_cacheable_[fm.name] = fm.cacheable;
      files_[fm.name] = std::move(fm.content);
      return;
    }
    case wq::MessageKind::kTask:
    case wq::MessageKind::kTaskBatch:
      handle_tasks(wire);
      return;
    default:
      conn.close("unexpected message kind from master");
      return;
  }
}

void WorkerClient::on_bye(Connection& conn) {
  // Final drain: whatever the recorder buffered since the last result (span
  // ends, shutdown instants) still travels before the close —
  // close_after_flush lets the frame leave the socket first.
  ship_telemetry();
  conn.close_after_flush();
}

void WorkerClient::handle_tasks(const std::string& wire) {
  const wq::WireVersion reply_version = wq::detect_version(wire);
  const std::vector<wq::TaskMessage> tasks = wq::decode_task_batch(wire);
  std::vector<wq::ResultMessage> results;
  results.reserve(tasks.size());
  for (const wq::TaskMessage& task : tasks) {
    // All recorder activity below (the LocalWorker's spans, the monitor's
    // usage counters) inherits the task's trace identity via the
    // thread-local scope — zero for untraced tasks, which leaves events
    // unstamped exactly as before.
    obs::TraceScope scope(task.trace_id);
    if (options_.echo_results) {
      wq::ResultMessage r;
      r.task_id = task.task_id;
      r.trace_id = task.trace_id;
      r.payload = options_.echo_payload;
      results.push_back(std::move(r));
    } else {
      results.push_back(worker_.execute(task, files_));
    }
    ++executed_;
    // Non-cacheable inputs are one-shot: the master re-stages them with
    // every dispatch that needs them.
    for (const wq::TaskMessage::FileStanza& stanza : task.infiles) {
      auto it = file_cacheable_.find(stanza.name);
      if (it != file_cacheable_.end() && !it->second) {
        files_.erase(stanza.name);
        file_cacheable_.erase(it);
      }
    }
  }
  if (link() == nullptr) return;
  send_results(results, reply_version);
  // Completed work restores the full reconnect budget: the link is proven
  // end-to-end (task in, result out), so future drops start from zero.
  progress();
  // Ship the spans those tasks just recorded while the results are still in
  // flight — the master's collector sees a task's run span arrive with (or
  // just behind) its result rather than a telemetry interval later.
  ship_telemetry();
}

void WorkerClient::count_dropped(int64_t events) {
  obs::Recorder::global().metrics().counter("obs.telemetry_dropped").add(events);
}

}  // namespace lfm::net
