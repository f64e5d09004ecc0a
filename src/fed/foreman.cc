#include "fed/foreman.h"

#include <utility>

#include "obs/recorder.h"

namespace lfm::fed {

namespace {

net::MasterServiceConfig shard_config(
    const ForemanConfig& c, std::function<void(wq::TelemetryMessage&&)> relay) {
  net::MasterServiceConfig s = c.service;
  // The shard tier must not declare the run over when its local queue
  // drains — the root decides when the run ends.
  s.persistent = true;
  if (s.metrics == nullptr) s.metrics = c.metrics;
  // Worker telemetry relays straight upward: the service adds its
  // worker-link clock offset before this fires, the root adds the
  // foreman-link offset on receipt, so the cumulative offset walks the tree.
  s.on_telemetry = std::move(relay);
  return s;
}

}  // namespace

Foreman::Foreman(ForemanConfig config)
    : Uplink({config.name, config.root_host, config.root_port,
              config.wire_version, config.capacity, config.reconnect,
              config.max_reconnect_attempts, net::kDefaultIdleTimeout,
              net::kDefaultHandshakeTimeout,
              config.telemetry_backpressure_bytes},
             net::TierMetrics(config.metrics, "foreman")),
      config_(std::move(config)),
      service_(loop_, shard_config(config_,
                                   [this](wq::TelemetryMessage&& m) {
                                     relay_telemetry(std::move(m));
                                   })),
      cache_(config_.cache_capacity_bytes) {
  service_.set_on_result(
      [this](const wq::ResultMessage& r) { on_local_result(r); });
}

int64_t Foreman::run() {
  Uplink::run(config_.stats_interval);
  return relayed_;
}

void Foreman::on_connect() {
  metrics_.count("connects");
  // Results that completed while the link was down travel on the fresh
  // connection; the root's done flags absorb any duplicates.
  flush_results();
  // The shard announces its state on joining rather than a stats interval
  // later: a run shorter than one interval still reaches the root's view.
  if (config_.stats_interval > 0) send_stats();
}

void Foreman::on_frame(net::Connection& conn, std::string&& wire) {
  switch (wq::classify(wire)) {
    case wq::MessageKind::kFile:
      handle_file(wire);
      return;
    case wq::MessageKind::kTask:
    case wq::MessageKind::kTaskBatch:
      handle_tasks(wire);
      return;
    default:
      conn.close("unexpected message kind from root");
      return;
  }
}

void Foreman::on_bye(net::Connection& /*conn*/) {
  flush_results();
  ship_telemetry();
  // Drain the local tier; the loop stops when the last worker connection is
  // gone. The upstream link stays OPEN through the drain so the workers'
  // final telemetry frames (shipped on their own byes) still relay to the
  // root; run() closes it at the end.
  service_.shutdown();
}

void Foreman::handle_file(const std::string& wire) {
  wq::FileMessage fm = wq::decode_file(wire);
  const auto backing =
      std::make_shared<const serde::Bytes>(std::move(fm.content));
  // Second-tier cache fill: the payload is content-chunked into the shard
  // store (dedup against every file already held) and remembered as a
  // manifest; the bytes never cross the root link again while cached.
  pkg::ChunkManifest manifest = pkg::chunk_into_store(backing, cache_);
  metrics_.count("files_cached");
  metrics_.count("file_bytes_in", manifest.total_bytes());
  file_cache_[fm.name] = std::move(manifest);
}

void Foreman::handle_tasks(const std::string& wire) {
  const std::vector<wq::TaskMessage> tasks = wq::decode_task_batch(wire);
  received_ += static_cast<int64_t>(tasks.size());
  metrics_.count("tasks_received", static_cast<int64_t>(tasks.size()));
  // Reassemble each input named by this batch once from the shard cache,
  // then fan the bytes out per task (the local MasterService ships each
  // cacheable file once per worker connection regardless).
  wq::FileSet staged;
  for (const wq::TaskMessage& t : tasks) {
    for (const wq::TaskMessage::FileStanza& stanza : t.infiles) {
      if (staged.count(stanza.name)) continue;
      auto it = file_cache_.find(stanza.name);
      if (it == file_cache_.end()) continue;  // worker-local input
      staged.emplace(stanza.name, pkg::reassemble(it->second, cache_));
      metrics_.count("cache_reassemblies");
    }
  }
  for (const wq::TaskMessage& t : tasks) {
    wq::FileSet files;
    for (const wq::TaskMessage::FileStanza& stanza : t.infiles) {
      auto it = staged.find(stanza.name);
      if (it != staged.end()) files.emplace(it->first, it->second);
    }
    // The relay hop: the batch the root encoded is decoded here and the
    // local dispatcher re-batches and re-encodes it downward.
    service_.submit(t, std::move(files));
  }
}

void Foreman::on_local_result(const wq::ResultMessage& result) {
  pending_results_.push_back(result);
  if (pending_results_.size() >= config_.result_batch_max) {
    flush_results();
    return;
  }
  if (!flush_scheduled_) {
    // Deferred one loop turn: everything that completes in this reactor
    // iteration coalesces into a single upward batch frame.
    flush_scheduled_ = true;
    loop_.post([this] {
      flush_scheduled_ = false;
      flush_results();
    });
  }
}

void Foreman::flush_results() {
  if (pending_results_.empty()) return;
  if (link() == nullptr) return;  // flushes on reconnect
  send_results(pending_results_, config_.wire_version);
  relayed_ += static_cast<int64_t>(pending_results_.size());
  metrics_.count("results_relayed",
                 static_cast<int64_t>(pending_results_.size()));
  pending_results_.clear();
  // Relayed progress restores the full upstream reconnect budget (the same
  // discipline WorkerClient applies to its task completions).
  progress();
}

void Foreman::send_stats() {
  if (link() == nullptr || saw_bye()) return;
  wq::StatsMessage s;
  s.source = config_.name;
  s.workers = service_.connected_workers();
  s.pending = static_cast<int64_t>(service_.pending());
  s.completed = relayed_;
  const net::NetMasterStats ns = service_.stats();
  s.fanout_bytes = ns.bytes_sent;
  s.fanout_files = ns.files_sent;
  const pkg::ChunkStore::Stats cs = cache_.stats();
  s.cache_chunks = cs.chunks;
  s.cache_bytes = cs.bytes;
  send(wq::encode(s, config_.wire_version));
  metrics_.count("stats_sent");
  // Telemetry piggybacks on the stats cadence: one timer, two frames.
  ship_telemetry();
}

void Foreman::relay_telemetry(wq::TelemetryMessage&& msg) {
  net::Connection* up = link();
  if (up == nullptr || config_.wire_version != wq::WireVersion::kV2 ||
      up->queued_bytes() > config_.telemetry_backpressure_bytes) {
    metrics_.count("telemetry_dropped_frames");
    return;
  }
  send(wq::encode(msg, wq::WireVersion::kV2));
  metrics_.count("telemetry_relayed");
}

}  // namespace lfm::fed
