#include "net/master_service.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace lfm::net {

MasterService::MasterService(EventLoop& loop, MasterServiceConfig config)
    : PeerHub(loop, config, "net", config.persistent, nullptr,
              config.on_telemetry),
      config_(std::move(config)) {}

void MasterService::submit(wq::TaskMessage task, wq::FileSet files) {
  const std::optional<size_t> index = ledger_.add(std::move(task));
  if (!index) return;  // done in the recovered journal, or already pending
  queue_.push_back(*index);
  files_.emplace(*index, std::move(files));
  dispatch(nullptr);
}

void MasterService::settle(Peer& w, size_t index) {
  w.work.erase(index);
  files_.erase(index);
}

void MasterService::dispatch(Peer* w) {
  if (w != nullptr) return dispatch_to(*w);
  for (auto& [id, peer] : peers_) {
    if (queue_.empty()) break;
    dispatch_to(peer);
  }
}

void MasterService::lost(Peer& w, const std::string& /*reason*/) {
  // At-least-once: everything this connection was running goes back to the
  // front of the queue so a reconnecting (or sibling) worker retries it
  // promptly.
  requeued_ += static_cast<int64_t>(w.work.size());
  metrics_.count("requeued_tasks", static_cast<int64_t>(w.work.size()));
  for (auto it = w.work.rbegin(); it != w.work.rend(); ++it) {
    if (!ledger_.done(*it)) queue_.push_front(*it);
  }
}

void MasterService::dispatch_to(Peer& w) {
  const auto depth = static_cast<size_t>(config_.tasks_per_worker);
  while (!queue_.empty() && can_take(w, depth)) {
    const size_t room = std::min(config_.max_batch, depth - w.work.size());
    std::vector<size_t> batch;
    while (batch.size() < room && !queue_.empty()) {
      const size_t index = queue_.front();
      queue_.pop_front();
      if (ledger_.done(index)) continue;  // completed while requeued
      const wq::FileSet& staged = files_.at(index);
      for (const wq::TaskMessage::FileStanza& stanza : ledger_[index].task.infiles) {
        auto fit = staged.find(stanza.name);
        if (fit == staged.end()) continue;  // worker-local input
        send_file(w, stanza.name, stanza.cacheable, fit->second);
      }
      if (w.conn->closed()) {
        // A send() failure mid-staging closed the connection; the index
        // goes back so the deferred close path can't miss it.
        queue_.push_front(index);
        return;
      }
      batch.push_back(index);
      w.work.insert(index);
    }
    send_tasks(w, batch);
  }
}

NetMasterStats MasterService::run_until_complete(double timeout) {
  PeerHub::run_until_complete(timeout);
  return stats();
}

NetMasterStats MasterService::stats() const {
  NetMasterStats s;
  static_cast<LinkTotals&>(s) = totals();
  s.tasks_completed = ledger_.completed();
  s.duplicate_results = ledger_.duplicates();
  s.requeued_tasks = requeued_;
  return s;
}

serde::Value MasterService::statusz_value() const {
  serde::ValueDict d = statusz("workers", [](const Peer& w, serde::ValueDict& wd) {
    wd["inflight"] = static_cast<int64_t>(w.work.size());
    wd["cached_files"] = static_cast<int64_t>(w.files.size());
  });
  const LinkTotals t = totals();
  d["role"] = std::string(config_.persistent ? "foreman-service" : "master");
  d["queue_depth"] = static_cast<int64_t>(queue_.size());
  d["requeued_tasks"] = requeued_;
  d["connections_accepted"] = t.connections_accepted;
  d["disconnects"] = t.disconnects;
  return serde::Value(std::move(d));
}

}  // namespace lfm::net
