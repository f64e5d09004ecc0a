#include "net/done_ledger.h"

#include <utility>

#include "net/event_loop.h"
#include "obs/recorder.h"
#include "util/hash.h"

namespace lfm::net {

namespace {

// Deterministic, nonzero trace id for a task. Minted once where the task
// enters the system (the root of whatever tree is running) and carried on
// the wire from there, so every process stamps the same identity without
// coordination. Derived from the task id alone — deterministic across
// re-dispatches and restarts.
uint64_t mint_trace_id(uint64_t task_id) {
  const uint64_t id = hash_combine64(0x6c666d2d74726163ull, task_id);
  return id == 0 ? 1 : id;
}

}  // namespace

void DoneLedger::recover(const chaos::Journal& journal) {
  for (const uint64_t id : journal.completed_task_ids()) {
    recovered_ids_.insert(id);
  }
}

std::optional<size_t> DoneLedger::add(wq::TaskMessage task) {
  if (recovered_ids_.count(task.task_id) > 0) {
    ++added_;
    ++recovered_;
    metrics_.count("recovered_done");
    return std::nullopt;
  }
  if (pending_ids_.count(task.task_id) > 0) return std::nullopt;
  done_ids_.erase(task.task_id);
  const size_t index = added_++;
  // Tasks relayed down from a root already carry their id. The recorder
  // gate keeps untraced runs' frames byte-identical (the trailing extension
  // is only emitted for trace_id != 0).
  if (task.trace_id == 0 && obs::Recorder::enabled()) {
    task.trace_id = mint_trace_id(task.task_id);
  }
  pending_ids_[task.task_id] = index;
  pending_.emplace(index, Entry{std::move(task), EventLoop::now(), 0.0});
  return index;
}

void DoneLedger::complete(const wq::ResultMessage& msg,
                          const std::function<void(size_t)>& settle) {
  auto it = pending_ids_.find(msg.task_id);
  if (it == pending_ids_.end()) {
    if (done_ids_.count(msg.task_id) > 0 || recovered_ids_.count(msg.task_id) > 0) {
      // The task was re-dispatched after a drop and both attempts reported.
      ++duplicates_;
      metrics_.count("duplicate_results");
    } else {
      metrics_.count("unknown_results");
    }
    return;
  }
  const size_t index = it->second;
  pending_ids_.erase(it);
  done_ids_.insert(msg.task_id);
  auto node = pending_.extract(index);
  const Entry& e = node.mapped();
  metrics_.count("results");
  if (obs::Recorder::enabled() && e.task.trace_id != 0) {
    obs::TraceScope scope(e.task.trace_id);
    obs::Recorder& r = obs::Recorder::global();
    const double now = EventLoop::now();
    // Dispatch-to-result at this tier. A foreman's relay service emits this
    // span in its own lane; together with the root's "task" span and the
    // worker's lfm.run it forms the cross-process chain for one trace id.
    if (e.dispatched_at > 0) {
      r.complete(obs::kPidHost, e.task.task_id, e.dispatched_at,
                 now - e.dispatched_at, "task.inflight", metrics_.tier());
    }
    if (root_) {
      r.complete(obs::kPidHost, e.task.task_id, e.submitted_at,
                 now - e.submitted_at, "task", metrics_.tier());
    }
  }
  if (journal_ != nullptr) {
    // Write-ahead: the done record lands before the completion's downstream
    // effects (settle, callback) run.
    alloc::Resources peak;
    peak.cores = msg.cores_used;
    peak.memory_bytes = static_cast<double>(msg.memory_peak_bytes);
    peak.disk_bytes = static_cast<double>(msg.disk_peak_bytes);
    journal_->completed(msg.task_id, peak, EventLoop::now());
  }
  settle(index);
  // The callback may submit more work; `msg` is the decoded frame's, not
  // ledger state, so it stays valid while the ledger grows.
  if (on_result_) on_result_(msg);
}

}  // namespace lfm::net
