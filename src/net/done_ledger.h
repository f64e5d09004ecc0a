// DoneLedger: the task table behind every dispatch tier's exactly-once
// results (DESIGN.md §13-§14).
//
// Each master — a standalone net::MasterService, a foreman's relay service,
// a fed::RootMaster — may dispatch one task more than once (a dropped link
// requeues its in-flight work), yet must complete it exactly once. The
// ledger holds the per-task done flag that makes re-dispatch idempotent: the
// first result for a task id is recorded and announced, any later one is
// counted as a duplicate and discarded. With a chaos::Journal attached,
// every completion is journaled write-ahead, and recover() re-arms the done
// flags from a previous run's journal so a restarted master never re-runs
// finished work.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chaos/journal.h"
#include "net/tier_metrics.h"
#include "wq/protocol.h"

namespace lfm::net {

class DoneLedger {
 public:
  struct Entry {
    wq::TaskMessage task;
    bool done = false;
    double submitted_at = 0.0;   // EventLoop::now() at add()
    double dispatched_at = 0.0;  // last dispatch (0 = not tracked)
  };

  // `root`: tasks enter the tree at this tier, so it records the whole
  // submit-to-result "task" span (a relay tier never saw the true submit).
  DoneLedger(const TierMetrics& metrics, bool root, chaos::Journal* journal)
      : metrics_(metrics), root_(root), journal_(journal) {}

  // Arm done flags from a previous run's journal: a later add() of a task
  // with a kCompleted record enters already done. Call before add().
  void recover(const chaos::Journal& journal);

  // Append a task and return its index. Task ids must be unique.
  size_t add(wq::TaskMessage task);

  // Record a result. The first one for a known task marks it done, runs
  // `settle(index)` (the owner's dispatch bookkeeping), then the on_result
  // callback; unknown and duplicate results are only counted.
  void complete(const wq::ResultMessage& msg,
                const std::function<void(size_t)>& settle);

  void set_on_result(std::function<void(const wq::ResultMessage&)> fn) {
    on_result_ = std::move(fn);
  }

  Entry& operator[](size_t index) { return entries_[index]; }
  size_t size() const { return entries_.size(); }
  size_t pending() const { return pending_; }
  // Every task added so far has its result (and there was at least one).
  bool drained() const { return pending_ == 0 && !entries_.empty(); }
  int64_t completed() const {
    return static_cast<int64_t>(entries_.size() - pending_) - recovered_;
  }
  int64_t duplicates() const { return duplicates_; }
  int64_t recovered() const { return recovered_; }
  // Results by index (default-constructed where not completed).
  const std::vector<wq::ResultMessage>& results() const { return results_; }

 private:
  const TierMetrics& metrics_;
  bool root_;
  chaos::Journal* journal_;
  std::vector<Entry> entries_;
  std::vector<wq::ResultMessage> results_;
  std::unordered_map<uint64_t, size_t> index_by_task_id_;
  std::unordered_set<uint64_t> recovered_done_;
  std::function<void(const wq::ResultMessage&)> on_result_;
  size_t pending_ = 0;
  int64_t duplicates_ = 0;
  int64_t recovered_ = 0;
};

}  // namespace lfm::net
