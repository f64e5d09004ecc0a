// DoneLedger: the task table behind every dispatch tier's exactly-once
// results (DESIGN.md §13-§14).
//
// Each master — a standalone net::MasterService, a foreman's relay service,
// a fed::RootMaster — may dispatch one task more than once (a dropped link
// requeues its in-flight work), yet must complete it exactly once. The
// ledger holds the per-task done record that makes re-dispatch idempotent:
// the first result for a task id is recorded and announced, any later one
// is counted as a duplicate and discarded. Only pending tasks keep their
// entry; a completed task leaves just its id in the done record, and its
// result reaches the owner through the on_result callback alone, so a
// long-running tier holds memory for its work in flight, not its history.
// A completed task added again becomes pending again: a relay tier gets its
// finished work back when the tier above lost the results on a dropped
// link, and must run it and report it once more. With a chaos::Journal
// attached, every completion is journaled write-ahead, and recover() arms
// a separate record from a previous run's journal so a restarted master
// never re-runs finished work.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "chaos/journal.h"
#include "net/tier_metrics.h"
#include "wq/protocol.h"

namespace lfm::net {

class DoneLedger {
 public:
  struct Entry {
    wq::TaskMessage task;
    double submitted_at = 0.0;   // EventLoop::now() at add()
    double dispatched_at = 0.0;  // last dispatch (0 = not tracked)
  };

  // `root`: tasks enter the tree at this tier, so it records the whole
  // submit-to-result "task" span (a relay tier never saw the true submit).
  DoneLedger(const TierMetrics& metrics, bool root, chaos::Journal* journal)
      : metrics_(metrics), root_(root), journal_(journal) {}

  // Arm the recovered record from a previous run's journal: a later add()
  // of a task with a kCompleted record enters already done. Call before
  // add().
  void recover(const chaos::Journal& journal);

  // Append a task and return the index of its new pending entry, or nullopt
  // when it needs no dispatch: it is done in the recovered journal (counted
  // as recovered), or it is already pending here (its queued or in-flight
  // attempt will report). A task this ledger completed itself is pending
  // again.
  std::optional<size_t> add(wq::TaskMessage task);

  // Record a result. The first one for a pending task marks it done, runs
  // `settle(index)` (the owner's dispatch bookkeeping), then the on_result
  // callback, and drops the task's entry; unknown and duplicate results are
  // only counted.
  void complete(const wq::ResultMessage& msg,
                const std::function<void(size_t)>& settle);

  void set_on_result(std::function<void(const wq::ResultMessage&)> fn) {
    on_result_ = std::move(fn);
  }

  // The entry of a pending task; done tasks have none (see done()).
  Entry& operator[](size_t index) { return pending_.at(index); }
  bool done(size_t index) const { return pending_.count(index) == 0; }
  // Tasks added so far, done or not.
  size_t size() const { return added_; }
  size_t pending() const { return pending_.size(); }
  // Every task added so far has its result (and there was at least one).
  bool drained() const { return pending_.empty() && added_ > 0; }
  int64_t completed() const {
    return static_cast<int64_t>(added_ - pending_.size()) - recovered_;
  }
  int64_t duplicates() const { return duplicates_; }
  int64_t recovered() const { return recovered_; }

 private:
  const TierMetrics& metrics_;
  bool root_;
  chaos::Journal* journal_;
  std::unordered_map<size_t, Entry> pending_;         // by index
  std::unordered_map<uint64_t, size_t> pending_ids_;  // task id -> index
  std::unordered_set<uint64_t> done_ids_;       // completed here
  std::unordered_set<uint64_t> recovered_ids_;  // completed in the journal
  std::function<void(const wq::ResultMessage&)> on_result_;
  size_t added_ = 0;
  int64_t duplicates_ = 0;
  int64_t recovered_ = 0;
};

}  // namespace lfm::net
