// RootMaster: the top tier of the federated dispatch hierarchy (DESIGN.md
// §14).
//
// A root master does not talk to workers. It shards *task groups* across N
// fed::Foreman peers, each of which runs a full net::MasterService over its
// own worker pool. Foremen connect inbound through the same net::PeerHub a
// MasterService serves its workers with (hello / file / task / result /
// control, one heartbeat and idle policy, backpressure), plus the kStats
// frame that aggregates shard telemetry upward — so one root sees the whole
// tree's health without polling any worker directly.
//
// What the root keeps is its group policy. Routing is cache-affinity-aware:
// a group is steered to the foreman that already holds the most of its
// cacheable input files (ship-once per link, the same idiom wq::Master's
// file_holders_ index applies per worker), tie-broken by lightest current
// load. A dead foreman's in-flight groups requeue to sibling shards (minus
// tasks already completed); the net::DoneLedger's per-task done record
// discards a straggler's late result. A completed group is dropped with its
// staged files, so the root holds only the work still in flight. With a
// chaos::Journal attached, every completion is journaled (write-ahead) and
// recover() arms the done record from a previous run's journal, so a
// restarted root never re-runs a task that already completed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/journal.h"
#include "net/event_loop.h"
#include "net/peer_hub.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::obs {
class Collector;
class Metrics;
}  // namespace lfm::obs

namespace lfm::fed {

// The unit of root-level scheduling: a named batch of tasks plus the staged
// input files they share. The whole group lands on one foreman (its tasks
// then spread over that shard's workers), which is what makes second-tier
// file caching pay: the group's cacheable files cross the root link once.
struct TaskGroup {
  std::string name;
  std::vector<wq::TaskMessage> tasks;
  wq::FileSet files;  // master-staged inputs named by the tasks' infiles
};

struct RootMasterConfig : net::PeerHubConfig {
  // In-flight groups per foreman (group-level pipelining depth).
  int groups_per_foreman = 4;
  // Write-ahead journal for completions (and foreman loss); optional.
  chaos::Journal* journal = nullptr;
  // Sink for kTelemetry frames relayed up the tree. The root adds its
  // foreman-link clock-offset estimate to each frame's cumulative offset
  // before merging, so every remote event normalizes into root time. Null
  // drops telemetry (counted as fed.telemetry_dropped_frames).
  obs::Collector* collector = nullptr;
};

struct RootStats {
  int64_t groups_submitted = 0;
  int64_t groups_completed = 0;
  int64_t tasks_completed = 0;
  int64_t duplicate_results = 0;  // results for already-done tasks
  int64_t recovered_done = 0;     // tasks skipped via recover()'s done flags
  int64_t requeued_groups = 0;    // groups returned by foreman deaths
  int64_t requeued_tasks = 0;     // not-yet-done tasks inside those groups
  int64_t foremen_accepted = 0;
  int64_t foremen_lost = 0;
  int64_t files_sent = 0;
  int64_t stats_frames = 0;      // shard kStats frames received
  int64_t telemetry_frames = 0;  // kTelemetry frames received (incl. relays)
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
};

class RootMaster : public net::PeerHub {
 public:
  RootMaster(net::EventLoop& loop, RootMasterConfig config = {});

  // Arm the done-flag set from a previous run's journal: any subsequently
  // submitted task whose id has a kCompleted record is marked done at
  // submit time and never dispatched. Call before submit().
  void recover(const chaos::Journal& journal) { ledger_.recover(journal); }

  // Queue a group for dispatch (loop thread only). Task ids must be unique
  // across all submitted groups.
  void submit(TaskGroup group);

  // Run the loop until every submitted task has a result, then send bye to
  // all foremen, flush, and return the aggregate stats. Throws lfm::Error
  // if `timeout` (> 0) wall seconds elapse first.
  RootStats run_until_complete(double timeout = 0.0);

  // --- fault injection & introspection -------------------------------------
  // Abruptly close the k-th (by accept order) live foreman link, as a crash
  // would: its in-flight groups requeue to surviving siblings. Returns
  // false if no such link.
  bool kill_foreman(size_t k) { return drop(k); }

  size_t pending_tasks() const { return ledger_.pending(); }
  int connected_foremen() const { return connected(); }
  RootStats stats() const;
  // JSON snapshot for the /statusz endpoint: group/task progress plus
  // per-foreman liveness, in-flight groups, backlog, shard stats, and the
  // current clock-offset estimate.
  serde::Value statusz_value() const;
  // Last telemetry frame per live foreman, by name.
  std::map<std::string, wq::StatsMessage> shard_stats() const;
  // Groups currently in flight per live foreman, by name (root's own
  // bookkeeping, no telemetry lag) — fault-injection tests key off this.
  std::map<std::string, size_t> shard_loads() const;

 private:
  // A group in flight; it is forgotten, files and all, once its last task
  // completes.
  struct Group {
    wq::FileSet files;
    // Names the tasks mark cacheable, fixed at submit: a requeued group
    // must not read the stanzas of tasks the ledger has already dropped.
    std::set<std::string> cacheable;
    std::vector<size_t> task_indices;
    size_t remaining = 0;   // tasks not yet done
    uint64_t assigned = 0;  // conn id currently running it (0 = queued)
  };

  void dispatch(net::Peer* peer) override;
  void settle(net::Peer& peer, size_t index) override;
  void lost(net::Peer& f, const std::string& reason) override;
  void on_stats(net::Peer& f, const wq::StatsMessage& msg) override;
  // Best open link for `g` by cache affinity, else nullptr.
  net::Peer* route(const Group& g);
  void assign_group(net::Peer& f, size_t group_index);

  RootMasterConfig config_;
  std::unordered_map<size_t, size_t> group_of_;  // pending task -> group
  std::unordered_map<size_t, Group> groups_;     // groups not yet done
  size_t next_group_ = 0;
  std::deque<size_t> group_queue_;
  RootStats stats_;  // the group-level counters; stats() adds the rest
};

}  // namespace lfm::fed
