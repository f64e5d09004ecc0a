#include "fed/root_master.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/collector.h"
#include "obs/recorder.h"
#include "util/log.h"

namespace lfm::fed {

namespace {

// Telemetry sink for the hub. A frame arrives with every hop below already
// accumulated (worker to foreman added at the foreman's service); the hub
// adds this link's estimate, making it source-clock minus root-clock. No
// collector: the hub drops the frame and counts it.
std::function<void(wq::TelemetryMessage&&)> collect_into(obs::Collector* c) {
  if (c == nullptr) return nullptr;
  return [c](wq::TelemetryMessage&& m) {
    c->add(m.source, m.clock_offset, std::move(m.events), m.dropped);
  };
}

}  // namespace

RootMaster::RootMaster(net::EventLoop& loop, RootMasterConfig config)
    : PeerHub(loop, config, "fed", /*persistent=*/false, config.journal,
              collect_into(config.collector)),
      config_(std::move(config)) {}

void RootMaster::submit(TaskGroup group) {
  const size_t gidx = next_group_++;
  Group g{std::move(group.files), {}, {}, 0, 0};
  for (wq::TaskMessage& task : group.tasks) {
    const std::optional<size_t> index = ledger_.add(std::move(task));
    if (!index) continue;  // done in the recovered journal
    // Cacheable flags come from the tasks' infile stanzas; a file named by
    // no task ships non-cacheable (the foreman treats it as replaceable).
    for (const wq::TaskMessage::FileStanza& s : ledger_[*index].task.infiles) {
      if (s.cacheable) g.cacheable.insert(s.name);
    }
    group_of_[*index] = gidx;
    g.task_indices.push_back(*index);
    ++g.remaining;
  }
  ++stats_.groups_submitted;
  metrics_.count("groups_submitted");
  if (g.remaining == 0) {
    ++stats_.groups_completed;
    return;
  }
  groups_.emplace(gidx, std::move(g));
  group_queue_.push_back(gidx);
  dispatch(nullptr);
}

void RootMaster::settle(net::Peer& /*from*/, size_t index) {
  auto owner = group_of_.find(index);
  const size_t gidx = owner->second;
  group_of_.erase(owner);
  auto it = groups_.find(gidx);
  Group& g = it->second;
  if (--g.remaining != 0) return;
  // A straggler can retire a group that was requeued (assigned == 0) after
  // its foreman died; dispatch() skips forgotten groups on pop.
  if (g.assigned != 0) {
    auto peer = peers_.find(g.assigned);
    if (peer != peers_.end()) peer->second.work.erase(gidx);
  }
  groups_.erase(it);
  ++stats_.groups_completed;
  metrics_.count("groups_completed");
}

void RootMaster::on_stats(net::Peer& f, const wq::StatsMessage& msg) {
  f.stats = msg;
  ++stats_.stats_frames;
  metrics_.count("stats_frames");
  if (obs::Metrics* m = metrics_.sink()) {
    // Tree-wide aggregates from the shards' latest frames: the root's view
    // of worker capacity and shard cache health without polling anything.
    int64_t workers = 0, cache_bytes = 0;
    for (const auto& [id, p] : peers_) {
      if (p.conn->closed()) continue;
      workers += p.stats.workers;
      cache_bytes += p.stats.cache_bytes;
    }
    m->gauge("fed.tree_workers").set(static_cast<double>(workers));
    m->gauge("fed.tree_cache_bytes").set(static_cast<double>(cache_bytes));
  }
}

void RootMaster::lost(net::Peer& f, const std::string& reason) {
  if (config_.journal != nullptr) {
    config_.journal->worker_lost(static_cast<int>(f.conn->id()),
                                 net::EventLoop::now());
  }
  if (f.work.empty()) return;
  LFM_WARN("fed", "foreman '" + f.name + "' lost (" + reason + "); requeuing " +
                      std::to_string(f.work.size()) + " group(s)");
  // Requeue to the FRONT so surviving siblings retry promptly; tasks that
  // already completed stay done (assign_group skips them).
  for (auto it = f.work.rbegin(); it != f.work.rend(); ++it) {
    Group& g = groups_.at(*it);
    g.assigned = 0;
    group_queue_.push_front(*it);
    ++stats_.requeued_groups;
    stats_.requeued_tasks += static_cast<int64_t>(g.remaining);
    metrics_.count("requeued_groups");
    metrics_.count("requeued_tasks", static_cast<int64_t>(g.remaining));
  }
}

net::Peer* RootMaster::route(const Group& g) {
  // Cache affinity: prefer the link that already holds the most of this
  // group's cacheable files (each hit is a file that will NOT cross the
  // root link again); break ties toward the lightest-loaded shard.
  net::Peer* best = nullptr;
  int best_affinity = -1;
  size_t best_load = 0;
  for (auto& [id, f] : peers_) {
    if (!can_take(f, static_cast<size_t>(config_.groups_per_foreman))) {
      continue;
    }
    int affinity = 0;
    for (const auto& [name, bytes] : g.files) {
      if (f.files.count(name)) ++affinity;
    }
    if (affinity > best_affinity ||
        (affinity == best_affinity && f.work.size() < best_load)) {
      best = &f;
      best_affinity = affinity;
      best_load = f.work.size();
    }
  }
  if (best != nullptr && best_affinity > 0) {
    metrics_.count("affinity_hits", best_affinity);
  }
  return best;
}

void RootMaster::dispatch(net::Peer* /*peer*/) {
  while (!group_queue_.empty()) {
    const size_t gidx = group_queue_.front();
    auto it = groups_.find(gidx);
    if (it == groups_.end()) {  // completed while requeued
      group_queue_.pop_front();
      continue;
    }
    net::Peer* f = route(it->second);
    if (f == nullptr) return;  // every link full or backpressured
    group_queue_.pop_front();
    assign_group(*f, gidx);
  }
}

void RootMaster::assign_group(net::Peer& f, size_t group_index) {
  Group& g = groups_.at(group_index);
  for (const auto& [name, bytes] : g.files) {
    send_file(f, name, g.cacheable.count(name) > 0, bytes);
  }
  if (f.conn->closed()) {
    // A send() failure mid-staging closed the link; the group goes back so
    // the deferred close path can't miss it.
    group_queue_.push_front(group_index);
    return;
  }
  g.assigned = f.conn->id();
  f.work.insert(group_index);
  std::vector<size_t> batch;
  for (const size_t index : g.task_indices) {
    if (!ledger_.done(index)) batch.push_back(index);  // else done before a requeue landed
  }
  send_tasks(f, batch);
}

RootStats RootMaster::run_until_complete(double timeout) {
  PeerHub::run_until_complete(timeout);
  return stats();
}

RootStats RootMaster::stats() const {
  const net::LinkTotals t = totals();
  RootStats s = stats_;
  s.tasks_completed = ledger_.completed();
  s.duplicate_results = ledger_.duplicates();
  s.recovered_done = ledger_.recovered();
  s.foremen_accepted = t.connections_accepted;
  s.foremen_lost = t.disconnects;
  s.files_sent = t.files_sent;
  s.telemetry_frames = t.telemetry_frames;
  s.bytes_sent = t.bytes_sent;
  s.bytes_received = t.bytes_received;
  return s;
}

std::map<std::string, wq::StatsMessage> RootMaster::shard_stats() const {
  std::map<std::string, wq::StatsMessage> out;
  for (const auto& [id, f] : peers_) {
    if (f.live()) out[f.name] = f.stats;
  }
  return out;
}

std::map<std::string, size_t> RootMaster::shard_loads() const {
  std::map<std::string, size_t> out;
  for (const auto& [id, f] : peers_) {
    if (f.live()) out[f.name] = f.work.size();
  }
  return out;
}

serde::Value RootMaster::statusz_value() const {
  const RootStats s = stats();
  serde::ValueDict d = statusz("foremen", [](const net::Peer& f,
                                                  serde::ValueDict& fd) {
    fd["groups_inflight"] = static_cast<int64_t>(f.work.size());
    fd["shipped_files"] = static_cast<int64_t>(f.files.size());
    fd["shard_workers"] = static_cast<int64_t>(f.stats.workers);
    fd["shard_pending"] = f.stats.pending;
    fd["shard_cache_bytes"] = f.stats.cache_bytes;
  });
  d["role"] = std::string("root");
  d["group_queue_depth"] = static_cast<int64_t>(group_queue_.size());
  d["groups_submitted"] = s.groups_submitted;
  d["groups_completed"] = s.groups_completed;
  d["requeued_groups"] = s.requeued_groups;
  d["foremen_accepted"] = s.foremen_accepted;
  d["foremen_lost"] = s.foremen_lost;
  d["stats_frames"] = s.stats_frames;
  return serde::Value(std::move(d));
}

}  // namespace lfm::fed
