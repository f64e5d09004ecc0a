// Tests for the federated foreman tier (src/fed/): in-process two-shard
// dispatch with namespaced metrics registries, cache-affinity routing,
// journal done-flag recovery, and an end-to-end forked-process run — one
// root, two foreman processes, four worker processes — with a SIGKILLed
// foreman mid-run, checking exactly-once completion and payloads
// bit-identical to an in-process reference execution.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/journal.h"
#include "fed/foreman.h"
#include "fed/root_master.h"
#include "net/master_service.h"
#include "net/socket.h"
#include "net/worker_client.h"
#include "obs/collector.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serde/value.h"
#include "util/error.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::fed {
namespace {

wq::TaskMessage echo_task(uint64_t id) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = "fed-test";
  t.command_line = "echo";
  t.allocation = alloc::Resources{1.0, 512e6, 1e9};
  return t;
}

// An in-process echo worker thread serving one foreman's shard until bye.
struct EchoWorker {
  explicit EchoWorker(uint16_t port, const std::string& name) {
    net::WorkerClientOptions o;
    o.port = port;
    o.name = name;
    o.echo_results = true;
    o.echo_payload = serde::Bytes{'p', 'o', 'n', 'g'};
    client = std::make_unique<net::WorkerClient>(o);
    thread = std::thread([this] { client->run(); });
  }
  void join() { thread.join(); }
  std::unique_ptr<net::WorkerClient> client;
  std::thread thread;
};

// Run the root's loop until `n` foremen are connected and idle, so group
// submission (and therefore routing) starts from a deterministic topology.
void await_foremen(net::EventLoop& loop, RootMaster& root, int n) {
  uint64_t poll = 0;
  poll = loop.run_every(0.005, [&] {
    if (root.connected_foremen() >= n) loop.stop();
  });
  const uint64_t watchdog = loop.run_after(30.0, [&] { loop.stop(); });
  loop.run();
  loop.cancel_timer(poll);
  loop.cancel_timer(watchdog);
  ASSERT_GE(root.connected_foremen(), n) << "foremen never connected";
}

TEST(Federation, TwoShardsCompleteAllGroupsWithNamespacedMetrics) {
  obs::Metrics root_m("root."), f1_m("f1."), f2_m("f2.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &root_m;
  rc.groups_per_foreman = 2;
  RootMaster root(loop, rc);

  ForemanConfig fc1;
  fc1.name = "f1";
  fc1.root_port = root.port();
  fc1.metrics = &f1_m;
  fc1.stats_interval = 0.05;
  ForemanConfig fc2 = fc1;
  fc2.name = "f2";
  fc2.metrics = &f2_m;
  Foreman f1(fc1), f2(fc2);
  std::thread ft1([&] { f1.run(); });
  std::thread ft2([&] { f2.run(); });
  EchoWorker w1(f1.worker_port(), "w1"), w2(f1.worker_port(), "w2");
  EchoWorker w3(f2.worker_port(), "w3"), w4(f2.worker_port(), "w4");
  await_foremen(loop, root, 2);

  // Per-group files: zero cache affinity everywhere, so the least-loaded
  // tie-break must spread the groups across both shards (depth 2 per shard,
  // six groups — each shard is guaranteed at least two).
  const int kGroups = 6, kPerGroup = 4;
  uint64_t next_id = 1;
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "g" + std::to_string(g);
    serde::Bytes file(4096);
    for (size_t i = 0; i < file.size(); ++i) {
      file[i] = static_cast<uint8_t>(i * 131 + g);
    }
    const std::string fname = "g" + std::to_string(g) + ".bin";
    for (int i = 0; i < kPerGroup; ++i) {
      wq::TaskMessage t = echo_task(next_id++);
      t.infiles.push_back({fname, static_cast<int64_t>(file.size()), true});
      group.tasks.push_back(std::move(t));
    }
    group.files.emplace(fname, std::move(file));
    root.submit(std::move(group));
  }

  std::map<uint64_t, int> events;
  std::vector<wq::ResultMessage> results;
  root.set_on_result([&](const wq::ResultMessage& r) {
    events[r.task_id]++;
    results.push_back(r);
  });
  const RootStats stats = root.run_until_complete(60.0);
  ft1.join();
  ft2.join();
  w1.join();
  w2.join();
  w3.join();
  w4.join();

  const int kTasks = kGroups * kPerGroup;
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(stats.groups_completed, kGroups);
  EXPECT_EQ(stats.duplicate_results, 0);
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) EXPECT_EQ(n, 1) << "task " << id;
  const serde::Bytes pong{'p', 'o', 'n', 'g'};
  for (const wq::ResultMessage& r : results) {
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.payload, pong);
  }
  // Both shards worked and relayed: tasks split across the two foremen.
  EXPECT_EQ(f1.results_relayed() + f2.results_relayed(), kTasks);
  EXPECT_GT(f1.results_relayed(), 0);
  EXPECT_GT(f2.results_relayed(), 0);
  // Each group's cacheable file crossed the root link exactly once, was
  // chunked into its shard's cache, and fanned out locally from there.
  EXPECT_EQ(stats.files_sent, kGroups);
  EXPECT_GT(f1.cache().stats().chunks, 0);
  EXPECT_GT(f2.cache().stats().chunks, 0);

  // Namespaced registries: each component's series lives under its own
  // prefix, none of them collide, and nothing leaked into the others.
  EXPECT_EQ(root_m.counter("fed.results").value(), kTasks);
  EXPECT_EQ(f1_m.counter("net.results").value() +
                f2_m.counter("net.results").value(),
            kTasks);
  EXPECT_EQ(f1_m.counter("foreman.results_relayed").value(),
            f1.results_relayed());
  EXPECT_EQ(root_m.counter("net.results").value(), 0);
  EXPECT_EQ(f1_m.counter("fed.results").value(), 0);
  bool prefixed = true;
  for (const auto& [name, v] : f1_m.counters()) {
    if (name.rfind("f1.", 0) != 0) prefixed = false;
  }
  EXPECT_TRUE(prefixed) << "f1 registry holds an unprefixed series";
}

TEST(Federation, AffinityRoutesWarmGroupToTheShardHoldingItsFiles) {
  obs::Metrics m("affinity.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &m;
  RootMaster root(loop, rc);

  ForemanConfig fc1;
  fc1.name = "fa";
  fc1.root_port = root.port();
  fc1.metrics = &m;
  ForemanConfig fc2 = fc1;
  fc2.name = "fb";
  Foreman fa(fc1), fb(fc2);
  std::thread ta([&] { fa.run(); });
  std::thread tb([&] { fb.run(); });
  EchoWorker wa(fa.worker_port(), "wa"), wb(fb.worker_port(), "wb");
  await_foremen(loop, root, 2);

  serde::Bytes big(16384, 0x5a);
  auto make_group = [&](const std::string& name, uint64_t first_id) {
    TaskGroup g;
    g.name = name;
    for (int i = 0; i < 2; ++i) {
      wq::TaskMessage t = echo_task(first_id + static_cast<uint64_t>(i));
      t.infiles.push_back({"big.dat", static_cast<int64_t>(big.size()), true});
      g.tasks.push_back(std::move(t));
    }
    g.files.emplace("big.dat", big);
    return g;
  };
  // Four groups, all naming the same cacheable file, submitted with both
  // shards connected and idle. The first group lands wherever the load
  // tie-break puts it and ships the file; affinity must then pull every
  // later group to that same shard — the idle sibling's lighter load never
  // wins against a warm cache — so the file crosses the root link exactly
  // once.
  for (int g = 0; g < 4; ++g) {
    root.submit(make_group("warm" + std::to_string(g),
                           1 + static_cast<uint64_t>(g) * 10));
  }

  const RootStats stats = root.run_until_complete(60.0);
  ta.join();
  tb.join();
  wa.join();
  wb.join();

  EXPECT_EQ(stats.tasks_completed, 8);
  EXPECT_EQ(stats.files_sent, 1) << "warm groups re-shipped their file";
  // One shard did everything; the idle sibling stayed cold.
  EXPECT_TRUE(fa.results_relayed() == 8 || fb.results_relayed() == 8);
}

TEST(Federation, JournalDoneFlagsSurviveRestartExactlyOnce) {
  // Round 1: complete three tasks with a journal attached.
  chaos::Journal journal;
  {
    net::EventLoop loop;
    RootMasterConfig rc;
    rc.journal = &journal;
    RootMaster root(loop, rc);
    TaskGroup g;
    g.name = "round1";
    for (uint64_t id = 1; id <= 3; ++id) g.tasks.push_back(echo_task(id));
    root.submit(std::move(g));
    ForemanConfig fc;
    fc.name = "fj";
    fc.root_port = root.port();
    Foreman foreman(fc);
    std::thread ft([&] { foreman.run(); });
    EchoWorker w(foreman.worker_port(), "wj");
    const RootStats stats = root.run_until_complete(60.0);
    ft.join();
    w.join();
    EXPECT_EQ(stats.tasks_completed, 3);
  }
  EXPECT_EQ(journal.completed_task_ids(),
            (std::unordered_set<uint64_t>{1, 2, 3}));

  // Round 2: a restarted root re-submits the same tasks plus a new one.
  // The recovered done flags keep 1..3 off the wire entirely.
  net::EventLoop loop;
  RootMaster root(loop, {});
  root.recover(journal);
  TaskGroup g;
  g.name = "round2";
  for (uint64_t id = 1; id <= 4; ++id) g.tasks.push_back(echo_task(id));
  root.submit(std::move(g));
  ForemanConfig fc;
  fc.name = "fj2";
  fc.root_port = root.port();
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  EchoWorker w(foreman.worker_port(), "wj2");
  std::map<uint64_t, wq::ResultMessage> results;  // by task id
  root.set_on_result(
      [&](const wq::ResultMessage& r) { results.emplace(r.task_id, r); });
  const RootStats stats = root.run_until_complete(60.0);
  ft.join();
  w.join();

  EXPECT_EQ(stats.recovered_done, 3);
  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_EQ(foreman.tasks_received(), 1) << "a recovered task was re-dispatched";
  EXPECT_EQ(root.statusz_value().as_dict().at("tasks_submitted").as_int(), 4);
  ASSERT_EQ(results.size(), 1u) << "a recovered task reported a result";
  EXPECT_EQ(results.at(4).payload, (serde::Bytes{'p', 'o', 'n', 'g'}));
}

TEST(Federation, RequeuedGroupRerunsOnTheShardThatAlreadyFinishedIt) {
  // The root drops a live foreman's link while the foreman's results are
  // on the wire: the root blocks in its first result callback long enough
  // for the shard to finish and report the whole group, then closes the
  // link with those reports unread. The group is requeued and routed back
  // to the same (only) foreman, whose relay ledger has already completed
  // those tasks. It must run them again and report them, or the root
  // waits forever.
  net::EventLoop loop;
  RootMaster root(loop, {});
  ForemanConfig fc;
  fc.name = "fr";
  fc.root_port = root.port();
  fc.service.tasks_per_worker = 1;  // one result per upward frame
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  EchoWorker w(foreman.worker_port(), "wr");
  await_foremen(loop, root, 1);

  const int kTasks = 12;
  TaskGroup g;
  g.name = "rerun";
  for (uint64_t id = 1; id <= kTasks; ++id) g.tasks.push_back(echo_task(id));
  root.submit(std::move(g));

  std::map<uint64_t, int> events;
  bool dropped = false;
  root.set_on_result([&](const wq::ResultMessage& r) {
    events[r.task_id]++;
    if (dropped) return;
    dropped = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_TRUE(root.kill_foreman(0));
  });
  const RootStats stats = root.run_until_complete(30.0);
  ft.join();
  w.join();

  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(stats.requeued_groups, 1);
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) EXPECT_EQ(n, 1) << "task " << id;
  // The shard saw the unread tasks twice: once first, once on the requeue.
  EXPECT_GT(foreman.tasks_received(), kTasks);
}

// --- one link policy for both dispatch tiers ---------------------------------

void run_for(net::EventLoop& loop, double seconds) {
  loop.run_after(seconds, [&loop] { loop.stop(); });
  loop.run();
}

// A raw peer that says hello and then never reads or writes again — a
// worker (or foreman) stuck inside a long synchronous execution looks
// exactly like this from the tier's side.
struct SilentPeer {
  SilentPeer(uint16_t port, const std::string& name)
      : fd(net::connect_tcp("127.0.0.1", port)) {
    const std::string hello = wq::encode(
        wq::HelloMessage{name, wq::WireVersion::kV2, {1.0, 1e9, 1e9}},
        wq::WireVersion::kV2);
    EXPECT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(hello.size()));
  }
  ~SilentPeer() { ::close(fd); }
  // True once the tier has closed its end (after whatever it queued).
  bool closed_by_tier() const {
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) continue;
      return n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    }
  }
  int fd;
};

TEST(PeerHub, SameIdlePolicyOnBothTiers) {
  // One rule for MasterService and RootMaster alike: a link with work in
  // flight is neither pinged nor idle-closed, since its peer may be deep in
  // an execution that reads nothing; a silent link without work is closed
  // after idle_timeout.
  const auto check = [](net::EventLoop& loop, uint16_t port,
                        const std::function<int()>& connected,
                        const char* tier) {
    SilentPeer busy(port, "busy");
    run_for(loop, 0.1);  // the hello lands and the only work goes to `busy`
    SilentPeer idle(port, "idle");
    run_for(loop, 0.8);  // several idle timeouts
    EXPECT_FALSE(busy.closed_by_tier()) << tier << ": busy link was closed";
    EXPECT_TRUE(idle.closed_by_tier()) << tier << ": idle link stayed open";
    EXPECT_EQ(connected(), 1) << tier;
  };
  {
    net::EventLoop loop;
    net::MasterServiceConfig mc;
    mc.heartbeat_interval = 0.05;
    mc.idle_timeout = 0.2;
    net::MasterService master(loop, mc);
    master.submit(echo_task(1));
    check(loop, master.port(), [&] { return master.connected_workers(); },
          "MasterService");
  }
  {
    net::EventLoop loop;
    RootMasterConfig rc;
    rc.heartbeat_interval = 0.05;
    rc.idle_timeout = 0.2;
    RootMaster root(loop, rc);
    TaskGroup group;
    group.name = "busy";
    group.tasks.push_back(echo_task(1));
    root.submit(std::move(group));
    check(loop, root.port(), [&] { return root.connected_foremen(); },
          "RootMaster");
  }
}

TEST(Foreman, GivesUpOnARootThatNeverSpeaks) {
  // The kernel completes a connect into a listen backlog even when nobody
  // accepts, so the foreman's hello goes unanswered forever. The handshake
  // timeout must drop that link and, with no reconnect budget, give up —
  // without it run() never returns (hence the watchdog).
  const int lfd = net::listen_tcp(0);
  obs::Metrics m("silent.");
  ForemanConfig fc;
  fc.name = "fs";
  fc.root_port = net::local_port(lfd);
  fc.max_reconnect_attempts = 0;
  fc.metrics = &m;
  Foreman foreman(fc);
  std::atomic<bool> returned{false};
  std::thread runner([&] {
    foreman.run();
    returned.store(true);
  });
  // The handshake timeout is 5 s; 30 s means it never fired.
  for (int i = 0; i < 300 && !returned.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const bool hung = !returned.load();
  if (hung) foreman.stop();
  runner.join();
  ::close(lfd);
  EXPECT_FALSE(hung) << "Foreman::run() waited on a silent root";
  EXPECT_TRUE(foreman.gave_up());
  EXPECT_EQ(m.counter("foreman.reconnect_give_ups").value(), 1);
}

// --- end-to-end: root <-> forked foreman processes <-> forked workers --------

pid_t fork_python_worker(uint16_t port, const std::string& name,
                         bool traced = false) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Drop inherited fds: a surviving copy of a parent listener keeps its
  // port accepting after that tier stops serving it (see net/socket.h).
  net::close_inherited_fds();
  int status = 1;
  try {
    if (traced) {
      obs::Recorder::global().set_enabled(true);
      obs::Recorder::global().clear();
    }
    net::WorkerClientOptions o;
    o.port = port;
    o.name = name;
    o.worker.poll_interval = 0.01;
    // Orphan discipline: a worker whose foreman was SIGKILLed reconnects
    // into the dead shard's inherited listener backlog and hears silence;
    // the short idle timeout plus the finite budget (which a bare accept no
    // longer refills) gets it out cleanly.
    o.idle_timeout = 0.5;
    o.max_reconnect_attempts = 4;
    chaos::RetryPolicy fast;
    fast.backoff_base = 0.01;
    fast.backoff_max = 0.05;
    o.reconnect = fast;
    net::WorkerClient client(o);
    client.run();
    status = 0;
  } catch (...) {
  }
  _exit(status);
}

pid_t fork_foreman(uint16_t root_port, const std::string& name, int workers,
                   bool traced = false) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  net::close_inherited_fds();
  int status = 1;
  try {
    if (traced) {
      obs::Recorder::global().set_enabled(true);
      obs::Recorder::global().clear();
    }
    ForemanConfig fc;
    fc.name = name;
    fc.root_port = root_port;
    fc.stats_interval = 0.02;
    fc.service.tasks_per_worker = 4;
    Foreman foreman(fc);
    // The shard's workers are forked from inside the shard process, so no
    // port needs reserving: the ephemeral worker_port() is already bound.
    std::vector<pid_t> kids;
    for (int i = 0; i < workers; ++i) {
      kids.push_back(fork_python_worker(
          foreman.worker_port(), name + "-w" + std::to_string(i), traced));
    }
    foreman.run();
    status = 0;
    for (const pid_t kid : kids) {
      int s = -1;
      if (waitpid(kid, &s, 0) != kid || !WIFEXITED(s) || WEXITSTATUS(s) != 0) {
        status = 1;
      }
    }
  } catch (...) {
  }
  _exit(status);
}

TEST(FedEndToEnd, ForemanKillMidRunCompletesExactlyOnceBitIdentical) {
  const char* module = R"(
def mul(a, b):
    return {'v': a * b, 'd': a - b}
)";
  const int kGroups = 8, kPerGroup = 4;
  const int kTasks = kGroups * kPerGroup;
  std::vector<std::pair<wq::TaskMessage, wq::FileSet>> specs;
  for (int i = 0; i < kTasks; ++i) {
    serde::ValueList args;
    args.push_back(serde::Value(int64_t{i}));
    args.push_back(serde::Value(int64_t{37 + i}));
    specs.push_back(wq::make_python_task(500 + static_cast<uint64_t>(i), "mul",
                                         module, "mul",
                                         serde::Value(std::move(args)),
                                         alloc::Resources{1.0, 512e6, 1e9}));
  }
  // Reference run: the same messages through an in-process LocalWorker.
  std::vector<serde::Bytes> expected;
  {
    wq::LocalWorkerOptions wo;
    wo.poll_interval = 0.01;
    wq::LocalWorker direct(wo);
    for (const auto& [task, files] : specs) {
      const wq::ResultMessage r = direct.execute(task, files);
      ASSERT_EQ(r.exit_code, 0) << "task " << task.task_id;
      expected.push_back(r.payload);
    }
  }

  net::EventLoop loop;
  RootMasterConfig rc;
  rc.groups_per_foreman = 4;
  RootMaster root(loop, rc);
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "eg" + std::to_string(g);
    for (int i = 0; i < kPerGroup; ++i) {
      auto& [task, files] = specs[g * kPerGroup + i];
      group.tasks.push_back(task);
      for (const auto& [n, b] : files) group.files.emplace(n, b);
    }
    root.submit(std::move(group));
  }

  const pid_t victim = fork_foreman(root.port(), "fk0", 2);
  const pid_t survivor = fork_foreman(root.port(), "fk1", 2);

  std::map<uint64_t, int> events;
  std::map<uint64_t, wq::ResultMessage> results;  // by task id
  bool killed = false;
  root.set_on_result([&](const wq::ResultMessage& r) {
    events[r.task_id]++;
    results.emplace(r.task_id, r);
    if (!killed) {
      // Kill only once the victim shard verifiably holds in-flight groups
      // (a group leaves the load set strictly before its last result), so
      // the SIGKILL is guaranteed to orphan work that must requeue to the
      // survivor.
      const std::map<std::string, size_t> loads = root.shard_loads();
      auto it = loads.find("fk0");
      if (it != loads.end() && it->second >= 1) {
        killed = true;
        ::kill(victim, SIGKILL);
      }
    }
  });
  const RootStats stats = root.run_until_complete(120.0);

  EXPECT_TRUE(killed);
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(stats.foremen_lost, 2);  // one murdered, one clean bye
  EXPECT_GE(stats.requeued_groups, 1);
  EXPECT_GE(stats.requeued_tasks, 1);
  EXPECT_GE(stats.stats_frames, 1);
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) {
    EXPECT_EQ(n, 1) << "task " << id << " reported " << n << " times";
  }
  ASSERT_EQ(results.size(), static_cast<size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    const wq::ResultMessage& r = results.at(500 + static_cast<uint64_t>(i));
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.payload, expected[i]) << "payload differs for task " << r.task_id;
  }

  int status = -1;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  status = -1;
  ASSERT_EQ(waitpid(survivor, &status, 0), survivor);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "surviving foreman exited " << status;
}

TEST(FedEndToEnd, TraceSpansOneTaskAcrossThreeProcessLanes) {
  // The whole-tree tracing claim at test scale: a root, two forked foreman
  // processes, four forked workers, every process recording. After the run
  // the root's collector must hold at least one trace id whose
  // submit→ship→run→result spans appear in three distinct process lanes
  // and nest once timestamps are normalized into the root's clock.
  const char* module = R"(
def inc(x):
    return x + 1
)";
  obs::Recorder::global().set_enabled(true);
  obs::Recorder::global().clear();
  obs::Collector collector;

  net::EventLoop loop;
  RootMasterConfig rc;
  rc.groups_per_foreman = 4;
  rc.collector = &collector;
  RootMaster root(loop, rc);
  const int kGroups = 4, kPerGroup = 4;
  const int kTasks = kGroups * kPerGroup;
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "tg" + std::to_string(g);
    for (int i = 0; i < kPerGroup; ++i) {
      serde::ValueList args;
      args.push_back(serde::Value(int64_t{g * kPerGroup + i}));
      auto [task, files] = wq::make_python_task(
          900 + static_cast<uint64_t>(g * kPerGroup + i), "inc", module, "inc",
          serde::Value(std::move(args)), alloc::Resources{1.0, 512e6, 1e9});
      group.tasks.push_back(task);
      for (const auto& [n, b] : files) group.files.emplace(n, b);
    }
    root.submit(std::move(group));
  }

  // Forked children inherit stdio buffers; flush so a piped stdout (ctest)
  // doesn't replay buffered output once per child.
  std::fflush(stdout);
  const pid_t f0 = fork_foreman(root.port(), "tt0", 2, /*traced=*/true);
  const pid_t f1 = fork_foreman(root.port(), "tt1", 2, /*traced=*/true);

  const RootStats stats = root.run_until_complete(120.0);
  int status = -1;
  ASSERT_EQ(waitpid(f0, &status, 0), f0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  status = -1;
  ASSERT_EQ(waitpid(f1, &status, 0), f1);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_GE(stats.telemetry_frames, 1);

  collector.add_local("root", obs::Recorder::global().drain_events());
  obs::Recorder::global().set_enabled(false);
  obs::Recorder::global().clear();
  // Every tier contributed: the root plus at least one foreman process and
  // one worker process (2 foremen x (1 + 2 workers) = up to 7 sources).
  EXPECT_GE(collector.source_count(), 3u);

  struct PerTrace {
    bool has_task = false;
    double task_begin = 0.0, task_end = 0.0;
    std::vector<double> inflight_begin, inflight_end;
    std::vector<double> run_begin, run_end;
    std::map<uint64_t, int> lanes;
  };
  std::map<uint64_t, PerTrace> traces;
  for (const auto& ev : collector.events()) {
    if (ev.trace_id == 0) continue;
    PerTrace& t = traces[ev.trace_id];
    ++t.lanes[ev.pid];
    if (ev.ph == 'X' && ev.name == "task") {
      t.has_task = true;
      t.task_begin = ev.ts;
      t.task_end = ev.ts + ev.dur;
    }
    if (ev.ph == 'X' && ev.name == "task.inflight") {
      t.inflight_begin.push_back(ev.ts);
      t.inflight_end.push_back(ev.ts + ev.dur);
    }
    if (ev.ph == 'B' && ev.name == "lfm.run") t.run_begin.push_back(ev.ts);
    if (ev.ph == 'E') t.run_end.push_back(ev.ts);
  }
  EXPECT_EQ(traces.size(), static_cast<size_t>(kTasks));

  // Two relay hops (worker->foreman->root), each clock estimate bounded by
  // its link's RTT/2.
  const double kSkewTolerance = 2e-3;
  int nested_three_lanes = 0;
  for (const auto& [id, t] : traces) {
    if (!t.has_task || t.lanes.size() < 3) continue;
    if (t.inflight_begin.empty() || t.run_begin.empty() || t.run_end.empty()) {
      continue;
    }
    const double in_first =
        *std::min_element(t.inflight_begin.begin(), t.inflight_begin.end());
    const double in_last =
        *std::max_element(t.inflight_end.begin(), t.inflight_end.end());
    const double run_first =
        *std::min_element(t.run_begin.begin(), t.run_begin.end());
    const double run_last =
        *std::max_element(t.run_end.begin(), t.run_end.end());
    const bool inflight_in_task =
        t.task_begin - kSkewTolerance <= in_first &&
        in_last <= t.task_end + kSkewTolerance;
    const bool run_in_inflight = in_first - kSkewTolerance <= run_first &&
                                 run_first <= run_last &&
                                 run_last <= in_last + kSkewTolerance;
    if (inflight_in_task && run_in_inflight) ++nested_three_lanes;
  }
  EXPECT_GE(nested_three_lanes, 1)
      << "no trace id spanned three process lanes with nested "
         "task / task.inflight / lfm.run spans";
}

}  // namespace
}  // namespace lfm::fed
