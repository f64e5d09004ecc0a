// Federated foreman tier throughput (src/fed/): a live RootMaster sharding
// task groups over forked Foreman processes, each running its own
// MasterService over forked workers — the whole two-level tree on loopback.
//
// Three phases:
//
//   1. Foreman-count scaling — the same echo workload (wire-only, no LFM
//      fork) dispatched through 1, 2, and 4 foreman processes with two
//      echo workers each. Rows measure end-to-end group throughput at the
//      root; the 4-vs-1 ratio is the headline. On a single-core runner the
//      processes time-slice one CPU, so the >= 1.5x expectation is only
//      checked when the machine has >= 4 hardware threads.
//
//   2. Warm-sibling caching — eight groups all naming the same 1 MiB
//      cacheable file, run (a) through a flat MasterService fanning out to
//      4 workers and (b) through the federated tree. Flat, the master
//      ships the file once per worker link; federated, cache-affinity
//      routing concentrates the groups on the warm shard and the file
//      crosses the root link once, with the foreman-tier chunk cache
//      fanning it out locally. The row compares bytes sent at the top
//      link.
//
//   3. End-to-end kill — >= 1k Python tasks in 25-task groups through two
//      foreman processes (two LFM workers each), with one foreman
//      SIGKILLed mid-run once it verifiably holds in-flight groups. The
//      same tasks run through an in-process LocalWorker first; the bench
//      verifies exactly-once completion and bit-identical payloads across
//      the kill (requeue to the surviving shard, done-flag dedup).
//
// Usage:
//   scale_fed                          # 6000 echo tasks/run, 1000 e2e tasks
//   scale_fed N                        # echo task count per scaling run
//   scale_fed --e2e M                  # e2e task count
//   scale_fed --json BENCH_fed.json --check
//   scale_fed --trace                  # extra traced phase: root + 2 foremen
//                                      # + 4 LFM workers with distributed
//                                      # tracing on, merged into ONE
//                                      # Perfetto-loadable trace
//   scale_fed --trace-out PATH         # where the merged trace lands
//                                      # (default obs_out/scale_fed.trace.json)
//   scale_fed --http PORT              # live /metrics /healthz /statusz on
//                                      # the traced root (0 = ephemeral);
//                                      # the port prints only after a
//                                      # successful bind, bind failure exits
//                                      # nonzero immediately
//   scale_fed --http-linger SECONDS    # keep serving that long after the
//                                      # traced run completes
//
// --check exits nonzero unless the warm workload ships fewer top-link
// bytes federated than flat, the e2e phase preserved exactly-once
// bit-identical results across the foreman kill, and (on >= 4 hardware
// threads) 4 foremen beat 1 foreman by >= 1.5x. With --trace it also
// requires some task's spans to land in >= 3 process lanes of the merged
// trace under one trace id.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fed/foreman.h"
#include "fed/root_master.h"
#include "net/event_loop.h"
#include "net/master_service.h"
#include "net/socket.h"
#include "net/worker_client.h"
#include "obs/collector.h"
#include "obs/http_export.h"
#include "obs/recorder.h"
#include "serde/pickle.h"
#include "util/error.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace {

using namespace lfm;

constexpr int kWorkersPerForeman = 2;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

wq::TaskMessage echo_task(uint64_t id) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = "fed-bench";
  t.command_line = "echo";  // never executed: workers run in echo mode
  t.allocation = alloc::Resources{1.0, 512e6, 1e9};
  return t;
}

pid_t fork_echo_worker(uint16_t port, const std::string& name) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Drop inherited fds: a surviving copy of a parent listener keeps its
  // port accepting after that tier stops serving it (see net/socket.h).
  net::close_inherited_fds();
  int status = 1;
  try {
    net::WorkerClientOptions o;
    o.port = port;
    o.name = name;
    o.echo_results = true;
    o.echo_payload = serde::Bytes{'o', 'k'};
    net::WorkerClient client(o);
    client.run();
    status = 0;
  } catch (...) {
  }
  _exit(status);
}

// A foreman process that forks its own echo workers: no port reservation
// needed, the ephemeral worker_port() is bound before the forks.
pid_t fork_echo_foreman(uint16_t root_port, const std::string& name) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  net::close_inherited_fds();
  int status = 1;
  try {
    fed::ForemanConfig fc;
    fc.name = name;
    fc.root_port = root_port;
    fc.service.tasks_per_worker = 32;
    fc.stats_interval = 0.2;
    fed::Foreman foreman(fc);
    std::vector<pid_t> kids;
    for (int i = 0; i < kWorkersPerForeman; ++i) {
      kids.push_back(
          fork_echo_worker(foreman.worker_port(), name + "-w" + std::to_string(i)));
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

pid_t fork_python_worker(uint16_t port, const std::string& name,
                         bool traced = false) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  net::close_inherited_fds();
  int status = 1;
  try {
    if (traced) {
      // Fresh recorder state in the child: events buffered in the parent
      // before the fork must not ship twice.
      obs::Recorder::global().set_enabled(true);
      obs::Recorder::global().clear();
    }
    net::WorkerClientOptions o;
    o.port = port;
    o.name = name;
    o.worker.poll_interval = 0.01;
    // Orphan discipline after a SIGKILLed foreman: short idle timeout plus
    // a finite budget that bare accepts do not refill.
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

pid_t fork_lfm_foreman(uint16_t root_port, const std::string& name,
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
    fed::ForemanConfig fc;
    fc.name = name;
    fc.root_port = root_port;
    fc.stats_interval = 0.1;
    fc.service.tasks_per_worker = 4;
    fed::Foreman foreman(fc);
    std::vector<pid_t> kids;
    for (int i = 0; i < kWorkersPerForeman; ++i) {
      kids.push_back(fork_python_worker(foreman.worker_port(),
                                        name + "-w" + std::to_string(i),
                                        traced));
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

void reap(std::vector<pid_t>& pids, const char* phase) {
  for (const pid_t pid : pids) {
    int status = -1;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "scale_fed: %s child %d exited abnormally\n", phase,
                   pid);
      std::exit(1);
    }
  }
  pids.clear();
}

// Run the root's loop until `n` foremen are connected, so the timed window
// starts from a fully formed topology.
void await_foremen(net::EventLoop& loop, fed::RootMaster& root, int n) {
  const uint64_t poll = loop.run_every(0.005, [&] {
    if (root.connected_foremen() >= n) loop.stop();
  });
  const uint64_t watchdog = loop.run_after(60.0, [&] { loop.stop(); });
  loop.run();
  loop.cancel_timer(poll);
  loop.cancel_timer(watchdog);
  if (root.connected_foremen() < n) {
    std::fprintf(stderr, "scale_fed: only %d of %d foremen connected\n",
                 root.connected_foremen(), n);
    std::exit(1);
  }
}

// --- phase 1: foreman-count scaling ------------------------------------------

struct ScaleRow {
  int foremen = 0;
  double tasks_per_sec = 0.0;
  double wall_seconds = 0.0;
};

ScaleRow run_scaling(int foremen, size_t n) {
  constexpr size_t kPerGroup = 50;
  net::EventLoop loop;
  fed::RootMasterConfig rc;
  rc.groups_per_foreman = 4;
  fed::RootMaster root(loop, rc);

  std::vector<pid_t> pids;
  for (int f = 0; f < foremen; ++f) {
    pids.push_back(fork_echo_foreman(
        root.port(), "s" + std::to_string(foremen) + "f" + std::to_string(f)));
  }
  await_foremen(loop, root, foremen);

  const auto t0 = std::chrono::steady_clock::now();
  uint64_t next_id = 1;
  size_t remaining = n;
  int g = 0;
  while (remaining > 0) {
    fed::TaskGroup group;
    group.name = "sg" + std::to_string(g++);
    const size_t take = remaining < kPerGroup ? remaining : kPerGroup;
    for (size_t i = 0; i < take; ++i) group.tasks.push_back(echo_task(next_id++));
    remaining -= take;
    root.submit(std::move(group));
  }
  const fed::RootStats stats = root.run_until_complete(600.0);
  const double dt = seconds_since(t0);
  reap(pids, "scaling");

  if (stats.tasks_completed != static_cast<int64_t>(n) ||
      stats.duplicate_results != 0) {
    std::fprintf(stderr, "scale_fed: scaling run f=%d completed %lld of %zu\n",
                 foremen, static_cast<long long>(stats.tasks_completed), n);
    std::exit(1);
  }
  return {foremen, static_cast<double>(n) / dt, dt};
}

// --- phase 2: warm-sibling caching -------------------------------------------

struct WarmResult {
  int64_t flat_bytes_sent = 0;       // flat MasterService -> 4 worker links
  int64_t federated_bytes_sent = 0;  // RootMaster -> foreman links
  int64_t federated_files_sent = 0;
};

constexpr int kWarmGroups = 8;
constexpr int kWarmPerGroup = 2;
constexpr size_t kWarmFileBytes = 1u << 20;

serde::Bytes warm_file() {
  serde::Bytes file(kWarmFileBytes);
  for (size_t i = 0; i < file.size(); ++i) {
    file[i] = static_cast<uint8_t>(i * 2654435761u >> 13);
  }
  return file;
}

int64_t run_warm_flat() {
  const serde::Bytes file = warm_file();
  net::EventLoop loop;
  net::MasterServiceConfig config;
  config.tasks_per_worker = 1;
  net::MasterService master(loop, config);
  uint64_t id = 1;
  for (int g = 0; g < kWarmGroups; ++g) {
    for (int i = 0; i < kWarmPerGroup; ++i) {
      wq::TaskMessage t = echo_task(id++);
      t.infiles.push_back({"big.dat", static_cast<int64_t>(file.size()), true});
      wq::FileSet files;
      files.emplace("big.dat", file);
      master.submit(std::move(t), files);
    }
  }
  std::vector<pid_t> pids;
  for (int w = 0; w < 4; ++w) {
    pids.push_back(fork_echo_worker(master.port(), "flat-w" + std::to_string(w)));
  }
  const net::NetMasterStats stats = master.run_until_complete(600.0);
  reap(pids, "warm-flat");
  if (stats.tasks_completed != kWarmGroups * kWarmPerGroup) {
    std::fprintf(stderr, "scale_fed: warm flat run incomplete\n");
    std::exit(1);
  }
  return stats.bytes_sent;
}

WarmResult run_warm() {
  WarmResult r;
  r.flat_bytes_sent = run_warm_flat();

  const serde::Bytes file = warm_file();
  net::EventLoop loop;
  fed::RootMasterConfig rc;
  // Depth >= group count: affinity is free to concentrate every warm group
  // on the shard that already holds the file.
  rc.groups_per_foreman = kWarmGroups;
  fed::RootMaster root(loop, rc);
  std::vector<pid_t> pids;
  pids.push_back(fork_echo_foreman(root.port(), "warm-a"));
  pids.push_back(fork_echo_foreman(root.port(), "warm-b"));
  await_foremen(loop, root, 2);

  uint64_t id = 1;
  for (int g = 0; g < kWarmGroups; ++g) {
    fed::TaskGroup group;
    group.name = "warm" + std::to_string(g);
    for (int i = 0; i < kWarmPerGroup; ++i) {
      wq::TaskMessage t = echo_task(id++);
      t.infiles.push_back({"big.dat", static_cast<int64_t>(file.size()), true});
      group.tasks.push_back(std::move(t));
    }
    group.files.emplace("big.dat", file);
    root.submit(std::move(group));
  }
  const fed::RootStats stats = root.run_until_complete(600.0);
  reap(pids, "warm-fed");
  if (stats.tasks_completed != kWarmGroups * kWarmPerGroup) {
    std::fprintf(stderr, "scale_fed: warm federated run incomplete\n");
    std::exit(1);
  }
  r.federated_bytes_sent = stats.bytes_sent;
  r.federated_files_sent = stats.files_sent;
  return r;
}

// --- phase 3: end-to-end kill ------------------------------------------------

struct E2eResult {
  size_t tasks = 0;
  bool killed = false;
  bool exactly_once = false;
  bool bit_identical = false;
  double wall_seconds = 0.0;
  fed::RootStats stats;
};

E2eResult run_e2e(size_t n) {
  const char* module = R"(
def mix(a, b):
    return {'sum': a + b, 'prod': a * b}
)";
  constexpr size_t kPerGroup = 25;
  std::vector<std::pair<wq::TaskMessage, wq::FileSet>> specs;
  specs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    serde::ValueList args;
    args.push_back(serde::Value(static_cast<int64_t>(i)));
    args.push_back(serde::Value(static_cast<int64_t>(7919 + i)));
    specs.push_back(wq::make_python_task(1000 + i, "mix", module, "mix",
                                         serde::Value(std::move(args)),
                                         alloc::Resources{1.0, 512e6, 1e9}));
  }

  E2eResult r;
  r.tasks = n;

  // In-process reference: the bit-identity baseline.
  std::vector<serde::Bytes> expected(n);
  {
    wq::LocalWorkerOptions wo;
    wo.poll_interval = 0.005;
    wq::LocalWorker direct(wo);
    for (size_t i = 0; i < n; ++i) {
      const wq::ResultMessage res =
          direct.execute(specs[i].first, specs[i].second);
      if (res.exit_code != 0) {
        std::fprintf(stderr, "scale_fed: direct task %zu failed\n", i);
        std::exit(1);
      }
      expected[i] = res.payload;
    }
  }

  net::EventLoop loop;
  fed::RootMasterConfig rc;
  rc.groups_per_foreman = 4;
  fed::RootMaster root(loop, rc);

  const pid_t victim = fork_lfm_foreman(root.port(), "e0");
  const pid_t survivor = fork_lfm_foreman(root.port(), "e1");
  await_foremen(loop, root, 2);

  size_t next = 0;
  int g = 0;
  while (next < n) {
    fed::TaskGroup group;
    group.name = "eg" + std::to_string(g++);
    const size_t take = (n - next) < kPerGroup ? (n - next) : kPerGroup;
    for (size_t i = 0; i < take; ++i) {
      auto& [task, files] = specs[next++];
      group.tasks.push_back(task);
      for (const auto& [fname, bytes] : files) group.files.emplace(fname, bytes);
    }
    root.submit(std::move(group));
  }

  std::map<uint64_t, int> seen;
  size_t matched = 0;  // results bit-identical to the in-process reference
  root.set_on_result([&](const wq::ResultMessage& msg) {
    seen[msg.task_id] += 1;
    const uint64_t i = msg.task_id - 1000;
    if (i < n && msg.exit_code == 0 && msg.payload == expected[i]) ++matched;
    if (!r.killed) {
      // Kill only once the victim shard verifiably holds in-flight groups,
      // so the SIGKILL is guaranteed to orphan work that must requeue.
      const std::map<std::string, size_t> loads = root.shard_loads();
      auto it = loads.find("e0");
      if (it != loads.end() && it->second >= 1) {
        r.killed = true;
        ::kill(victim, SIGKILL);
      }
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  r.stats = root.run_until_complete(600.0);
  r.wall_seconds = seconds_since(t0);

  int status = -1;
  if (waitpid(victim, &status, 0) != victim || !WIFSIGNALED(status) ||
      WTERMSIG(status) != SIGKILL) {
    std::fprintf(stderr, "scale_fed: victim foreman not killed as expected\n");
    std::exit(1);
  }
  status = -1;
  if (waitpid(survivor, &status, 0) != survivor || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "scale_fed: surviving foreman exited abnormally\n");
    std::exit(1);
  }

  r.exactly_once = seen.size() == n;
  for (const auto& [id, count] : seen) {
    if (count != 1) r.exactly_once = false;
  }
  r.bit_identical = matched == n;
  return r;
}

// --- traced phase: distributed tracing across the forked tree ----------------

struct HttpOptions {
  bool enabled = false;
  uint16_t port = 0;
  double linger = 0.0;  // serve this long after the run completes
};

struct TraceResult {
  size_t tasks = 0;
  size_t events = 0;         // merged events in the collector
  size_t sources = 0;        // distinct (process, clock-domain) lanes
  size_t max_lanes = 0;      // most lanes any one trace id spans
  uint64_t sample_trace = 0; // a trace id achieving max_lanes
  int64_t telemetry_frames = 0;
  int64_t dropped = 0;
  double wall_seconds = 0.0;
  std::string path;
};

// One forked-tree run. `telemetry` off runs the identical topology and
// workload with no process recording — the baseline for the overhead
// measurement. An empty `out_path` skips writing the merged document.
TraceResult run_traced(size_t n, const std::string& out_path,
                       const HttpOptions& http_opts, bool telemetry = true) {
  const char* module = R"(
def mix(a, b):
    return {'sum': a + b, 'prod': a * b}
)";
  constexpr size_t kPerGroup = 25;
  // Forked children inherit stdio buffers; flush so a piped stdout doesn't
  // replay earlier phases' output once per child.
  std::fflush(stdout);
  obs::Recorder& rec = obs::Recorder::global();
  if (telemetry) {
    rec.set_enabled(true);
    rec.clear();
  }

  obs::Collector collector;
  net::EventLoop loop;
  fed::RootMasterConfig rc;
  rc.groups_per_foreman = 4;
  if (telemetry) rc.collector = &collector;
  fed::RootMaster root(loop, rc);

  std::unique_ptr<obs::HttpEndpoint> http;
  if (http_opts.enabled) {
    obs::HttpEndpointConfig hc;
    hc.port = http_opts.port;
    hc.statusz = [&root] { return root.statusz_value(); };
    try {
      http = std::make_unique<obs::HttpEndpoint>(loop, hc);
    } catch (const Error& e) {
      std::fprintf(stderr, "scale_fed: http bind failed on port %u: %s\n",
                   http_opts.port, e.what());
      std::exit(1);
    }
    // Printed only after the successful bind — safe to script against.
    std::printf("scale_fed: http endpoint listening on 127.0.0.1:%u\n",
                http->port());
    std::fflush(stdout);
  }

  // The acceptance topology: this process is the root, two forked foremen,
  // each forking kWorkersPerForeman LFM workers — every process tracing.
  std::vector<pid_t> pids;
  pids.push_back(fork_lfm_foreman(root.port(), "t0", /*traced=*/telemetry));
  pids.push_back(fork_lfm_foreman(root.port(), "t1", /*traced=*/telemetry));
  await_foremen(loop, root, 2);

  size_t next = 0;
  int g = 0;
  uint64_t id = 1;
  while (next < n) {
    fed::TaskGroup group;
    group.name = "tg" + std::to_string(g++);
    const size_t take = (n - next) < kPerGroup ? (n - next) : kPerGroup;
    for (size_t i = 0; i < take; ++i) {
      serde::ValueList args;
      args.push_back(serde::Value(static_cast<int64_t>(next)));
      args.push_back(serde::Value(static_cast<int64_t>(7919 + next)));
      auto [task, files] = wq::make_python_task(
          id++, "mix", module, "mix", serde::Value(std::move(args)),
          alloc::Resources{1.0, 512e6, 1e9});
      group.tasks.push_back(std::move(task));
      for (auto& [fname, bytes] : files) group.files.emplace(fname, bytes);
      ++next;
    }
    root.submit(std::move(group));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const fed::RootStats stats = root.run_until_complete(600.0);
  const double wall = seconds_since(t0);
  reap(pids, "traced");
  if (stats.tasks_completed != static_cast<int64_t>(n)) {
    std::fprintf(stderr, "scale_fed: traced run completed %lld of %zu\n",
                 static_cast<long long>(stats.tasks_completed), n);
    std::exit(1);
  }
  if (http && http_opts.linger > 0) {
    loop.run_after(http_opts.linger, [&loop] { loop.stop(); });
    loop.run();
    std::printf("scale_fed: http served %lld request(s)\n",
                static_cast<long long>(http->requests_served()));
  }

  // The root's own spans merge last (same clock, no offset), then the whole
  // tree lands in one Perfetto-loadable document.
  if (telemetry) {
    collector.add_local("root", rec.drain_events());
    if (!out_path.empty()) collector.write(out_path);
    rec.set_enabled(false);
    rec.clear();
  }

  TraceResult tr;
  tr.wall_seconds = wall;
  tr.tasks = n;
  tr.events = collector.event_count();
  tr.sources = collector.source_count();
  tr.telemetry_frames = stats.telemetry_frames;
  tr.dropped = collector.dropped_total();
  tr.path = out_path;
  // How many process lanes does the best-covered trace id span? The
  // acceptance bar is >= 3 (root, a foreman, a worker).
  std::map<uint64_t, std::set<uint64_t>> lanes_by_trace;
  for (const obs::TelemetryEvent& ev : collector.events()) {
    if (ev.trace_id != 0) lanes_by_trace[ev.trace_id].insert(ev.pid);
  }
  for (const auto& [trace, lanes] : lanes_by_trace) {
    if (lanes.size() > tr.max_lanes) {
      tr.max_lanes = lanes.size();
      tr.sample_trace = trace;
    }
  }
  return tr;
}

void write_json(const char* path, size_t echo_count,
                const std::vector<ScaleRow>& rows, double speedup,
                unsigned hw_threads, const WarmResult& warm,
                const E2eResult& e2e) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "scale_fed: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"scale_fed\",\n");
  std::fprintf(f, "  \"workers_per_foreman\": %d,\n", kWorkersPerForeman);
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hw_threads);
  std::fprintf(f, "  \"echo_tasks_per_run\": %zu,\n", echo_count);
  std::fprintf(f, "  \"scaling\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"foremen\": %d, \"tasks_per_sec\": %.0f, "
                 "\"wall_seconds\": %.3f}%s\n",
                 rows[i].foremen, rows[i].tasks_per_sec, rows[i].wall_seconds,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_4_foremen_vs_1\": %.2f,\n", speedup);
  std::fprintf(f, "  \"warm_sibling\": {\n");
  std::fprintf(f, "    \"groups\": %d,\n", kWarmGroups);
  std::fprintf(f, "    \"file_bytes\": %zu,\n", kWarmFileBytes);
  std::fprintf(f, "    \"flat_master_bytes_sent\": %lld,\n",
               static_cast<long long>(warm.flat_bytes_sent));
  std::fprintf(f, "    \"federated_root_bytes_sent\": %lld,\n",
               static_cast<long long>(warm.federated_bytes_sent));
  std::fprintf(f, "    \"federated_root_files_sent\": %lld,\n",
               static_cast<long long>(warm.federated_files_sent));
  std::fprintf(f, "    \"top_link_byte_ratio\": %.2f\n",
               static_cast<double>(warm.flat_bytes_sent) /
                   static_cast<double>(warm.federated_bytes_sent));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"e2e\": {\n");
  std::fprintf(f, "    \"tasks\": %zu,\n", e2e.tasks);
  std::fprintf(f, "    \"foremen\": 2,\n");
  std::fprintf(f, "    \"injected_foreman_kills\": %d,\n", e2e.killed ? 1 : 0);
  std::fprintf(f, "    \"completed\": %lld,\n",
               static_cast<long long>(e2e.stats.tasks_completed));
  std::fprintf(f, "    \"requeued_groups\": %lld,\n",
               static_cast<long long>(e2e.stats.requeued_groups));
  std::fprintf(f, "    \"requeued_tasks\": %lld,\n",
               static_cast<long long>(e2e.stats.requeued_tasks));
  std::fprintf(f, "    \"duplicate_results\": %lld,\n",
               static_cast<long long>(e2e.stats.duplicate_results));
  std::fprintf(f, "    \"foremen_lost\": %lld,\n",
               static_cast<long long>(e2e.stats.foremen_lost));
  std::fprintf(f, "    \"stats_frames\": %lld,\n",
               static_cast<long long>(e2e.stats.stats_frames));
  std::fprintf(f, "    \"exactly_once\": %s,\n",
               e2e.exactly_once ? "true" : "false");
  std::fprintf(f, "    \"bit_identical_to_in_process\": %s,\n",
               e2e.bit_identical ? "true" : "false");
  std::fprintf(f, "    \"net_wall_seconds\": %.3f\n", e2e.wall_seconds);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  size_t echo_count = 6000;
  size_t e2e_count = 1000;
  const char* json_path = nullptr;
  bool check = false;
  bool trace = false;
  std::string trace_out = "obs_out/scale_fed.trace.json";
  HttpOptions http_opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--e2e") == 0 && i + 1 < argc) {
      e2e_count = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace = true;
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--http") == 0 && i + 1 < argc) {
      http_opts.enabled = true;
      http_opts.port =
          static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--http-linger") == 0 && i + 1 < argc) {
      http_opts.linger = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      echo_count = static_cast<size_t>(std::strtoull(argv[i], nullptr, 10));
    }
  }
  if (echo_count == 0) echo_count = 6000;
  if (e2e_count == 0) e2e_count = 1000;
  const unsigned hw_threads = std::thread::hardware_concurrency();

  std::vector<ScaleRow> rows;
  for (const int f : {1, 2, 4}) rows.push_back(run_scaling(f, echo_count));
  const double speedup = rows.back().tasks_per_sec / rows.front().tasks_per_sec;

  std::printf("federated scaling (%zu echo tasks per run, %d workers per "
              "foreman, %u hw threads)\n",
              echo_count, kWorkersPerForeman, hw_threads);
  std::printf("%-10s %14s %14s\n", "foremen", "tasks/sec", "wall sec");
  for (const ScaleRow& row : rows) {
    std::printf("%-10d %14.0f %14.3f\n", row.foremen, row.tasks_per_sec,
                row.wall_seconds);
  }
  std::printf("4 foremen vs 1: %.2fx\n\n", speedup);

  const WarmResult warm = run_warm();
  std::printf("warm-sibling top-link bytes (%d groups sharing one %zu-byte "
              "cacheable file)\n",
              kWarmGroups, kWarmFileBytes);
  std::printf("  flat master -> workers: %lld bytes\n",
              static_cast<long long>(warm.flat_bytes_sent));
  std::printf("  federated root -> foremen: %lld bytes (%lld file frame(s))\n",
              static_cast<long long>(warm.federated_bytes_sent),
              static_cast<long long>(warm.federated_files_sent));
  std::printf("  top-link reduction: %.2fx\n\n",
              static_cast<double>(warm.flat_bytes_sent) /
                  static_cast<double>(warm.federated_bytes_sent));

  const E2eResult e2e = run_e2e(e2e_count);
  std::printf("end-to-end kill: %zu tasks, 2 foremen x %d workers, %s\n",
              e2e.tasks, kWorkersPerForeman,
              e2e.killed ? "1 foreman SIGKILLed" : "no kill injected");
  std::printf("  completed=%lld requeued_groups=%lld requeued_tasks=%lld "
              "duplicates=%lld lost=%lld\n",
              static_cast<long long>(e2e.stats.tasks_completed),
              static_cast<long long>(e2e.stats.requeued_groups),
              static_cast<long long>(e2e.stats.requeued_tasks),
              static_cast<long long>(e2e.stats.duplicate_results),
              static_cast<long long>(e2e.stats.foremen_lost));
  std::printf("  exactly_once=%s bit_identical=%s wall=%.3fs\n",
              e2e.exactly_once ? "yes" : "NO",
              e2e.bit_identical ? "yes" : "NO", e2e.wall_seconds);

  TraceResult traced;
  double trace_overhead_pct = 0.0;
  if (trace) {
    const size_t trace_tasks = e2e_count < 100 ? e2e_count : 100;
    // Telemetry overhead, interleaved min-of-5: alternate untraced and
    // traced runs of the identical topology and workload so drift (page
    // cache, CPU frequency) hits both sides equally; min wall per side.
    const HttpOptions no_http;
    double off_wall = 0.0;
    double on_wall = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const bool last = rep == 4;
      const TraceResult off =
          run_traced(trace_tasks, "", no_http, /*telemetry=*/false);
      if (rep == 0 || off.wall_seconds < off_wall) off_wall = off.wall_seconds;
      const TraceResult on =
          run_traced(trace_tasks, last ? trace_out : std::string(),
                     last ? http_opts : no_http, /*telemetry=*/true);
      if (rep == 0 || on.wall_seconds < on_wall) on_wall = on.wall_seconds;
      if (last) traced = on;
    }
    trace_overhead_pct = (on_wall - off_wall) / off_wall * 100.0;
    std::printf("\ndistributed trace: %zu tasks through root + 2 foremen + "
                "%d workers\n",
                traced.tasks, 2 * kWorkersPerForeman);
    std::printf("  telemetry off %.3fs, on %.3fs: %+.1f%% overhead "
                "(interleaved min of 5)\n",
                off_wall, on_wall, trace_overhead_pct);
    std::printf("  merged %zu event(s) from %zu process lane(s), %lld "
                "telemetry frame(s), %lld dropped\n",
                traced.events, traced.sources,
                static_cast<long long>(traced.telemetry_frames),
                static_cast<long long>(traced.dropped));
    std::printf("  best-covered trace id 0x%016llx spans %zu lane(s)\n",
                static_cast<unsigned long long>(traced.sample_trace),
                traced.max_lanes);
    std::printf("  wrote %s (load in ui.perfetto.dev)\n", traced.path.c_str());
  }

  if (json_path != nullptr) {
    write_json(json_path, echo_count, rows, speedup, hw_threads, warm, e2e);
  }

  if (check) {
    bool ok = true;
    if (hw_threads >= 4) {
      if (speedup < 1.5) {
        std::fprintf(stderr, "CHECK FAILED: 4 foremen only %.2fx 1 (< 1.5x)\n",
                     speedup);
        ok = false;
      }
    } else {
      std::printf("scaling gate skipped: %u hardware thread(s), processes "
                  "time-slice one core\n",
                  hw_threads);
    }
    if (warm.federated_bytes_sent >= warm.flat_bytes_sent) {
      std::fprintf(stderr,
                   "CHECK FAILED: federated top link shipped %lld bytes, flat "
                   "shipped %lld\n",
                   static_cast<long long>(warm.federated_bytes_sent),
                   static_cast<long long>(warm.flat_bytes_sent));
      ok = false;
    }
    if (e2e.stats.tasks_completed != static_cast<int64_t>(e2e.tasks)) {
      std::fprintf(stderr, "CHECK FAILED: e2e completed %lld of %zu\n",
                   static_cast<long long>(e2e.stats.tasks_completed),
                   e2e.tasks);
      ok = false;
    }
    if (!e2e.killed || e2e.stats.foremen_lost < 1 ||
        e2e.stats.requeued_groups < 1) {
      std::fprintf(stderr, "CHECK FAILED: foreman kill not exercised "
                           "(killed=%d lost=%lld requeued=%lld)\n",
                   e2e.killed ? 1 : 0,
                   static_cast<long long>(e2e.stats.foremen_lost),
                   static_cast<long long>(e2e.stats.requeued_groups));
      ok = false;
    }
    if (!e2e.exactly_once || !e2e.bit_identical) {
      std::fprintf(stderr, "CHECK FAILED: exactly_once=%d bit_identical=%d\n",
                   e2e.exactly_once ? 1 : 0, e2e.bit_identical ? 1 : 0);
      ok = false;
    }
    if (trace && traced.max_lanes < 3) {
      std::fprintf(stderr,
                   "CHECK FAILED: no trace id spans >= 3 process lanes "
                   "(best %zu)\n",
                   traced.max_lanes);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("CHECK PASSED: warm top link %.2fx smaller federated; e2e "
                "exactly-once, bit-identical across a foreman kill%s\n",
                static_cast<double>(warm.flat_bytes_sent) /
                    static_cast<double>(warm.federated_bytes_sent),
                hw_threads >= 4 ? "; 4 foremen >= 1.5x 1" : "");
  }
  return 0;
}
