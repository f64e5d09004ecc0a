// Real-transport throughput: the src/net/ TCP runtime on loopback, a live
// MasterService dispatching to forked WorkerClient processes.
//
// Two phases:
//
//   1. Echo loopback — workers answer every dispatch immediately with a
//      ~1 KB canned payload (no LFM fork), so the rows measure the wire:
//      sockets + event loop + codec. Three modes mirror BENCH_wire.json's
//      in-process codec rows: v1 text frames, v2 single frames, v2 batch
//      frames. The interesting delta against scale_wire is how much of the
//      11x codec speedup survives real syscalls.
//
//   2. End-to-end LFM — >= 1k Python tasks dispatched over TCP to 4 worker
//      processes executing through forked monitor::LFM children, with ONE
//      injected connection drop mid-run. The same tasks also run through an
//      in-process LocalWorker first; the bench verifies the payloads coming
//      back over the network are bit-identical and that every task
//      completed exactly once despite the drop (requeue + reconnect).
//
// Usage:
//   scale_net                          # 20000 echo tasks/mode, 1000 e2e tasks
//   scale_net N                        # echo task count
//   scale_net --e2e M                  # e2e task count
//   scale_net --json BENCH_net.json --check
//   scale_net --http PORT              # live /metrics /healthz /statusz on
//                                      # the e2e master (0 = ephemeral); the
//                                      # bound port prints only after a
//                                      # successful bind, and a bind failure
//                                      # exits nonzero immediately
//   scale_net --http-linger SECONDS    # keep serving that long after the
//                                      # e2e tasks complete (for scrapers)
//
// --check exits nonzero unless v2+batch loopback throughput >= 3x v1 on
// this same run and the e2e phase preserved exactly-once bit-identical
// results across the drop.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/event_loop.h"
#include "net/master_service.h"
#include "net/socket.h"
#include "net/worker_client.h"
#include "obs/http_export.h"
#include "obs/metrics.h"
#include "serde/pickle.h"
#include "util/error.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace {

using namespace lfm;

constexpr int kWorkers = 4;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Same shape as scale_wire's canned result: a pickled dict of scalars plus a
// bytes blob, ~1 KB — what a funcX-style Python task returns.
serde::Bytes make_payload() {
  std::mt19937_64 rng(0xBEEF);
  serde::ValueDict d;
  serde::ValueList samples;
  for (size_t i = 0; i < 64; ++i) {
    samples.push_back(serde::Value(static_cast<double>(rng() % 100000) / 100.0));
  }
  d["samples"] = serde::Value(std::move(samples));
  serde::Bytes blob(512);
  for (auto& b : blob) b = static_cast<uint8_t>(rng());
  d["blob"] = serde::Value(std::move(blob));
  d["status"] = serde::Value(std::string("ok"));
  d["n"] = serde::Value(int64_t{64});
  return serde::dumps(serde::Value(std::move(d)));
}

pid_t fork_echo_worker(uint16_t port, int index, wq::WireVersion version,
                       const serde::Bytes& payload) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Drop the master's inherited fds: a surviving copy of its listener would
  // keep the port accepting after the run drains, and a worker idle-cycling
  // at exactly that moment reconnects into a backlog nobody serves.
  net::close_inherited_fds();
  int status = 1;
  try {
    net::WorkerClientOptions options;
    options.port = port;
    options.name = "echo-" + std::to_string(index);
    options.wire_version = version;
    options.echo_results = true;
    options.echo_payload = payload;
    net::WorkerClient client(options);
    client.run();
    status = 0;
  } catch (...) {
  }
  _exit(status);
}

pid_t fork_lfm_worker(uint16_t port, int index) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  net::close_inherited_fds();
  int status = 1;
  try {
    net::WorkerClientOptions options;
    options.port = port;
    options.name = "lfm-" + std::to_string(index);
    options.worker.poll_interval = 0.005;
    net::WorkerClient client(options);
    client.run();
    status = 0;
  } catch (...) {
  }
  _exit(status);
}

void reap(std::vector<pid_t>& pids, const char* phase) {
  for (const pid_t pid : pids) {
    int status = -1;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "scale_net: %s worker %d exited abnormally\n", phase,
                   pid);
      std::exit(1);
    }
  }
  pids.clear();
}

struct Row {
  std::string mode;
  double tasks_per_sec = 0.0;
  double bytes_per_task = 0.0;  // both directions, at the master
};

Row run_echo_mode(const char* mode, size_t n, wq::WireVersion version,
                  size_t max_batch, const serde::Bytes& payload) {
  net::EventLoop loop;
  net::MasterServiceConfig config;
  config.tasks_per_worker = 64;
  config.max_batch = max_batch;
  net::MasterService master(loop, config);
  for (size_t i = 0; i < n; ++i) {
    wq::TaskMessage t;
    t.task_id = i + 1;
    t.category = "echo";
    t.command_line = "echo";  // never executed: workers run in echo mode
    t.allocation = alloc::Resources{1.0, 512e6, 1e9};
    master.submit(std::move(t));
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pid_t> pids;
  for (int w = 0; w < kWorkers; ++w) {
    pids.push_back(fork_echo_worker(master.port(), w, version, payload));
  }
  const net::NetMasterStats stats = master.run_until_complete(600.0);
  const double dt = seconds_since(t0);
  reap(pids, mode);
  if (stats.tasks_completed != static_cast<int64_t>(n)) {
    std::fprintf(stderr, "scale_net: %s completed %lld of %zu tasks\n", mode,
                 static_cast<long long>(stats.tasks_completed), n);
    std::exit(1);
  }
  return {mode, static_cast<double>(n) / dt,
          static_cast<double>(stats.bytes_sent + stats.bytes_received) /
              static_cast<double>(n)};
}

struct E2eResult {
  size_t tasks = 0;
  double direct_wall_seconds = 0.0;
  double net_wall_seconds = 0.0;
  net::NetMasterStats stats;
  bool dropped = false;
  bool bit_identical = false;
  bool exactly_once = false;
};

struct HttpOptions {
  bool enabled = false;
  uint16_t port = 0;
  double linger = 0.0;  // serve this long after the run completes
};

E2eResult run_e2e(size_t n, const HttpOptions& http_opts) {
  const char* module = R"(
def mix(a, b):
    return {'sum': a + b, 'prod': a * b}
)";
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

  // In-process reference: the same messages through LocalWorker directly —
  // the bit-identity baseline and the "no transport" wall-clock anchor.
  std::vector<serde::Bytes> expected(n);
  {
    wq::LocalWorkerOptions wo;
    wo.poll_interval = 0.005;
    wq::LocalWorker direct(wo);
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      const wq::ResultMessage res = direct.execute(specs[i].first, specs[i].second);
      if (res.exit_code != 0) {
        std::fprintf(stderr, "scale_net: direct task %zu failed\n", i);
        std::exit(1);
      }
      expected[i] = res.payload;
    }
    r.direct_wall_seconds = seconds_since(t0);
  }

  net::EventLoop loop;
  // With live endpoints requested the master records its counters into this
  // always-on registry, so /metrics has content without enabling tracing.
  obs::Metrics metrics;
  net::MasterServiceConfig mc;
  if (http_opts.enabled) mc.metrics = &metrics;
  net::MasterService master(loop, mc);
  std::unique_ptr<obs::HttpEndpoint> http;
  if (http_opts.enabled) {
    obs::HttpEndpointConfig hc;
    hc.port = http_opts.port;
    hc.metrics = &metrics;
    hc.statusz = [&master] { return master.statusz_value(); };
    try {
      http = std::make_unique<obs::HttpEndpoint>(loop, hc);
    } catch (const Error& e) {
      std::fprintf(stderr, "scale_net: http bind failed on port %u: %s\n",
                   http_opts.port, e.what());
      std::exit(1);
    }
    // Printed only after the successful bind: anything scripting against
    // this line can start curling the moment it appears.
    std::printf("scale_net: http endpoint listening on 127.0.0.1:%u\n",
                http->port());
    std::fflush(stdout);
  }
  for (auto& [task, files] : specs) master.submit(task, files);

  std::map<uint64_t, int> seen;
  size_t matched = 0;  // results bit-identical to the in-process reference
  int results_so_far = 0;
  master.set_on_result([&](const wq::ResultMessage& msg) {
    seen[msg.task_id] += 1;
    const uint64_t i = msg.task_id - 1000;
    if (i < n && msg.exit_code == 0 && msg.payload == expected[i]) ++matched;
    // One injected fault mid-run: sever a live worker connection. Deferred
    // via post so it lands after the post-result dispatch refill — the
    // severed connection then has a batch in flight to requeue, and the
    // worker reconnects with backoff.
    if (++results_so_far == static_cast<int>(n / 20) + 1) {
      loop.post([&] { r.dropped = master.drop_connection(0); });
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pid_t> pids;
  for (int w = 0; w < kWorkers; ++w) {
    pids.push_back(fork_lfm_worker(master.port(), w));
  }
  r.stats = master.run_until_complete(600.0);
  r.net_wall_seconds = seconds_since(t0);
  reap(pids, "e2e");
  if (http && http_opts.linger > 0) {
    // Hold the endpoint open past completion so an external scraper has a
    // stable window to hit /metrics and /statusz.
    loop.run_after(http_opts.linger, [&loop] { loop.stop(); });
    loop.run();
    std::printf("scale_net: http served %lld request(s)\n",
                static_cast<long long>(http->requests_served()));
  }

  r.exactly_once = seen.size() == n;
  for (const auto& [id, count] : seen) {
    if (count != 1) r.exactly_once = false;
  }
  r.bit_identical = matched == n;
  return r;
}

void write_json(const char* path, size_t echo_count,
                const std::vector<Row>& rows, double speedup,
                const E2eResult& e2e) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "scale_net: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"scale_net\",\n");
  std::fprintf(f, "  \"workers\": %d,\n", kWorkers);
  std::fprintf(f, "  \"echo_tasks_per_mode\": %zu,\n", echo_count);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"tasks_per_sec\": %.0f, "
                 "\"bytes_per_task\": %.1f}%s\n",
                 rows[i].mode.c_str(), rows[i].tasks_per_sec,
                 rows[i].bytes_per_task, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"loopback_speedup_v2_batched_vs_v1\": %.2f,\n", speedup);
  std::fprintf(f, "  \"e2e\": {\n");
  std::fprintf(f, "    \"tasks\": %zu,\n", e2e.tasks);
  std::fprintf(f, "    \"workers\": %d,\n", kWorkers);
  std::fprintf(f, "    \"injected_connection_drops\": %d,\n", e2e.dropped ? 1 : 0);
  std::fprintf(f, "    \"completed\": %lld,\n",
               static_cast<long long>(e2e.stats.tasks_completed));
  std::fprintf(f, "    \"requeued_tasks\": %lld,\n",
               static_cast<long long>(e2e.stats.requeued_tasks));
  std::fprintf(f, "    \"duplicate_results\": %lld,\n",
               static_cast<long long>(e2e.stats.duplicate_results));
  std::fprintf(f, "    \"connections_accepted\": %lld,\n",
               static_cast<long long>(e2e.stats.connections_accepted));
  std::fprintf(f, "    \"exactly_once\": %s,\n",
               e2e.exactly_once ? "true" : "false");
  std::fprintf(f, "    \"bit_identical_to_in_process\": %s,\n",
               e2e.bit_identical ? "true" : "false");
  std::fprintf(f, "    \"direct_wall_seconds\": %.3f,\n", e2e.direct_wall_seconds);
  std::fprintf(f, "    \"net_wall_seconds\": %.3f\n", e2e.net_wall_seconds);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  size_t echo_count = 20000;
  size_t e2e_count = 1000;
  const char* json_path = nullptr;
  bool check = false;
  HttpOptions http_opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--e2e") == 0 && i + 1 < argc) {
      e2e_count = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
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
  if (echo_count == 0) echo_count = 20000;
  if (e2e_count == 0) e2e_count = 1000;

  const serde::Bytes payload = make_payload();
  std::vector<Row> rows;
  rows.push_back(
      run_echo_mode("result/v1", echo_count, wq::WireVersion::kV1, 64, payload));
  rows.push_back(
      run_echo_mode("result/v2", echo_count, wq::WireVersion::kV2, 1, payload));
  rows.push_back(run_echo_mode("result/v2+batch", echo_count,
                               wq::WireVersion::kV2, 64, payload));

  std::printf("loopback transport throughput (%zu echo tasks per mode, %d "
              "worker processes)\n",
              echo_count, kWorkers);
  std::printf("%-20s %14s %14s\n", "mode", "tasks/sec", "bytes/task");
  for (const Row& row : rows) {
    std::printf("%-20s %14.0f %14.1f\n", row.mode.c_str(), row.tasks_per_sec,
                row.bytes_per_task);
  }
  const double speedup = rows[2].tasks_per_sec / rows[0].tasks_per_sec;
  std::printf("v2+batch vs v1 loopback speedup: %.2fx\n\n", speedup);

  const E2eResult e2e = run_e2e(e2e_count, http_opts);
  std::printf("end-to-end LFM over TCP: %zu tasks, %d workers, %s\n", e2e.tasks,
              kWorkers, e2e.dropped ? "1 injected drop" : "no drop injected");
  std::printf("  completed=%lld requeued=%lld duplicates=%lld accepts=%lld\n",
              static_cast<long long>(e2e.stats.tasks_completed),
              static_cast<long long>(e2e.stats.requeued_tasks),
              static_cast<long long>(e2e.stats.duplicate_results),
              static_cast<long long>(e2e.stats.connections_accepted));
  std::printf("  exactly_once=%s bit_identical=%s\n",
              e2e.exactly_once ? "yes" : "NO",
              e2e.bit_identical ? "yes" : "NO");
  std::printf("  direct %.3fs vs net %.3fs\n", e2e.direct_wall_seconds,
              e2e.net_wall_seconds);

  if (json_path != nullptr) {
    write_json(json_path, echo_count, rows, speedup, e2e);
  }

  if (check) {
    bool ok = true;
    if (speedup < 3.0) {
      std::fprintf(stderr, "CHECK FAILED: v2+batch %.2fx v1 (< 3x)\n", speedup);
      ok = false;
    }
    if (e2e.stats.tasks_completed != static_cast<int64_t>(e2e.tasks)) {
      std::fprintf(stderr, "CHECK FAILED: e2e completed %lld of %zu\n",
                   static_cast<long long>(e2e.stats.tasks_completed), e2e.tasks);
      ok = false;
    }
    if (!e2e.dropped || e2e.stats.connections_accepted < kWorkers + 1) {
      std::fprintf(stderr, "CHECK FAILED: drop/reconnect not exercised "
                           "(dropped=%d accepts=%lld)\n",
                   e2e.dropped ? 1 : 0,
                   static_cast<long long>(e2e.stats.connections_accepted));
      ok = false;
    }
    if (!e2e.exactly_once || !e2e.bit_identical) {
      std::fprintf(stderr, "CHECK FAILED: exactly_once=%d bit_identical=%d\n",
                   e2e.exactly_once ? 1 : 0, e2e.bit_identical ? 1 : 0);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("CHECK PASSED: v2+batch >= 3x v1 on loopback; e2e "
                "exactly-once, bit-identical across 1 drop\n");
  }
  return 0;
}
