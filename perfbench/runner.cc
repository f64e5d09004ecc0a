// perfbench runner: the end-to-end benchmark over the live process tree.
//
// Every workload forks a real tree on loopback from this process (the only
// source of load), measures one window of --seconds, checks every output,
// and prints one JSON result as its last stdout line.
//
//   echo-rate  open loop, 20k echo tasks/s with ~1 KB pickled results into
//              3 echo WorkerClients behind net::MasterService. Transport
//              only (net, wq codec, serde); the monitor is bypassed. A fixed
//              rate, because saturated echo throughput is bimodal. Runnable
//              but left out of BENCHMARK.json: its microsecond latencies
//              follow the shared host's scheduling (see NOTES.md).
//   py-calls   4 closed-loop callers, each waiting for its result, running
//              seeded short Python functions through MasterService on 4 LFM
//              workers at library defaults. The funcX case: monitor and
//              dispatch policy on the critical path, little on the wire.
//   fed-env    a closed loop of 25-task groups, one per function
//              environment, through fed::RootMaster to 2 Foremen with 2 LFM
//              workers each. Set-up analyses, resolves and packs 4 sibling
//              environments; each group carries its environment's tar as a
//              cacheable input.
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// runs an untraced pass and then a traced one on a fresh tree (public
// counter sinks attached, the runner's own spans around its calls into the
// library), then times each layer's public functions on the workload's own
// inputs, and prints the per-layer metrics.
//
// Usage:
//   perfbench_runner --workload echo-rate --seed 1 --seconds 10 --trace 0
#include <dirent.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fed/foreman.h"
#include "fed/root_master.h"
#include "flow/plan.h"
#include "monitor/lfm.h"
#include "monitor/proc_reader.h"
#include "net/event_loop.h"
#include "net/master_service.h"
#include "net/socket.h"
#include "net/worker_client.h"
#include "obs/metrics.h"
#include "pkg/chunk.h"
#include "pkg/index.h"
#include "pkg/packer.h"
#include "pkg/solver.h"
#include "pysrc/interp.h"
#include "pysrc/parse_cache.h"
#include "pysrc/parser.h"
#include "serde/pickle.h"
#include "stats.h"
#include "util/error.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace {

using namespace lfm;
using perfbench::median;
using perfbench::quantile;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// --- workload constants -------------------------------------------------------

constexpr double kEchoRate = 20000.0;  // echo-rate arrivals per second
constexpr int kEchoWorkers = 3;
constexpr size_t kEchoPayloadBytes = 1000;
constexpr int kPyClients = 4;
constexpr int kPyWorkers = 4;
constexpr int kPyLongEvery = 10;  // one call in ten outlasts a poll interval
constexpr size_t kPyInputs = 26 * kPyLongEvery;  // distinct seeded calls, reused in order
constexpr int kFedEnvs = 4;
constexpr int kForemen = 2;
constexpr int kWorkersPerForeman = 2;
constexpr size_t kGroupTasks = 25;
constexpr size_t kFedInputs = 100;  // per environment
// Set-up repetitions per pass; the last one's tree is measured.
constexpr int kSetupRepsPool = 11;
constexpr int kSetupRepsFed = 5;
// The window is cut into this many equal sub-windows; latency percentiles
// are the median over them, so a transient stall on the shared host moves
// one sub-window, not the result.
constexpr int kSubWindows = 10;
// Fewest samples a sub-window needs for its own p95 (ten beyond it).
constexpr size_t kMinSubWindowSamples = 200;
const alloc::Resources kAllocation{1.0, 512e6, 1e9};

double now() { return net::EventLoop::now(); }

// --- options ------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "echo-rate|py-calls|fed-env --seed N --seconds S --trace 0|1 "
               "[--commit ID]\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      usage_error("unknown argument " + a);
    }
  }
  if (o.workload != "echo-rate" && o.workload != "py-calls" &&
      o.workload != "fed-env") {
    usage_error("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) usage_error("--seconds must be positive");
  return o;
}

// --- process tree ---------------------------------------------------------------

// Children forked by this process. Reaped explicitly at teardown; anything
// still running when the object dies (an error path) is killed and reaped.
class Tree {
 public:
  Tree() = default;
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;
  ~Tree() {
    for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
    reap();
  }

  void add(pid_t pid) { pids_.push_back(pid); }

  // Waits for every child; false if any exited abnormally.
  bool reap() {
    bool ok = true;
    for (const pid_t pid : pids_) {
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        ok = false;
      }
    }
    pids_.clear();
    return ok;
  }

 private:
  std::vector<pid_t> pids_;
};

// Fork a child that runs `body` and exits 0 when it returns true.
pid_t fork_child(const std::function<bool()>& body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw Error("perfbench: fork failed");
  if (pid != 0) return pid;
  net::close_inherited_fds();
  int status = 1;
  try {
    status = body() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench child: %s\n", e.what());
  }
  ::_exit(status);
}

pid_t fork_echo_worker(uint16_t port, const std::string& name,
                       const serde::Bytes& payload) {
  return fork_child([=] {
    net::WorkerClientOptions o;
    o.port = port;
    o.name = name;
    o.echo_results = true;
    o.echo_payload = payload;
    net::WorkerClient client(o);
    client.run();
    return !client.gave_up();
  });
}

pid_t fork_lfm_worker(uint16_t port, const std::string& name) {
  return fork_child([=] {
    net::WorkerClientOptions o;
    o.port = port;
    o.name = name;
    net::WorkerClient client(o);
    client.run();
    return !client.gave_up();
  });
}

pid_t fork_foreman(uint16_t root_port, const std::string& name) {
  return fork_child([=] {
    fed::ForemanConfig fc;
    fc.name = name;
    fc.root_port = root_port;
    fed::Foreman foreman(fc);
    Tree workers;
    for (int i = 0; i < kWorkersPerForeman; ++i) {
      workers.add(fork_lfm_worker(foreman.worker_port(),
                                  name + "-w" + std::to_string(i)));
    }
    foreman.run();
    return workers.reap() && !foreman.gave_up();
  });
}

// Run `loop` until it stops; throws if that takes longer than `timeout`.
void run_bounded(net::EventLoop& loop, double timeout, const char* what) {
  bool timed_out = false;
  const uint64_t watchdog = loop.run_after(timeout, [&] {
    timed_out = true;
    loop.stop();
  });
  loop.run();
  loop.cancel_timer(watchdog);
  if (timed_out) throw Error(std::string("perfbench: ") + what);
}

// Run `loop` until `ready()` holds, checking about every 50 us. The check
// re-arms itself with no delay and sleeps between checks: the loop's own
// timeouts are whole milliseconds, so a periodic timer would add up to one
// to every set-up, and a bare spin would take a core from the starting tree.
void await(net::EventLoop& loop, const std::function<bool()>& ready) {
  if (ready()) return;
  uint64_t timer = 0;
  std::function<void()> check = [&] {
    if (ready()) {
      loop.stop();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    timer = loop.run_after(0.0, check);
  };
  timer = loop.run_after(0.0, check);
  run_bounded(loop, 60.0, "process tree did not form in 60 s");
  loop.cancel_timer(timer);
}

// --- resource usage -------------------------------------------------------------

struct Usage {
  double cpu_s = 0.0;
  double maxrss_mb = 0.0;
  long voluntary_switches = 0;
};

Usage usage_of(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  u.voluntary_switches = ru.ru_nvcsw;
  return u;
}

// Peak resident set of this process image, from VmHWM. Unlike
// getrusage's ru_maxrss it restarts at exec, so the launcher's footprint
// does not leak into the figure.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

int host_processes() {
  int n = 0;
  if (DIR* d = ::opendir("/proc")) {
    while (const dirent* e = ::readdir(d)) {
      if (std::isdigit(static_cast<unsigned char>(e->d_name[0]))) ++n;
    }
    ::closedir(d);
  }
  return n;
}

// --- seeded inputs ----------------------------------------------------------------

// Uniform integer in [lo, hi) from the workload generator.
int64_t draw(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo));
}

serde::ValueList draw_ints(std::mt19937_64& rng, int64_t count, int64_t hi) {
  serde::ValueList xs;
  for (int64_t i = 0; i < count; ++i) xs.push_back(serde::Value(draw(rng, 0, hi)));
  return xs;
}

// The canned echo result: a ~1 KB pickled value.
serde::Bytes echo_payload(uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xec40ull);
  serde::Bytes blob(kEchoPayloadBytes);
  for (uint8_t& b : blob) b = static_cast<uint8_t>(rng());
  serde::ValueDict d;
  d["seed"] = serde::Value(static_cast<int64_t>(seed));
  d["blob"] = serde::Value(std::move(blob));
  return serde::dumps(serde::Value(std::move(d)));
}

wq::TaskMessage echo_task(uint64_t id) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = "echo";
  t.command_line = "echo";  // never executed: the workers answer in echo mode
  t.allocation = kAllocation;
  return t;
}

// A Python call: function and positional arguments, run by the worker in a
// forked LFM child and, for the output check, in process.
struct PyCall {
  std::string function;
  serde::Value args;  // list of positional arguments
};

const char* const kPyModule = R"(
def spin(n, a):
    t = a
    for i in range(n):
        t = (t * 31 + i) % 1000003
    return t

def words(xs, sep):
    return sep.join([str(x * x) for x in xs])

def summary(xs):
    ys = sorted(xs)
    return {'n': len(ys), 'sum': sum(ys), 'lo': ys[0], 'hi': ys[-1], 'mid': ys[len(ys) // 2]}
)";

// Most calls finish well inside one 20 ms poll interval; one in every
// kPyLongEvery spins for about 34 ms, so its exit is seen at the second
// poll. Both sit mid-interval: the monitor only notices an exit at a poll,
// so a call near a poll boundary lands in one interval or the next as the
// host's speed drifts, and moves the percentiles by a whole interval. The
// long calls sit at a fixed stride because each caller waits behind the
// three calls queued ahead of it: a random mix would move the share of
// results that queued behind a long call from seed to seed.
std::vector<PyCall> py_inputs(uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9c411ull);
  const int64_t phase = draw(rng, 0, kPyLongEvery);
  std::vector<PyCall> calls;
  for (size_t i = 0; i < kPyInputs; ++i) {
    const bool is_long = static_cast<int64_t>(i % kPyLongEvery) == phase;
    serde::ValueList args;
    PyCall c;
    if (is_long) {
      c.function = "spin";
      args.push_back(serde::Value(draw(rng, 40000, 44000)));
      args.push_back(serde::Value(draw(rng, 0, 1000)));
    } else {
      switch (draw(rng, 0, 3)) {
        case 0:
          c.function = "spin";
          args.push_back(serde::Value(draw(rng, 50, 3000)));
          args.push_back(serde::Value(draw(rng, 0, 1000)));
          break;
        case 1:
          c.function = "words";
          args.push_back(serde::Value(draw_ints(rng, draw(rng, 8, 40), 10000)));
          args.push_back(serde::Value(std::string(draw(rng, 0, 2) ? "-" : ",")));
          break;
        default:
          c.function = "summary";
          args.push_back(serde::Value(draw_ints(rng, draw(rng, 8, 64), 100000)));
          break;
      }
    }
    c.args = serde::Value(std::move(args));
    calls.push_back(std::move(c));
  }
  return calls;
}

// One function environment of fed-env: a function whose imports pull in a
// different but overlapping package set (siblings share the numpy base).
struct FedEnv {
  std::string name;
  std::string function;
  std::string module;
  serde::Bytes module_bytes;
  pkg::PackedEnvironment packed;
  std::vector<PyCall> inputs;
  std::vector<serde::Bytes> pickled_args;  // aligned with inputs
};

struct EnvTimings {
  double plan_s = 0.0;
  double resolve_s = 0.0;
  double pack_s = 0.0;
};

std::string fed_module(int k, int64_t salt) {
  static const char* const kImports[kFedEnvs] = {
      "        import numpy\n        import scipy\n",
      "        import pandas\n",
      "        import sklearn\n",
      "        import matplotlib\n        import pandas\n",
  };
  return "def step" + std::to_string(k) +
         "(xs, k):\n"
         "    try:\n" +
         kImports[k] +
         "    except ImportError:\n"
         "        pass\n"
         "    t = k + " +
         std::to_string(salt) +
         "\n"
         "    for x in xs:\n"
         "        t = (t * 31 + x) % 1000003\n"
         "    return {'env': " +
         std::to_string(k) + ", 't': t, 'n': len(xs)}\n";
}

// Builds the four environments: analyse each function (flow), resolve its
// requirements (pkg solver), pack it (pkg packer), timing each stage.
std::vector<FedEnv> prepare_envs(uint64_t seed, EnvTimings* timings) {
  std::mt19937_64 rng(seed ^ 0xfed0ull);
  std::vector<FedEnv> envs(kFedEnvs);
  for (int k = 0; k < kFedEnvs; ++k) {
    FedEnv& e = envs[k];
    e.name = "env" + std::to_string(k);
    e.function = "step" + std::to_string(k);
    e.module = fed_module(k, draw(rng, 0, 1000));
    e.module_bytes.assign(e.module.begin(), e.module.end());
    for (size_t i = 0; i < kFedInputs; ++i) {
      serde::ValueList args;
      args.push_back(serde::Value(draw_ints(rng, draw(rng, 8, 32), 1000000)));
      args.push_back(serde::Value(draw(rng, 1, 100)));
      PyCall c{e.function, serde::Value(std::move(args))};
      e.pickled_args.push_back(serde::dumps(c.args));
      e.inputs.push_back(std::move(c));
    }
  }
  for (FedEnv& e : envs) {
    const double t0 = now();
    const flow::DependencyPlan plan =
        flow::plan_function_dependencies(e.module, e.function, pkg::standard_index());
    const double t1 = now();
    auto env = flow::build_environment(e.name, plan, pkg::standard_index());
    const double t2 = now();
    if (!env.ok()) throw Error("perfbench: resolve failed: " + env.error());
    e.packed = pkg::packed_environment(env.value());
    const double t3 = now();
    if (timings != nullptr) {
      timings->plan_s += t1 - t0;
      timings->resolve_s += t2 - t1;
      timings->pack_s += t3 - t2;
    }
  }
  return envs;
}

// A fresh process pays for analysis and packing; emulate one.
void clear_env_caches() {
  flow::clear_plan_cache();
  pkg::clear_solver_cache();
  pkg::clear_pack_cache();
  pkg::global_chunk_store().clear();
  pysrc::clear_parse_cache();
}

std::string tar_name(int k) { return "env-" + std::to_string(k) + ".tar"; }
std::string module_name(int k) { return "mod-" + std::to_string(k) + ".py"; }

// A fed-env task running input `input` of environment `k`; adds its files to
// `files`.
wq::TaskMessage fed_task(const FedEnv& e, int k, size_t input, uint64_t id,
                         wq::FileSet& files) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = e.name;
  const std::string args = "args-" + std::to_string(id) + ".pkl";
  t.command_line = "lfm-pyrun " + module_name(k) + " " + args + " " + e.function;
  t.allocation = kAllocation;
  t.infiles.push_back({module_name(k), static_cast<int64_t>(e.module_bytes.size()), true});
  t.infiles.push_back({args, static_cast<int64_t>(e.pickled_args[input].size()), false});
  t.infiles.push_back({tar_name(k), static_cast<int64_t>(e.packed.tar->size()), true});
  files[module_name(k)] = e.module_bytes;
  files[args] = e.pickled_args[input];
  files[tar_name(k)] = *e.packed.tar;
  return t;
}

// --- output check ---------------------------------------------------------------

// Reference payloads from in-process pysrc::run_python_function calls,
// memoized per input key; the call time of each is kept for the monitor's
// exit-lag split.
class Reference {
 public:
  const serde::Bytes& payload(size_t key, const std::string& module, const PyCall& call) {
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      const auto parsed = pysrc::parse_module_shared(module);
      std::vector<serde::Value> positional = call.args.as_list();
      const double t0 = now();
      const serde::Value v =
          pysrc::run_python_function(parsed, call.function, std::move(positional));
      const double dt = now() - t0;
      it = cache_.emplace(key, Entry{serde::dumps(v), dt}).first;
    }
    return it->second.payload;
  }
  double call_s(size_t key) const { return cache_.at(key).call_s; }

 private:
  struct Entry {
    serde::Bytes payload;
    double call_s = 0.0;
  };
  std::unordered_map<size_t, Entry> cache_;
};

// --- one measured pass --------------------------------------------------------------

// A completed Python call, copied out of the library's result.
struct Completed {
  size_t input = 0;  // key into the workload's input pool
  int exit_code = 0;
  double latency = 0.0;
  double wall_s = 0.0;
  int64_t memory_peak = 0;
  serde::Bytes payload;
};

struct Pass {
  std::vector<double> setup_s;  // one per set-up repetition
  double t_first = 0.0;         // first submit
  double t_deadline = 0.0;      // no new work after this
  double t_last = 0.0;          // last result
  double t_reaped = 0.0;        // last child reaped
  std::vector<double> latency;  // per completed task
  std::vector<double> done_at;  // completion time, aligned with latency
  size_t in_window = 0;         // completions at or before the deadline
  int64_t attempted = 0;
  int64_t failed = 0;
  bool tree_ok = true;
  Usage self0, self1, kids0, kids1;
  double peak_rss_mb = 0.0;
  int64_t link_bytes = 0;  // bytes at this process's links, both directions
  size_t completed = 0;
  // Per-layer inputs.
  std::vector<Completed> calls;     // py-calls and fed-env
  std::vector<double> lateness;     // echo-rate generator
  std::vector<double> submit_call;  // traced: time inside submit()
  int64_t tasks_out = 0, frames_out = 0, results_in = 0, frames_in = 0;
  double files_per_group = 0.0;
  double fanout_bytes_per_task = 0.0;
  double shard_split = 1.0;
  std::vector<EnvTimings> env_timings;
  std::vector<FedEnv> envs;  // fed-env: the last set-up's environments
  serde::Bytes sample_payload;
  std::vector<double> call_s;  // per completed call: in-process call time

  double window() const { return t_deadline - t_first; }
  double tasks_per_s() const { return static_cast<double>(in_window) / window(); }
  double cpu_s() const {
    return (self1.cpu_s - self0.cpu_s) + (kids1.cpu_s - kids0.cpu_s);
  }
};

// Books a completed Python call that arrived at `t`.
void record(Pass& p, Completed&& c, double t) {
  ++p.completed;
  p.latency.push_back(c.latency);
  p.done_at.push_back(t);
  p.calls.push_back(std::move(c));
  if (t <= p.t_deadline) ++p.in_window;
  p.t_last = t;
}

// The module and call behind an input key of a Python workload.
struct PyInput {
  const std::string& module;
  const PyCall& call;
};

// Verifies Python payloads against the in-process reference and records
// each call's in-process time.
void check_calls(Pass& p, const std::function<PyInput(size_t)>& input_of) {
  Reference ref;
  for (const Completed& c : p.calls) {
    const PyInput in = input_of(c.input);
    if (c.exit_code != 0 || c.payload != ref.payload(c.input, in.module, in.call)) {
      ++p.failed;
    }
    p.call_s.push_back(ref.call_s(c.input));
  }
  if (!p.calls.empty()) p.sample_payload = p.calls.front().payload;
}

void read_counters(Pass& p, const obs::Metrics& m, const std::string& ns) {
  for (const auto& [name, value] : m.counters()) {
    if (name == ns + ".dispatched_tasks") p.tasks_out = value;
    if (name == ns + ".frames_out") p.frames_out = value;
    if (name == ns + ".results") p.results_in = value;
    if (name == ns + ".frames_in") p.frames_in = value;
  }
}

// A MasterService pool with its forked workers. Member order is teardown
// order reversed: workers are killed (if still running) before the service
// and its loop go away.
struct Pool {
  std::unique_ptr<net::EventLoop> loop = std::make_unique<net::EventLoop>();
  obs::Metrics metrics;
  std::unique_ptr<net::MasterService> master;
  Tree tree;
};

// Starts `workers` workers behind a persistent MasterService and waits for
// every hello. Persistent, because an open loop may drain the queue between
// arrivals and the set-up repetitions have no work at all: the runner ends
// the run with shutdown().
std::unique_ptr<Pool> start_pool(
    int workers, bool traced,
    const std::function<pid_t(uint16_t, const std::string&)>& fork_worker) {
  auto pool = std::make_unique<Pool>();
  net::MasterServiceConfig cfg;
  cfg.persistent = true;
  if (traced) cfg.metrics = &pool->metrics;
  pool->master = std::make_unique<net::MasterService>(*pool->loop, cfg);
  for (int i = 0; i < workers; ++i) {
    pool->tree.add(fork_worker(pool->master->port(), "w" + std::to_string(i)));
  }
  net::MasterService& m = *pool->master;
  await(*pool->loop, [&m, workers] { return m.connected_workers() >= workers; });
  return pool;
}

// Shut a pool down and reap its workers; returns false if any exited badly.
bool stop_pool(Pool& pool) {
  pool.master->shutdown();
  pool.loop->run();
  return pool.tree.reap();
}

// Repeats pool set-up, keeping the last pool for the measured window.
std::unique_ptr<Pool> set_up_pool(
    Pass& p, int workers, bool traced,
    const std::function<pid_t(uint16_t, const std::string&)>& fork_worker) {
  for (int rep = 0;; ++rep) {
    p.kids0 = usage_of(RUSAGE_CHILDREN);
    const double t0 = now();
    std::unique_ptr<Pool> pool = start_pool(workers, traced, fork_worker);
    p.setup_s.push_back(now() - t0);
    if (rep + 1 == kSetupRepsPool) return pool;
    if (!stop_pool(*pool)) p.tree_ok = false;
  }
}

void finish_pool(Pass& p, Pool& pool, bool traced) {
  const net::NetMasterStats s = pool.master->stats();
  p.link_bytes = s.bytes_sent + s.bytes_received;
  p.tree_ok = pool.tree.reap() && p.tree_ok;
  p.t_reaped = now();
  p.kids1 = usage_of(RUSAGE_CHILDREN);
  if (traced) read_counters(p, pool.metrics, "net");
}

// --- echo-rate ------------------------------------------------------------------------

Pass run_echo(const Options& o, bool traced) {
  Pass p;
  const serde::Bytes payload = echo_payload(o.seed);
  std::unique_ptr<Pool> pool =
      set_up_pool(p, kEchoWorkers, traced, [&](uint16_t port, const std::string& n) {
        return fork_echo_worker(port, n, payload);
      });
  net::EventLoop& loop = *pool->loop;
  net::MasterService& master = *pool->master;

  const size_t cap = static_cast<size_t>(kEchoRate * o.seconds) + 16;
  std::vector<double> due(cap, 0.0);
  std::vector<uint8_t> seen(cap, 0);
  p.latency.reserve(cap);
  if (traced) p.submit_call.reserve(cap);
  size_t outstanding = 0;
  bool generating = true;

  p.self0 = usage_of(RUSAGE_SELF);
  p.t_first = now();
  p.t_deadline = p.t_first + o.seconds;
  perfbench::FixedRateSchedule schedule(p.t_first, kEchoRate);

  master.set_on_result([&](const wq::ResultMessage& r) {
    const double t = now();
    const uint64_t i = r.task_id - 1;  // task ids start at 1
    if (i >= schedule.released() || seen[i]) {
      ++p.failed;  // unknown or duplicate
      return;
    }
    seen[i] = 1;
    --outstanding;
    ++p.completed;
    if (r.exit_code != 0 || r.payload != payload) ++p.failed;
    p.latency.push_back(t - due[i]);
    p.done_at.push_back(t);
    if (t <= p.t_deadline) ++p.in_window;
    p.t_last = t;
    if (!generating && outstanding == 0) master.shutdown();
  });

  uint64_t timer = 0;
  const auto tick = [&] {
    const double t = now();
    schedule.release(t, p.t_deadline, [&](uint64_t i, double d) {
      due[i] = d;
      ++outstanding;
      const double s0 = traced ? now() : 0.0;
      master.submit(echo_task(i + 1));
      if (traced) p.submit_call.push_back(now() - s0);
    });
    if (t >= p.t_deadline && generating) {
      generating = false;
      loop.cancel_timer(timer);
      if (outstanding == 0) master.shutdown();
    }
  };
  tick();
  timer = loop.run_every(0.001, tick);
  run_bounded(loop, o.seconds + 60.0, "echo-rate did not drain");
  p.self1 = usage_of(RUSAGE_SELF);
  p.peak_rss_mb = peak_rss_mb();

  p.attempted = static_cast<int64_t>(schedule.released());
  p.failed += p.attempted - static_cast<int64_t>(p.completed);  // missing
  p.lateness = schedule.lateness();
  p.sample_payload = payload;
  finish_pool(p, *pool, traced);
  return p;
}

// --- py-calls ---------------------------------------------------------------------------

Pass run_py(const Options& o, bool traced) {
  Pass p;
  const std::vector<PyCall> inputs = py_inputs(o.seed);
  std::unique_ptr<Pool> pool =
      set_up_pool(p, kPyWorkers, traced, [](uint16_t port, const std::string& n) {
        return fork_lfm_worker(port, n);
      });
  net::EventLoop& loop = *pool->loop;
  net::MasterService& master = *pool->master;

  struct Call {
    size_t input = 0;
    double submitted = 0.0;
  };
  std::unordered_map<uint64_t, Call> inflight;
  uint64_t next_id = 1;
  size_t next_input = 0;
  const auto submit_next = [&] {
    const size_t input = next_input++ % kPyInputs;
    const uint64_t id = next_id++;
    auto [task, files] = wq::make_python_task(id, "py", kPyModule, inputs[input].function,
                                              inputs[input].args, kAllocation);
    const double t = now();
    inflight[id] = Call{input, t};
    ++p.attempted;
    master.submit(std::move(task), std::move(files));
    if (traced) p.submit_call.push_back(now() - t);
  };

  p.self0 = usage_of(RUSAGE_SELF);
  p.t_first = now();
  p.t_deadline = p.t_first + o.seconds;
  master.set_on_result([&](const wq::ResultMessage& r) {
    const double t = now();
    // `r` points into the service's results vector, which the submit()
    // below may reallocate: copy what the check needs first.
    auto it = inflight.find(r.task_id);
    if (it == inflight.end()) {
      ++p.failed;  // unknown or duplicate
      return;
    }
    record(p,
           Completed{it->second.input, r.exit_code, t - it->second.submitted,
                     r.wall_seconds, r.memory_peak_bytes, r.payload},
           t);
    inflight.erase(it);
    if (t < p.t_deadline) {
      submit_next();
    } else if (inflight.empty()) {
      master.shutdown();
    }
  });
  for (int c = 0; c < kPyClients; ++c) submit_next();
  run_bounded(loop, o.seconds + 60.0, "py-calls did not drain");
  p.self1 = usage_of(RUSAGE_SELF);
  p.peak_rss_mb = peak_rss_mb();
  finish_pool(p, *pool, traced);

  p.failed += static_cast<int64_t>(inflight.size());  // missing
  const std::string module = kPyModule;
  check_calls(p, [&](size_t i) { return PyInput{module, inputs[i]}; });
  return p;
}

// --- fed-env ----------------------------------------------------------------------------

struct FedTree {
  std::unique_ptr<net::EventLoop> loop = std::make_unique<net::EventLoop>();
  obs::Metrics metrics;
  std::unique_ptr<fed::RootMaster> root;
  Tree tree;
};

Pass run_fed(const Options& o, bool traced) {
  Pass p;
  std::unique_ptr<FedTree> ft;
  for (int rep = 0;; ++rep) {
    clear_env_caches();
    p.kids0 = usage_of(RUSAGE_CHILDREN);
    EnvTimings timings;
    const double t0 = now();
    p.envs = prepare_envs(o.seed, &timings);
    ft = std::make_unique<FedTree>();
    fed::RootMasterConfig rc;
    if (traced) rc.metrics = &ft->metrics;
    ft->root = std::make_unique<fed::RootMaster>(*ft->loop, rc);
    for (int f = 0; f < kForemen; ++f) {
      ft->tree.add(fork_foreman(ft->root->port(), "f" + std::to_string(f)));
    }
    fed::RootMaster& root = *ft->root;
    await(*ft->loop, [&root] { return root.connected_foremen() >= kForemen; });
    p.setup_s.push_back(now() - t0);
    p.env_timings.push_back(timings);
    if (rep + 1 == kSetupRepsFed) break;
    // RootMaster ends a run only when its work is done: one task closes the
    // tree down.
    fed::TaskGroup g;
    g.name = "close";
    g.tasks.push_back(fed_task(p.envs[0], 0, 0, 1, g.files));
    root.submit(std::move(g));
    root.run_until_complete(60.0);
    if (!ft->tree.reap()) p.tree_ok = false;
  }
  net::EventLoop& loop = *ft->loop;
  fed::RootMaster& root = *ft->root;

  struct TaskRef {
    int env = 0;
    size_t input = 0;
    double submitted = 0.0;
  };
  std::unordered_map<uint64_t, TaskRef> inflight;
  std::vector<size_t> remaining(kFedEnvs, 0);  // open tasks per env's group
  std::vector<size_t> next_input(kFedEnvs, 0);
  std::vector<std::string> placed(kFedEnvs);  // traced: foreman per env's group
  std::map<std::string, int64_t> per_foreman;
  uint64_t next_id = 1;
  int groups = 0;

  const auto submit_group = [&](int k) {
    const FedEnv& e = p.envs[k];
    fed::TaskGroup g;
    g.name = "g" + std::to_string(groups++);
    const double t = now();
    for (size_t j = 0; j < kGroupTasks; ++j) {
      const size_t input = next_input[k]++ % kFedInputs;
      const uint64_t id = next_id++;
      g.tasks.push_back(fed_task(e, k, input, id, g.files));
      inflight[id] = TaskRef{k, input, t};
    }
    remaining[k] = kGroupTasks;
    p.attempted += static_cast<int64_t>(kGroupTasks);
    std::map<std::string, size_t> before;
    if (traced) before = root.shard_loads();
    const double s0 = now();
    root.submit(std::move(g));
    if (traced) {
      p.submit_call.push_back(now() - s0);
      for (const auto& [name, load] : root.shard_loads()) {
        if (load > before[name]) placed[k] = name;
      }
    }
  };

  std::map<std::string, wq::StatsMessage> shard_stats;
  p.self0 = usage_of(RUSAGE_SELF);
  p.t_first = now();
  p.t_deadline = p.t_first + o.seconds;
  root.set_on_result([&](const wq::ResultMessage& r) {
    const double t = now();
    // `r` points into the root's results vector, which the submit() below
    // may reallocate: copy what the check needs first.
    auto it = inflight.find(r.task_id);
    if (it == inflight.end()) {
      ++p.failed;
      return;
    }
    const int k = it->second.env;
    record(p,
           Completed{static_cast<size_t>(k) * kFedInputs + it->second.input, r.exit_code,
                     t - it->second.submitted, r.wall_seconds, r.memory_peak_bytes,
                     r.payload},
           t);
    inflight.erase(it);
    if (traced) ++per_foreman[placed[k]];
    if (--remaining[k] == 0 && t < p.t_deadline) submit_group(k);
  });
  // Shard telemetry is only readable while the foremen are connected.
  const uint64_t snapshot = loop.run_after(o.seconds, [&] {
    if (traced) shard_stats = root.shard_stats();
  });
  for (int k = 0; k < kFedEnvs; ++k) submit_group(k);
  const fed::RootStats stats = root.run_until_complete(o.seconds + 60.0);
  loop.cancel_timer(snapshot);
  p.self1 = usage_of(RUSAGE_SELF);
  p.peak_rss_mb = peak_rss_mb();
  p.link_bytes = stats.bytes_sent + stats.bytes_received;
  p.tree_ok = ft->tree.reap() && p.tree_ok;
  p.t_reaped = now();
  p.kids1 = usage_of(RUSAGE_CHILDREN);
  p.failed += static_cast<int64_t>(inflight.size());

  if (traced) {
    read_counters(p, ft->metrics, "fed");
    p.files_per_group = stats.groups_completed > 0
                            ? static_cast<double>(stats.files_sent) /
                                  static_cast<double>(stats.groups_completed)
                            : 0.0;
    int64_t fanout = 0, relayed = 0;
    for (const auto& [name, s] : shard_stats) {
      fanout += s.fanout_bytes;
      relayed += s.completed;
    }
    p.fanout_bytes_per_task =
        relayed > 0 ? static_cast<double>(fanout) / static_cast<double>(relayed) : 0.0;
    int64_t lo = INT64_MAX, hi = 0;
    for (const auto& [name, n] : per_foreman) {
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    p.shard_split = per_foreman.size() == kForemen && lo > 0
                        ? static_cast<double>(hi) / static_cast<double>(lo)
                        : 0.0;
  }

  // Keys are env * kFedInputs + input.
  check_calls(p, [&](size_t key) {
    const FedEnv& e = p.envs[key / kFedInputs];
    return PyInput{e.module, e.inputs[key % kFedInputs]};
  });
  return p;
}

Pass run_pass(const Options& o, bool traced) {
  if (o.workload == "echo-rate") return run_echo(o, traced);
  if (o.workload == "py-calls") return run_py(o, traced);
  return run_fed(o, traced);
}

// --- metrics ----------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Latency percentiles of a pass: the median of each sub-window's
// percentile when every sub-window holds enough samples for its own p95,
// else the percentile over the whole window. Sub-windows split the window
// by completion time.
std::pair<double, double> latency_p50_p95(const Pass& p) {
  std::vector<std::vector<double>> lat(kSubWindows);
  const double width = p.window() / kSubWindows;
  for (size_t i = 0; i < p.latency.size(); ++i) {
    const double j = std::floor((p.done_at[i] - p.t_first) / width);
    if (j >= 0 && j < kSubWindows) lat[static_cast<size_t>(j)].push_back(p.latency[i]);
  }
  std::vector<double> p50, p95;
  for (std::vector<double>& l : lat) {
    if (l.size() < kMinSubWindowSamples) {
      return {quantile(p.latency, 0.50), quantile(p.latency, 0.95)};
    }
    std::sort(l.begin(), l.end());
    p50.push_back(perfbench::quantile_sorted(l, 0.50));
    p95.push_back(perfbench::quantile_sorted(l, 0.95));
  }
  return {median(p50), median(p95)};
}

std::vector<Metric> end_to_end(const Pass& p) {
  const double n = static_cast<double>(std::max<size_t>(p.completed, 1));
  const auto [p50, p95] = latency_p50_p95(p);
  return {
      {"tasks_per_s", p.tasks_per_s(), "1/s"},
      {"latency_p50_s", p50, "s"},
      {"latency_p95_s", p95, "s"},
      {"setup_s", median(p.setup_s), "s"},
      {"cpu_s_per_task", p.cpu_s() / n, "s"},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
      {"master_bytes_per_task", static_cast<double>(p.link_bytes) / n, "B"},
  };
}

// Timed calls store their results here so the optimizer cannot drop them.
volatile size_t g_sink = 0;
void keep(size_t v) { g_sink = v; }

// Median seconds per call of `fn`, timed over `reps` batches of `inner` calls.
double time_per_call(int reps, int inner, const std::function<void()>& fn) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now();
    for (int i = 0; i < inner; ++i) fn();
    per.push_back((now() - t0) / inner);
  }
  return median(per);
}

// The workload's own inputs for the per-layer timings.
struct LayerInputs {
  std::string module;         // Python module of the calls
  std::vector<PyCall> calls;  // calls timed under the monitor
  wq::TaskMessage task;       // a dispatch, for the codec timings
  wq::TaskMessage exec_task;  // a task run in process, with its files
  wq::FileSet exec_files;
};

LayerInputs layer_inputs(const Options& o, const Pass& p) {
  LayerInputs in;
  if (o.workload == "py-calls") {
    in.module = kPyModule;
    in.calls = py_inputs(o.seed);
    in.calls.resize(24);
    auto [task, files] = wq::make_python_task(1, "py", in.module, in.calls[0].function,
                                              in.calls[0].args, kAllocation);
    in.exec_task = std::move(task);
    in.exec_files = std::move(files);
    in.task = in.exec_task;
  } else if (o.workload == "fed-env") {
    const FedEnv& e = p.envs[0];
    in.module = e.module;
    in.calls.assign(e.inputs.begin(), e.inputs.begin() + 24);
    in.exec_task = fed_task(e, 0, 0, 1, in.exec_files);
    in.task = in.exec_task;
  } else {
    // Echo dispatches are never executed, so the monitor and interpreter
    // timings of echo-rate use a no-op Python call; the codec timings use
    // the echo task itself.
    in.module = "def noop():\n    return None\n";
    in.calls.assign(24, PyCall{"noop", serde::Value(serde::ValueList{})});
    auto [task, files] = wq::make_python_task(1, "noop", in.module, "noop",
                                              serde::Value(serde::ValueList{}),
                                              kAllocation);
    in.exec_task = std::move(task);
    in.exec_files = std::move(files);
    in.task = echo_task(1);
  }
  return in;
}

std::vector<Metric> per_layer(const Options& o, const Pass& u, const Pass& p) {
  const double n = static_cast<double>(std::max<size_t>(p.completed, 1));
  std::vector<Metric> m;
  const auto add = [&](const std::string& name, double v, const std::string& unit) {
    m.push_back({name, v, unit});
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  // net
  add("net.tasks_per_frame_out", ratio(p.tasks_out, p.frames_out), "ratio");
  add("net.tasks_per_frame_in", ratio(p.results_in, p.frames_in), "ratio");
  add("net.master_wakeups_per_task",
      static_cast<double>(p.self1.voluntary_switches - p.self0.voluntary_switches) / n,
      "count");
  std::vector<double> wait, exit_lag;
  size_t missed = 0;
  for (size_t i = 0; i < p.calls.size(); ++i) {
    wait.push_back(p.calls[i].latency - p.calls[i].wall_s);
    exit_lag.push_back(p.calls[i].wall_s - p.call_s[i]);
    if (p.calls[i].memory_peak == 0) ++missed;
  }
  // Echo results carry no wall time: the whole latency is dispatch wait.
  add("net.dispatch_wait_s", median(p.calls.empty() ? p.latency : wait), "s");
  add("net.teardown_s", p.t_reaped - p.t_last, "s");
  add("net.submit_call_s", median(p.submit_call), "s");

  const LayerInputs in = layer_inputs(o, p);

  // wq and serde, on the workload's own frames.
  wq::ResultMessage result;
  result.task_id = in.task.task_id;
  result.payload = p.sample_payload;
  const std::string result_frame = wq::encode(result);
  const std::vector<wq::TaskMessage> task_batch(64, in.task);
  const std::vector<wq::ResultMessage> result_batch(64, result);
  const std::string result_batch_frame = wq::encode_batch(result_batch);
  add("wq.encode_task_s",
      time_per_call(9, 2000, [&] { keep(wq::encode(in.task).size()); }), "s");
  add("wq.encode_task_batch_s",
      time_per_call(9, 40, [&] { keep(wq::encode_batch(task_batch).size()); }) / 64,
      "s");
  add("wq.decode_result_s",
      time_per_call(9, 2000, [&] { keep(wq::decode_result(result_frame).payload.size()); }),
      "s");
  add("wq.decode_result_batch_s",
      time_per_call(9, 40,
                    [&] { keep(wq::decode_result_batch(result_batch_frame).size()); }) /
          64,
      "s");
  const serde::Value value = serde::loads(p.sample_payload);
  add("serde.dumps_s", time_per_call(9, 2000, [&] { keep(serde::dumps(value).size()); }),
      "s");
  add("serde.loads_s",
      time_per_call(9, 2000,
                    [&] { keep(serde::loads(p.sample_payload).is_none() ? 0 : 1); }),
      "s");
  wq::LocalWorker worker;
  add("wq.execute_s",
      time_per_call(9, 1,
                    [&] { keep(worker.execute(in.exec_task, in.exec_files).exit_code); }),
      "s");

  // monitor
  add("monitor.exit_lag_s", exit_lag.empty() ? 0.0 : median(exit_lag), "s");
  const monitor::TaskFn noop = [](const serde::Value&) { return serde::Value(); };
  add("monitor.noop_s",
      time_per_call(15, 1, [&] { keep(monitor::run_monitored(noop, serde::Value()).ok()); }),
      "s");
  add("monitor.sample_subtree_s", time_per_call(30, 1, [&] {
        keep(static_cast<size_t>(monitor::sample_subtree(::getpid(), 0.0).processes));
      }),
      "s");
  add("host.processes", host_processes(), "count");
  const auto parsed = pysrc::parse_module_shared(in.module);
  int64_t polls = 0;
  monitor::MonitorOptions mo;
  mo.on_poll = [&polls](const monitor::ResourceUsage&) { ++polls; };
  for (const PyCall& c : in.calls) {
    const std::string fn = c.function;
    monitor::run_monitored(
        [&parsed, fn](const serde::Value& a) {
          return pysrc::run_python_function(parsed, fn, a.as_list());
        },
        c.args, mo);
  }
  add("monitor.polls_per_call",
      static_cast<double>(polls) / static_cast<double>(in.calls.size()), "count");
  add("monitor.usage_missed_frac",
      p.calls.empty() ? 1.0 : ratio(static_cast<double>(missed), static_cast<double>(p.calls.size())),
      "ratio");

  // pysrc
  std::vector<double> call_s = p.call_s;
  if (call_s.empty()) {
    call_s.push_back(time_per_call(9, 100, [&] {
      keep(pysrc::run_python_function(parsed, "noop", {}).is_none());
    }));
  }
  add("pysrc.call_s", median(call_s), "s");
  add("pysrc.parse_s",
      time_per_call(9, 20, [&] { keep(pysrc::parse_module(in.module).body.size()); }), "s");

  // flow and pkg: the fed-env environments, analysed and packed cold.
  std::vector<EnvTimings> timings = p.env_timings;
  std::vector<FedEnv> envs = p.envs;
  if (timings.empty()) {
    for (int r = 0; r < kSetupRepsFed; ++r) {
      clear_env_caches();
      EnvTimings t;
      envs = prepare_envs(o.seed, &t);
      timings.push_back(t);
    }
  }
  std::vector<double> plan, resolve, pack;
  for (const EnvTimings& t : timings) {
    plan.push_back(t.plan_s);
    resolve.push_back(t.resolve_s);
    pack.push_back(t.pack_s);
  }
  add("flow.plan_s", median(plan), "s");
  add("pkg.resolve_s", median(resolve), "s");
  add("pkg.pack_s", median(pack), "s");
  std::vector<double> chunk, reassemble;
  for (int r = 0; r < 5; ++r) {
    for (const FedEnv& e : envs) {
      pkg::ChunkStore store;
      const double t0 = now();
      const pkg::ChunkManifest manifest = pkg::chunk_into_store(e.packed.tar, store);
      const double t1 = now();
      keep(pkg::reassemble(manifest, store).size());
      chunk.push_back(t1 - t0);
      reassemble.push_back(now() - t1);
    }
  }
  add("pkg.chunk_s", median(chunk), "s");
  add("pkg.reassemble_s", median(reassemble), "s");

  // fed (zero, and a split of 1, on workloads without a fed tier)
  add("fed.files_per_group", p.files_per_group, "count");
  add("fed.fanout_bytes_per_task", p.fanout_bytes_per_task, "B");
  add("fed.shard_split", p.shard_split, "ratio");

  // proc
  add("proc.master_cpu_s_per_task", (p.self1.cpu_s - p.self0.cpu_s) / n, "s");
  add("proc.tree_cpu_s_per_task", (p.kids1.cpu_s - p.kids0.cpu_s) / n, "s");
  add("proc.tree_peak_rss_mb", p.kids1.maxrss_mb, "MB");

  // Tracing overhead: the traced pass against the untraced one.
  add("trace.tasks_per_s_delta_frac", ratio(p.tasks_per_s() - u.tasks_per_s(), u.tasks_per_s()),
      "ratio");
  const double u50 = latency_p50_p95(u).first;
  add("trace.latency_p50_delta_frac", ratio(latency_p50_p95(p).first - u50, u50), "ratio");
  return m;
}

// --- output -------------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_context(const Options& o, const Pass& p, int processes) {
  std::string s = "{\"context\": {";
  s += "\"workload\": " + json_string(o.workload);
  s += ", \"seed\": " + std::to_string(o.seed);
  s += ", \"seconds\": " + json_number(o.seconds);
  s += ", \"trace\": " + std::to_string(o.trace ? 1 : 0);
  s += ", \"hw_threads\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"host_processes\": " + std::to_string(processes);
  s += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  s += ", \"commit\": " + json_string(o.commit);
  s += ", \"latency_samples\": " + std::to_string(p.latency.size());
  s += ", \"tail_percentile\": " +
       json_number(perfbench::tail_percentile(p.latency.size()));
  s += ", \"setup_reps\": " + std::to_string(p.setup_s.size());
  if (!p.lateness.empty()) {
    s += ", \"gen_lateness_p95_s\": " + json_number(quantile(p.lateness, 0.95));
    s += ", \"gen_lateness_max_s\": " + json_number(quantile(p.lateness, 1.0));
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void print_result(bool correct, int64_t attempted, int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
         ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  // A worker that dies mid-write must not kill the runner.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const int processes = host_processes();
    Pass untraced = run_pass(o, false);
    bool correct = untraced.tree_ok && untraced.failed == 0 && untraced.completed > 0;
    int64_t attempted = untraced.attempted;
    int64_t failed = untraced.failed;
    std::vector<Metric> metrics;
    if (!o.trace) {
      metrics = end_to_end(untraced);
      print_context(o, untraced, processes);
    } else {
      Pass traced = run_pass(o, true);
      correct = correct && traced.tree_ok && traced.failed == 0 && traced.completed > 0;
      attempted += traced.attempted;
      failed += traced.failed;
      print_context(o, traced, processes);
      metrics = per_layer(o, untraced, traced);
    }
    print_result(correct, std::max<int64_t>(attempted, 1), failed, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
