#include "monitor/lfm.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "monitor/detail.h"
#include "monitor/proc_reader.h"
#include "obs/recorder.h"
#include "serde/pickle.h"
#include "util/io.h"
#include "util/log.h"

namespace lfm::monitor {
namespace {

// Child -> parent report framing: 1 status byte + pickled payload.
constexpr uint8_t kReportSuccess = 0;
constexpr uint8_t kReportException = 1;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

[[noreturn]] void child_main(const TaskFn& fn, const serde::Value& args, int report_fd) {
  // Own process group so the parent can kill the whole task tree at once.
  ::setpgid(0, 0);
  uint8_t status = kReportSuccess;
  serde::Bytes payload;
  try {
    serde::dumps_into(fn(args), payload);
  } catch (const std::exception& e) {
    status = kReportException;
    serde::dumps_into(serde::Value(std::string(e.what())), payload);
  } catch (...) {
    status = kReportException;
    serde::dumps_into(serde::Value(std::string("unknown exception")), payload);
  }
  io::write_all(report_fd, &status, 1);
  io::write_all(report_fd, payload.data(), payload.size());
  ::close(report_fd);
  ::_exit(0);
}

void merge_peaks(ResourceUsage& acc, const ResourceUsage& snapshot) {
  acc.wall_time = snapshot.wall_time;
  acc.rss_bytes = snapshot.rss_bytes;
  acc.processes = snapshot.processes;
  acc.disk_read_bytes = std::max(acc.disk_read_bytes, snapshot.disk_read_bytes);
  acc.disk_write_bytes = std::max(acc.disk_write_bytes, snapshot.disk_write_bytes);
  // CPU counters are cumulative but the subtree membership fluctuates, so
  // keep the maximum observed total.
  acc.cpu_time = std::max(acc.cpu_time, snapshot.cpu_time);
  acc.max_rss_bytes = std::max(acc.max_rss_bytes, snapshot.rss_bytes);
  acc.max_processes = std::max(acc.max_processes, snapshot.processes);
  acc.cores = acc.wall_time > 0.0 ? acc.cpu_time / acc.wall_time : 0.0;
}

}  // namespace

namespace detail {

namespace {

// A descriptor that polls readable once `pid` exits, or -1 when the kernel
// (or libc headers) lack pidfd_open; the loop then falls back to sleeping.
int open_exit_fd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// The kernel's accounting at reap covers what polling can miss: a task that
// exits between polls, or peaks and frees memory in between. ru_maxrss is
// the largest single process in the reaped tree (KiB), CPU includes the
// task's own reaped descendants.
void fold_reap_usage(ResourceUsage& usage, const rusage& ru, bool reap_rss) {
  if (reap_rss) {
    usage.max_rss_bytes =
        std::max(usage.max_rss_bytes, static_cast<int64_t>(ru.ru_maxrss) * 1024);
  }
  usage.cpu_time = std::max(usage.cpu_time,
                            timeval_seconds(ru.ru_utime) + timeval_seconds(ru.ru_stime));
}

// One periodic sample: /proc snapshot into the peaks, the timeline and the
// trace, the user callback, and the limit check (which kills the task's
// process group on a violation).
void take_sample(pid_t pid, double wall, uint64_t trace_tid,
                 const MonitorOptions& options, ResourceUsage& usage,
                 UsageTimeline& timeline, LoopResult& result) {
  const ResourceUsage snapshot = sample_subtree(pid, wall);
  merge_peaks(usage, snapshot);
  if (options.record_timeline) {
    UsageSample sample;
    sample.wall_time = snapshot.wall_time;
    sample.cpu_time = snapshot.cpu_time;
    sample.rss_bytes = snapshot.rss_bytes;
    sample.disk_write_bytes = snapshot.disk_write_bytes;
    sample.processes = snapshot.processes;
    timeline.add(sample);
  }
  if (obs::Recorder::enabled()) {
    // The per-task resource series the paper's evaluation is built from:
    // one counter sample per poll on the task's trace lane.
    obs::Recorder& r = obs::Recorder::global();
    const double ts = r.now();
    r.counter(obs::kPidHost, trace_tid, ts, "lfm.usage", "rss_mb",
              static_cast<double>(snapshot.rss_bytes) / 1e6, "cores",
              usage.cores);
    r.counter(obs::kPidHost, trace_tid, ts, "lfm.disk", "disk_write_mb",
              static_cast<double>(snapshot.disk_write_bytes) / 1e6, "processes",
              static_cast<double>(snapshot.processes));
    r.metrics().counter("lfm.polls").add();
  }
  if (options.on_poll) options.on_poll(usage);

  if (!result.killed_for_limit) {
    if (const auto violation = first_violation(usage, options.limits)) {
      result.violated_resource = *violation;
      result.killed_for_limit = true;
      LFM_INFO("lfm", "killing task " + std::to_string(pid) + ": " + *violation +
                          " limit exceeded (" + usage.summary() + ")");
      if (obs::Recorder::enabled()) {
        obs::Recorder& r = obs::Recorder::global();
        r.instant(obs::kPidHost, trace_tid, r.now(), "limit-kill", "lfm",
                  "resource", *violation);
        r.metrics().counter("lfm.limit_kills").add();
      }
      ::kill(-pid, SIGKILL);  // the whole process group
      ::kill(pid, SIGKILL);   // in case setpgid had not run yet
    }
  }
}

}  // namespace

LoopResult monitor_loop(pid_t pid, int read_fd, bool reap_rss,
                        const MonitorOptions& options, ResourceUsage& usage,
                        UsageTimeline& timeline) {
  ::fcntl(read_fd, F_SETFL, O_NONBLOCK);
  LoopResult result;
  const double start = now_seconds();
  const uint64_t trace_tid =
      options.trace_tid != 0 ? options.trace_tid : static_cast<uint64_t>(pid);
  const int exit_fd = open_exit_fd(pid);
  bool pipe_open = true;
  double next_sample = 0.0;  // wall time the next /proc sample is due

  while (true) {
    rusage ru{};
    const pid_t w = ::wait4(pid, &result.wait_status, WNOHANG, &ru);
    if (w == pid) {
      fold_reap_usage(usage, ru, reap_rss);
      break;
    }

    const double wall = now_seconds() - start;
    if (wall >= next_sample) {
      next_sample = wall + options.poll_interval;
      take_sample(pid, wall, trace_tid, options, usage, timeline, result);
    }

    if (pipe_open && io::read_available(read_fd, result.collected) == io::ReadStatus::kEof) {
      pipe_open = false;  // a hung-up pipe would poll ready forever
    }
    if (exit_fd < 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(options.poll_interval));
      continue;
    }
    // Sleep until the next sample is due, the child exits, or result bytes
    // arrive (drained above, so a result larger than the pipe buffer never
    // waits out a poll interval per buffer-full).
    pollfd fds[2] = {{exit_fd, POLLIN, 0}, {read_fd, POLLIN, 0}};
    const double wait = std::max(0.0, next_sample - (now_seconds() - start));
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - static_cast<double>(timeout.tv_sec)) * 1e9);
    ::ppoll(fds, pipe_open ? 2 : 1, &timeout, nullptr);
  }
  if (exit_fd >= 0) ::close(exit_fd);

  // Final wall time; the child is gone so /proc reads are moot.
  usage.wall_time = now_seconds() - start;
  usage.cores = usage.wall_time > 0.0 ? usage.cpu_time / usage.wall_time : 0.0;

  // Collect any remaining bytes (the pipe outlives the child).
  io::read_available(read_fd, result.collected);
  ::close(read_fd);
  return result;
}

}  // namespace detail

const char* task_status_name(TaskStatus status) {
  switch (status) {
    case TaskStatus::kSuccess: return "success";
    case TaskStatus::kException: return "exception";
    case TaskStatus::kLimitExceeded: return "limit_exceeded";
    case TaskStatus::kCrashed: return "crashed";
  }
  return "?";
}

TaskOutcome run_monitored(const TaskFn& fn, const serde::Value& args,
                          const MonitorOptions& options) {
  TaskOutcome outcome;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    outcome.error = std::string("pipe: ") + std::strerror(errno);
    return outcome;
  }

  std::fflush(nullptr);  // avoid duplicated stdio buffers in the child
  const pid_t pid = ::fork();
  if (pid < 0) {
    outcome.error = std::string("fork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return outcome;
  }
  if (pid == 0) {
    ::close(pipe_fds[0]);
    child_main(fn, args, pipe_fds[1]);  // never returns
  }
  ::close(pipe_fds[1]);

  const uint64_t trace_tid =
      options.trace_tid != 0 ? options.trace_tid : static_cast<uint64_t>(pid);
  const bool traced = obs::Recorder::enabled();
  if (traced) {
    obs::Recorder& r = obs::Recorder::global();
    r.begin(obs::kPidHost, trace_tid, r.now(), "lfm.run", "lfm");
    r.metrics().counter("lfm.invocations").add();
  }

  const detail::LoopResult loop =
      detail::monitor_loop(pid, pipe_fds[0], /*reap_rss=*/true, options, outcome.usage,
                           outcome.timeline);
  const serde::Bytes& report = loop.collected;

  if (traced) {
    obs::Recorder& r = obs::Recorder::global();
    r.end(obs::kPidHost, trace_tid, r.now());
    r.metrics().histogram("lfm.invocation_seconds").observe(outcome.usage.wall_time);
  }

  if (loop.killed_for_limit) {
    outcome.status = TaskStatus::kLimitExceeded;
    outcome.violated_resource = loop.violated_resource;
    outcome.error = "resource limit exceeded: " + loop.violated_resource;
    return outcome;
  }

  if (report.empty()) {
    outcome.status = TaskStatus::kCrashed;
    if (WIFSIGNALED(loop.wait_status)) {
      outcome.error = std::string("task killed by signal ") +
                      std::to_string(WTERMSIG(loop.wait_status));
    } else {
      outcome.error = "task exited without reporting a result (status " +
                      std::to_string(WEXITSTATUS(loop.wait_status)) + ")";
    }
    return outcome;
  }

  const uint8_t report_kind = report[0];
  try {
    // Decode in place over the pipe buffer — the old copy of the payload
    // bytes into a fresh vector was pure overhead on every task return.
    serde::Value value = serde::loads(report.data() + 1, report.size() - 1);
    if (report_kind == kReportSuccess) {
      outcome.status = TaskStatus::kSuccess;
      outcome.result = std::move(value);
    } else {
      outcome.status = TaskStatus::kException;
      outcome.error = value.is_str() ? value.as_str() : value.repr();
    }
  } catch (const Error& e) {
    outcome.status = TaskStatus::kCrashed;
    outcome.error = std::string("corrupt result report: ") + e.what();
  }
  return outcome;
}

}  // namespace lfm::monitor
