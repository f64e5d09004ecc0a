// The Lightweight Function Monitor (paper §II, §VI.B.1) — real implementation.
//
// Each invocation runs in a fresh child process forked from the calling
// "interpreter" process, so the task sees the parent's memory state but its
// mutations are confined to the copy-on-write child. Results (or the error
// description on exception) return to the parent over a pipe, serialized with
// the serde codec — the C++ analogue of the multiprocessing result queue the
// paper establishes before forking. The monitor is the paper's hybrid: the
// parent polls the child's /proc subtree on an interval, tracks peaks,
// invokes the user callback at each poll, and kills the task's process
// group when any limit is exceeded; between polls it sleeps in ppoll on a
// pidfd for the child and on the result pipe, so an exit or result bytes
// wake it at once, and it reaps with wait4 to fold the kernel's final
// peak RSS and CPU time into the usage a poll may have missed.
#pragma once

#include <functional>
#include <string>

#include "monitor/resources.h"
#include "monitor/timeline.h"
#include "serde/value.h"

namespace lfm::monitor {

// A task body: executed in the child; receives deserialized args, returns a
// result value. Throwing reports an exception outcome to the parent.
using TaskFn = std::function<serde::Value(const serde::Value&)>;

// Invoked in the parent at every polling interval with the latest snapshot.
using PollCallback = std::function<void(const ResourceUsage&)>;

struct MonitorOptions {
  ResourceLimits limits;
  double poll_interval = 0.02;   // seconds between /proc samples
  PollCallback on_poll;          // optional
  bool record_timeline = false;  // keep one UsageSample per poll
  // Trace lane (obs tid) for this invocation's span and per-poll resource
  // series; 0 uses the child's pid. Only read while the recorder is enabled.
  uint64_t trace_tid = 0;
};

enum class TaskStatus {
  kSuccess,        // function returned a value
  kException,      // function threw; error holds the message
  kLimitExceeded,  // killed for violating a resource limit
  kCrashed,        // child died without reporting (signal, _exit, ...)
};

const char* task_status_name(TaskStatus status);

struct TaskOutcome {
  TaskStatus status = TaskStatus::kCrashed;
  serde::Value result;            // valid when status == kSuccess
  std::string error;              // exception text or crash description
  std::string violated_resource;  // which limit tripped, when kLimitExceeded
  ResourceUsage usage;            // final measured usage (peaks included)
  UsageTimeline timeline;         // per-poll samples when record_timeline set

  bool ok() const { return status == TaskStatus::kSuccess; }
};

// Run one function invocation inside a lightweight function monitor.
TaskOutcome run_monitored(const TaskFn& fn, const serde::Value& args,
                          const MonitorOptions& options = {});

// Decorator-style wrapper mirroring the paper's Python decorator: returns a
// callable with the limits/callback bound, so call sites read like plain
// function invocation.
class Monitored {
 public:
  Monitored(TaskFn fn, MonitorOptions options)
      : fn_(std::move(fn)), options_(std::move(options)) {}

  TaskOutcome operator()(const serde::Value& args) const {
    return run_monitored(fn_, args, options_);
  }

  const MonitorOptions& options() const { return options_; }

 private:
  TaskFn fn_;
  MonitorOptions options_;
};

}  // namespace lfm::monitor
