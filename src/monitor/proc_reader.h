// /proc-based measurement of a process subtree (paper §VI.B.1).
//
// The paper combines interval polling of /proc/PID with LD_PRELOAD
// interception of fork/exit so short-lived children are not missed. Here
// each poll finds the subtree by walking /proc/<pid>/task/<tid>/children
// down from the root PID, or, on kernels without that file (built without
// CONFIG_PROC_CHILDREN), by one scan of every process's stat for ancestry
// reaching the root; only members have their io counters read. The walk
// reads a handful of files where the scan reads one per host process. The exit side of the interception is the
// monitor's pidfd wake and wait4 accounting (monitor/lfm.cc, DESIGN.md §2).
// Exited children's CPU time is still captured through the parent's
// cumulative children-time counters (cutime/cstime in /proc/PID/stat).
#pragma once

#include <sys/types.h>

#include <optional>
#include <vector>

#include "monitor/resources.h"

namespace lfm::monitor {

struct ProcSample {
  pid_t pid = 0;
  pid_t ppid = 0;
  double utime = 0.0;   // user CPU seconds
  double stime = 0.0;   // system CPU seconds
  double cutime = 0.0;  // reaped children user CPU seconds
  double cstime = 0.0;  // reaped children system CPU seconds
  int64_t rss_bytes = 0;
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;
};

// Read one process's counters; nullopt if it vanished.
std::optional<ProcSample> sample_process(pid_t pid);

// All live PIDs whose ancestry reaches `root` (including root itself):
// the children walk where the kernel has it, else a scan of every
// process's stat.
std::vector<pid_t> process_subtree(pid_t root);

// Aggregate a subtree into a usage snapshot. `wall_time` is supplied by the
// caller's clock. Updates only instantaneous fields; peak tracking is the
// monitor loop's job.
ResourceUsage sample_subtree(pid_t root, double wall_time);

}  // namespace lfm::monitor
