// Internal: the shared parent-side monitoring loop used by both the
// Python-function path (lfm.cc) and the external-command path (command.cc),
// and the /proc scan behind process_subtree (proc_reader.cc). Not part of
// the public API.
#pragma once

#include <sys/types.h>

#include <vector>

#include "monitor/lfm.h"

namespace lfm::monitor::detail {

struct LoopResult {
  bool killed_for_limit = false;
  std::string violated_resource;
  int wait_status = 0;
  serde::Bytes collected;  // bytes drained from read_fd during the run
};

// process_subtree's fallback for kernels without
// /proc/<pid>/task/<tid>/children: one pass over every process's stat,
// keeping those whose ancestry reaches `root`. Exposed so the fallback can
// be checked against the walk on a kernel that has both.
std::vector<pid_t> scan_process_subtree(pid_t root);

// Sample `pid`'s /proc subtree every options.poll_interval until it exits,
// enforcing options.limits (the whole process group is killed on
// violation), draining `read_fd` (non-blocking) into the result as bytes
// arrive, updating `usage` peaks and, when enabled, `timeline`. The child's
// exit wakes the loop at once (pidfd; plain sleeps where pidfd_open is
// unavailable), and its wait4 CPU time is folded into the final peaks.
// `reap_rss` also folds wait4's ru_maxrss; pass false when the child exec'd
// a new image, because the kernel carries the pre-exec image's high-water
// mark (a copy of the forking process's resident pages) across exec into
// ru_maxrss. `read_fd` is closed before returning.
LoopResult monitor_loop(pid_t pid, int read_fd, bool reap_rss,
                        const MonitorOptions& options, ResourceUsage& usage,
                        UsageTimeline& timeline);

}  // namespace lfm::monitor::detail
