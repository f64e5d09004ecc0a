#include "monitor/proc_reader.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "monitor/detail.h"

namespace lfm::monitor {
namespace {

double ticks_to_seconds(unsigned long long ticks) {
  static const long hz = sysconf(_SC_CLK_TCK);
  return static_cast<double>(ticks) / static_cast<double>(hz > 0 ? hz : 100);
}

long page_size() {
  static const long sz = sysconf(_SC_PAGESIZE);
  return sz > 0 ? sz : 4096;
}

// Read a small /proc file into `buf` (NUL-terminated). Returns the length,
// or -1 if the file could not be opened (the process is gone, or the kernel
// lacks the file).
ssize_t read_proc_file(const char* path, char* buf, size_t cap) {
  const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  size_t len = 0;
  while (len + 1 < cap) {
    const ssize_t n = ::read(fd, buf + len, cap - 1 - len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    len += static_cast<size_t>(n);
  }
  ::close(fd);
  buf[len] = '\0';
  return static_cast<ssize_t>(len);
}

// Parse /proc/<pid>/stat: ppid, CPU times and RSS. The I/O counters are left
// zero (they live in a separate file, read only for subtree members).
std::optional<ProcSample> read_stat(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%d/stat", pid);
  char line[1024];
  if (read_proc_file(path, line, sizeof line) <= 0) return std::nullopt;

  // Field 2 (comm) may contain spaces/parens; skip past the last ')'.
  const char* close = std::strrchr(line, ')');
  if (close == nullptr) return std::nullopt;

  // After comm: state(3) ppid(4) ... utime(14) stime(15) cutime(16)
  // cstime(17) ... rss(24, pages).
  char state = 0;
  long ppid = 0, pgrp = 0, session = 0, tty = 0, tpgid = 0;
  unsigned long flags = 0, minflt = 0, cminflt = 0, majflt = 0, cmajflt = 0;
  unsigned long long utime = 0, stime = 0;
  long long cutime = 0, cstime = 0;
  long priority = 0, nice = 0, nthreads = 0, itrealvalue = 0;
  unsigned long long starttime = 0;
  unsigned long vsize = 0;
  long rss_pages = 0;
  const int n = std::sscanf(
      close + 1,
      " %c %ld %ld %ld %ld %ld %lu %lu %lu %lu %lu %llu %llu %lld %lld %ld %ld %ld %ld %llu %lu %ld",
      &state, &ppid, &pgrp, &session, &tty, &tpgid, &flags, &minflt, &cminflt,
      &majflt, &cmajflt, &utime, &stime, &cutime, &cstime, &priority, &nice,
      &nthreads, &itrealvalue, &starttime, &vsize, &rss_pages);
  if (n < 22) return std::nullopt;

  ProcSample s;
  s.pid = pid;
  s.ppid = static_cast<pid_t>(ppid);
  s.utime = ticks_to_seconds(utime);
  s.stime = ticks_to_seconds(stime);
  s.cutime = ticks_to_seconds(static_cast<unsigned long long>(cutime < 0 ? 0 : cutime));
  s.cstime = ticks_to_seconds(static_cast<unsigned long long>(cstime < 0 ? 0 : cstime));
  s.rss_bytes = static_cast<int64_t>(rss_pages) * page_size();
  return s;
}

// Fill read_bytes/write_bytes from /proc/<pid>/io (no special privilege is
// needed for our own children; an unreadable file leaves them zero).
void read_io(ProcSample& s) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%d/io", s.pid);
  char text[512];
  if (read_proc_file(path, text, sizeof text) <= 0) return;
  const auto field = [&text](const char* key) -> int64_t {
    const char* at = std::strstr(text, key);
    return at == nullptr ? 0 : std::strtoll(at + std::strlen(key), nullptr, 10);
  };
  // "\n" anchors skip rchar/wchar and cancelled_write_bytes.
  s.read_bytes = field("\nread_bytes:");
  s.write_bytes = field("\nwrite_bytes:");
}

// Parse a decimal pid from a /proc directory entry; 0 for anything else.
pid_t parse_pid(const char* name) {
  if (!std::isdigit(static_cast<unsigned char>(name[0]))) return 0;
  return static_cast<pid_t>(std::strtol(name, nullptr, 10));
}

// Descendants of `root` via /proc/<pid>/task/<tid>/children, breadth-first,
// with each member's stat. False when the root has no children file (kernel
// built without CONFIG_PROC_CHILDREN, or the root is gone).
bool walk_children(pid_t root, std::vector<ProcSample>& out) {
  char path[96];
  std::snprintf(path, sizeof path, "/proc/%d/task/%d/children", root, root);
  if (::access(path, R_OK) != 0) return false;
  std::vector<pid_t> frontier{root};
  for (size_t next = 0; next < frontier.size(); ++next) {
    const pid_t pid = frontier[next];
    if (auto s = read_stat(pid)) out.push_back(*s);
    std::snprintf(path, sizeof path, "/proc/%d/task", pid);
    DIR* tasks = ::opendir(path);
    if (tasks == nullptr) continue;
    while (const dirent* t = ::readdir(tasks)) {
      const pid_t tid = parse_pid(t->d_name);
      if (tid == 0) continue;
      std::snprintf(path, sizeof path, "/proc/%d/task/%d/children", pid, tid);
      char list[4096];
      if (read_proc_file(path, list, sizeof list) <= 0) continue;
      for (char* p = list; *p != '\0';) {
        char* end = nullptr;
        const long child = std::strtol(p, &end, 10);
        if (end == p) break;
        if (child > 0) frontier.push_back(static_cast<pid_t>(child));
        p = end;
      }
    }
    ::closedir(tasks);
  }
  return true;
}

// Fallback: one pass over /proc reading only each process's stat, then the
// members are every process whose ancestry reaches `root`.
std::vector<ProcSample> scan_subtree(pid_t root) {
  std::vector<ProcSample> all;
  if (DIR* proc = ::opendir("/proc")) {
    while (const dirent* e = ::readdir(proc)) {
      const pid_t pid = parse_pid(e->d_name);
      if (pid == 0) continue;
      if (auto s = read_stat(pid)) all.push_back(*s);
    }
    ::closedir(proc);
  }
  // Grow the member set to a fixed point: a process joins once its parent
  // has (each pass adds at least one generation, whatever the pid order).
  std::vector<ProcSample> out;
  std::vector<bool> in(all.size(), false);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].pid == root) {
      in[i] = true;
      out.push_back(all[i]);
    }
  }
  for (bool grew = !out.empty(); grew;) {
    grew = false;
    for (size_t i = 0; i < all.size(); ++i) {
      if (in[i] || all[i].ppid == all[i].pid) continue;
      for (const ProcSample& m : out) {
        if (m.pid != all[i].ppid) continue;
        in[i] = true;
        out.push_back(all[i]);
        grew = true;
        break;
      }
    }
  }
  return out;
}

// Stat of every live process in `root`'s subtree (root included).
std::vector<ProcSample> subtree_stats(pid_t root) {
  std::vector<ProcSample> out;
  if (!walk_children(root, out)) out = scan_subtree(root);
  return out;
}

}  // namespace

std::optional<ProcSample> sample_process(pid_t pid) {
  auto s = read_stat(pid);
  if (s) read_io(*s);
  return s;
}

std::vector<pid_t> process_subtree(pid_t root) {
  std::vector<pid_t> out;
  for (const ProcSample& s : subtree_stats(root)) out.push_back(s.pid);
  return out;
}


namespace detail {

std::vector<pid_t> scan_process_subtree(pid_t root) {
  std::vector<pid_t> out;
  for (const ProcSample& s : scan_subtree(root)) out.push_back(s.pid);
  return out;
}

}  // namespace detail

ResourceUsage sample_subtree(pid_t root, double wall_time) {
  ResourceUsage usage;
  usage.wall_time = wall_time;
  for (ProcSample& s : subtree_stats(root)) {
    read_io(s);
    usage.cpu_time += s.utime + s.stime;
    // Children that already exited and were reaped fold their CPU time into
    // the parent's cumulative counters — this is how short-lived forks are
    // captured between polls.
    usage.cpu_time += s.cutime + s.cstime;
    usage.rss_bytes += s.rss_bytes;
    usage.disk_read_bytes += s.read_bytes;
    usage.disk_write_bytes += s.write_bytes;
    usage.processes += 1;
  }
  usage.max_rss_bytes = usage.rss_bytes;
  usage.max_processes = usage.processes;
  usage.cores = wall_time > 0.0 ? usage.cpu_time / wall_time : 0.0;
  return usage;
}

}  // namespace lfm::monitor
