#include "monitor/command.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "monitor/detail.h"
#include "util/error.h"

namespace lfm::monitor {

CommandOutcome run_command_monitored(const std::vector<std::string>& argv,
                                     const CommandOptions& options) {
  CommandOutcome outcome;
  if (argv.empty()) {
    outcome.error = "empty argv";
    return outcome;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    outcome.error = std::string("pipe: ") + std::strerror(errno);
    return outcome;
  }
  // Closed by the child's exec (or exit): until then the child is a copy of
  // this process, and a /proc sample would count this process's resident
  // pages as the command's.
  int exec_fds[2];
  if (::pipe2(exec_fds, O_CLOEXEC) != 0) {
    outcome.error = std::string("pipe2: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return outcome;
  }

  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    outcome.error = std::string("fork: ") + std::strerror(errno);
    for (const int fd : {pipe_fds[0], pipe_fds[1], exec_fds[0], exec_fds[1]}) ::close(fd);
    return outcome;
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::close(pipe_fds[0]);
    ::close(exec_fds[0]);
    // Combined stdout+stderr into the report pipe.
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::close(pipe_fds[1]);
    if (!options.working_directory.empty()) {
      if (::chdir(options.working_directory.c_str()) != 0) ::_exit(126);
    }
    std::vector<char*> c_argv;
    c_argv.reserve(argv.size() + 1);
    for (const auto& arg : argv) c_argv.push_back(const_cast<char*>(arg.c_str()));
    c_argv.push_back(nullptr);
    ::execvp(c_argv[0], c_argv.data());
    ::_exit(127);  // exec failed
  }
  ::close(pipe_fds[1]);
  ::close(exec_fds[1]);
  // Bounded: a sibling thread's fork can hold a copy of the write end.
  pollfd exec_wait{exec_fds[0], POLLIN, 0};
  while (::poll(&exec_wait, 1, static_cast<int>(options.monitor.poll_interval * 1000)) < 0 &&
         errno == EINTR) {
  }
  ::close(exec_fds[0]);

  const detail::LoopResult loop = detail::monitor_loop(
      pid, pipe_fds[0], /*reap_rss=*/false, options.monitor, outcome.usage,
      outcome.timeline);

  // Captured output (capped).
  const size_t n = std::min(loop.collected.size(), options.max_output_bytes);
  outcome.result.output.assign(loop.collected.begin(),
                               loop.collected.begin() + static_cast<long>(n));

  if (loop.killed_for_limit) {
    outcome.status = TaskStatus::kLimitExceeded;
    outcome.violated_resource = loop.violated_resource;
    outcome.error = "resource limit exceeded: " + loop.violated_resource;
    return outcome;
  }

  if (WIFSIGNALED(loop.wait_status)) {
    outcome.status = TaskStatus::kCrashed;
    outcome.result.signaled = true;
    outcome.result.signal = WTERMSIG(loop.wait_status);
    outcome.error = "command killed by signal " + std::to_string(outcome.result.signal);
    return outcome;
  }

  outcome.result.exit_code = WEXITSTATUS(loop.wait_status);
  if (outcome.result.exit_code == 127 && outcome.result.output.empty()) {
    outcome.status = TaskStatus::kException;
    outcome.error = "exec failed: " + argv[0];
    return outcome;
  }
  outcome.status = TaskStatus::kSuccess;
  return outcome;
}

}  // namespace lfm::monitor
