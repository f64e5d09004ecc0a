// Tests for monitored external-command execution (the bash_app path).
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "monitor/command.h"

namespace lfm::monitor {
namespace {

TEST(Command, CapturesOutputAndExitCode) {
  const auto outcome = run_command_monitored({"/bin/sh", "-c", "echo hello; exit 0"});
  ASSERT_EQ(outcome.status, TaskStatus::kSuccess);
  EXPECT_EQ(outcome.result.exit_code, 0);
  EXPECT_EQ(outcome.result.output, "hello\n");
}

TEST(Command, NonZeroExitIsStillMonitoredSuccess) {
  const auto outcome = run_command_monitored({"/bin/sh", "-c", "exit 3"});
  ASSERT_EQ(outcome.status, TaskStatus::kSuccess);
  EXPECT_EQ(outcome.result.exit_code, 3);
}

TEST(Command, StderrMergedIntoOutput) {
  const auto outcome =
      run_command_monitored({"/bin/sh", "-c", "echo out; echo err 1>&2"});
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome.result.output.find("out"), std::string::npos);
  EXPECT_NE(outcome.result.output.find("err"), std::string::npos);
}

TEST(Command, ExecFailureReported) {
  const auto outcome = run_command_monitored({"/no/such/binary/xyz"});
  EXPECT_EQ(outcome.status, TaskStatus::kException);
  EXPECT_NE(outcome.error.find("exec failed"), std::string::npos);
}

TEST(Command, EmptyArgvRejected) {
  const auto outcome = run_command_monitored({});
  EXPECT_EQ(outcome.status, TaskStatus::kCrashed);
  EXPECT_EQ(outcome.error, "empty argv");
}

TEST(Command, WallTimeLimitKillsCommand) {
  CommandOptions options;
  options.monitor.limits.wall_time = 0.2;
  options.monitor.poll_interval = 0.02;
  const auto outcome = run_command_monitored({"/bin/sleep", "30"}, options);
  EXPECT_EQ(outcome.status, TaskStatus::kLimitExceeded);
  EXPECT_EQ(outcome.violated_resource, "wall_time");
}

TEST(Command, MeasuresCommandUsage) {
  CommandOptions options;
  options.monitor.poll_interval = 0.01;
  const auto outcome = run_command_monitored(
      {"/bin/sh", "-c", "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done"},
      options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.usage.wall_time, 0.0);
  EXPECT_GT(outcome.usage.cpu_time, 0.0);
}

TEST(Command, ProcessTreeOfShellPipelinesCovered) {
  CommandOptions options;
  options.monitor.poll_interval = 0.01;
  int max_procs = 0;
  options.monitor.on_poll = [&max_procs](const ResourceUsage& u) {
    max_procs = std::max(max_procs, u.processes);
  };
  const auto outcome = run_command_monitored(
      {"/bin/sh", "-c", "(sleep 0.3 &); sleep 0.3; echo done"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(max_procs, 2);
}

TEST(Command, WorkingDirectoryApplies) {
  CommandOptions options;
  options.working_directory = std::filesystem::temp_directory_path().string();
  const auto outcome = run_command_monitored({"/bin/sh", "-c", "pwd"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome.result.output.find("tmp"), std::string::npos);
}

TEST(Command, OutputCapRespected) {
  CommandOptions options;
  options.max_output_bytes = 16;
  const auto outcome = run_command_monitored(
      {"/bin/sh", "-c", "printf 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.result.output.size(), 16u);
}

TEST(Command, TimelineRecordedForCommands) {
  CommandOptions options;
  options.monitor.poll_interval = 0.02;
  options.monitor.record_timeline = true;
  const auto outcome = run_command_monitored({"/bin/sleep", "0.2"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.timeline.size(), 2u);
}

TEST(Command, SignalTermination) {
  // The command kills itself: reported as crashed-with-signal.
  const auto outcome =
      run_command_monitored({"/bin/sh", "-c", "kill -TERM $$; sleep 5"});
  EXPECT_EQ(outcome.status, TaskStatus::kCrashed);
  EXPECT_TRUE(outcome.result.signaled);
  EXPECT_EQ(outcome.result.signal, SIGTERM);
}

TEST(Command, PeakRssIsTheCommandsNotTheLaunchers) {
  // The command is forked from a process holding 96 MiB of touched memory.
  // Until exec the child maps a copy of those pages, and the kernel carries
  // that image's high-water mark into the reaped ru_maxrss; neither may be
  // reported as the command's peak.
  std::vector<char> held(96 << 20);
  for (size_t i = 0; i < held.size(); i += 4096) held[i] = static_cast<char>(i >> 12);
  CommandOptions options;
  options.monitor.poll_interval = 1.0;
  const auto outcome = run_command_monitored({"/bin/sh", "-c", "sleep 0.05"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LT(outcome.usage.max_rss_bytes, 32LL << 20);
  EXPECT_EQ(held[4096], 1);
}

}  // namespace
}  // namespace lfm::monitor
