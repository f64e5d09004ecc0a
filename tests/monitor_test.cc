// Tests for the real LFM: fork/pipe execution, /proc measurement, limit
// enforcement, exception transport, crash reporting.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <thread>
#include <vector>

#include "monitor/detail.h"
#include "monitor/lfm.h"
#include "monitor/proc_reader.h"
#include "serde/value.h"

namespace lfm::monitor {
namespace {

using serde::Value;
using serde::ValueDict;

TEST(Resources, FirstViolation) {
  ResourceUsage usage;
  usage.wall_time = 10.0;
  usage.max_rss_bytes = 500;
  ResourceLimits limits;
  EXPECT_FALSE(first_violation(usage, limits).has_value());
  EXPECT_TRUE(limits.unlimited());

  limits.wall_time = 5.0;
  ASSERT_TRUE(first_violation(usage, limits).has_value());
  EXPECT_EQ(*first_violation(usage, limits), "wall_time");

  limits.wall_time.reset();
  limits.memory_bytes = 400;
  EXPECT_EQ(*first_violation(usage, limits), "memory");

  usage.max_rss_bytes = 100;
  EXPECT_FALSE(first_violation(usage, limits).has_value());
}

TEST(Resources, SummaryMentionsKeyFields) {
  ResourceUsage usage;
  usage.wall_time = 1.5;
  usage.max_rss_bytes = 1000000;
  const std::string s = usage.summary();
  EXPECT_NE(s.find("wall="), std::string::npos);
  EXPECT_NE(s.find("rss_peak="), std::string::npos);
}

TEST(ProcReader, SampleSelf) {
  const auto sample = sample_process(::getpid());
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->pid, ::getpid());
  EXPECT_GT(sample->rss_bytes, 0);
  EXPECT_GE(sample->utime + sample->stime, 0.0);
}

TEST(ProcReader, SampleMissingProcess) {
  // PID near the max is almost certainly unused.
  EXPECT_FALSE(sample_process(4194000).has_value());
}

TEST(ProcReader, SubtreeContainsSelf) {
  const auto tree = process_subtree(::getpid());
  bool found = false;
  for (const pid_t pid : tree) {
    if (pid == ::getpid()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ProcReader, ChildrenWalkAndProcScanFindTheSameSubtree) {
  // A child with a grandchild, both parked on a pipe until released: the
  // children walk and the full /proc scan must agree on the subtree.
  int release[2];
  ASSERT_EQ(::pipe(release), 0);
  const pid_t child = ::fork();
  if (child == 0) {
    ::close(release[1]);
    const pid_t grandchild = ::fork();
    char byte;
    while (::read(release[0], &byte, 1) < 0) {
    }
    if (grandchild > 0) ::waitpid(grandchild, nullptr, 0);
    ::_exit(0);
  }
  ::close(release[0]);
  std::vector<pid_t> walked, scanned;
  for (int tries = 0; tries < 200 && walked.size() < 2; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    walked = process_subtree(child);
  }
  scanned = detail::scan_process_subtree(child);
  ::close(release[1]);
  ::waitpid(child, nullptr, 0);
  std::sort(walked.begin(), walked.end());
  std::sort(scanned.begin(), scanned.end());
  ASSERT_EQ(walked.size(), 2u);
  EXPECT_EQ(walked.front(), child);
  EXPECT_EQ(walked, scanned);
}

TEST(ProcReader, SubtreeAggregation) {
  const ResourceUsage usage = sample_subtree(::getpid(), 2.0);
  EXPECT_DOUBLE_EQ(usage.wall_time, 2.0);
  EXPECT_GT(usage.rss_bytes, 0);
  EXPECT_GE(usage.processes, 1);
}

// --- run_monitored ------------------------------------------------------------

TEST(Lfm, SuccessReturnsValue) {
  const auto outcome = run_monitored(
      [](const Value& args) {
        return Value(args.at("x").as_int() * 2);
      },
      Value(ValueDict{{"x", Value(21)}}));
  ASSERT_EQ(outcome.status, TaskStatus::kSuccess);
  EXPECT_EQ(outcome.result.as_int(), 42);
  EXPECT_GT(outcome.usage.wall_time, 0.0);
}

TEST(Lfm, ResultSurvivesChildMemoryIsolation) {
  // Mutations in the child must not leak back: copy-on-write semantics.
  static int global_counter = 0;
  const auto outcome = run_monitored(
      [](const Value&) {
        global_counter = 999;  // visible only in the child
        return Value(global_counter);
      },
      Value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.result.as_int(), 999);
  EXPECT_EQ(global_counter, 0);  // parent state untouched
}

TEST(Lfm, ExceptionTransported) {
  const auto outcome = run_monitored(
      [](const Value&) -> Value { throw std::runtime_error("task exploded"); },
      Value());
  EXPECT_EQ(outcome.status, TaskStatus::kException);
  EXPECT_NE(outcome.error.find("task exploded"), std::string::npos);
}

TEST(Lfm, LfmErrorTransported) {
  const auto outcome = run_monitored(
      [](const Value& v) -> Value { return Value(v.at("missing")); }, Value(ValueDict{}));
  EXPECT_EQ(outcome.status, TaskStatus::kException);
  EXPECT_NE(outcome.error.find("missing"), std::string::npos);
}

TEST(Lfm, CrashDetected) {
  const auto outcome = run_monitored(
      [](const Value&) -> Value { ::_exit(3); }, Value());
  EXPECT_EQ(outcome.status, TaskStatus::kCrashed);
  EXPECT_FALSE(outcome.error.empty());
}

TEST(Lfm, WallTimeLimitKillsTask) {
  MonitorOptions options;
  options.limits.wall_time = 0.15;
  options.poll_interval = 0.02;
  const auto start = std::chrono::steady_clock::now();
  const auto outcome = run_monitored(
      [](const Value&) {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return Value(1);
      },
      Value(), options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(outcome.status, TaskStatus::kLimitExceeded);
  EXPECT_EQ(outcome.violated_resource, "wall_time");
  EXPECT_LT(elapsed, 10.0);  // killed long before the sleep finished
}

TEST(Lfm, MemoryLimitKillsHog) {
  MonitorOptions options;
  options.limits.memory_bytes = 48LL << 20;  // 48 MiB
  options.poll_interval = 0.01;
  const auto outcome = run_monitored(
      [](const Value&) {
        std::vector<std::string> hoard;
        for (int i = 0; i < 100000; ++i) {
          hoard.emplace_back(1 << 20, 'x');
          // Touch the pages so RSS actually grows.
          for (size_t j = 0; j < hoard.back().size(); j += 4096) hoard.back()[j] = 'y';
        }
        return Value(1);
      },
      Value(), options);
  EXPECT_EQ(outcome.status, TaskStatus::kLimitExceeded);
  EXPECT_EQ(outcome.violated_resource, "memory");
  EXPECT_GT(outcome.usage.max_rss_bytes, 48LL << 20);
}

TEST(Lfm, PollCallbackInvoked) {
  MonitorOptions options;
  options.poll_interval = 0.01;
  int polls = 0;
  options.on_poll = [&polls](const ResourceUsage& u) {
    ++polls;
    EXPECT_GE(u.wall_time, 0.0);
  };
  const auto outcome = run_monitored(
      [](const Value&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        return Value(1);
      },
      Value(), options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_GE(polls, 2);
}

TEST(Lfm, MeasuresCpuBoundWork) {
  MonitorOptions options;
  options.poll_interval = 0.01;
  const auto outcome = run_monitored(
      [](const Value&) {
        // Spin until the process has consumed a fixed amount of CPU time
        // (not wall time): under a loaded test machine a wall-clocked spin
        // can be descheduled for most of its window and burn too little CPU
        // for the assertions below.
        volatile double sink = 0.0;
        const auto cpu_now = [] {
          return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
        };
        const double cpu0 = cpu_now();
        while (cpu_now() - cpu0 < 0.1) {
          for (int i = 1; i < 5000; ++i) sink += 1.0 / i;
        }
        return Value(sink);
      },
      Value(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.usage.cpu_time, 0.05);
}

TEST(Lfm, TracksChildProcessesOfTask) {
  // A task that forks its own child: the subtree scan must see the combined
  // process count.
  MonitorOptions options;
  options.poll_interval = 0.01;
  int max_procs = 0;
  options.on_poll = [&max_procs](const ResourceUsage& u) {
    max_procs = std::max(max_procs, u.processes);
  };
  const auto outcome = run_monitored(
      [](const Value&) {
        const pid_t child = ::fork();
        if (child == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          ::_exit(0);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        return Value(1);
      },
      Value(), options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_GE(max_procs, 2);
}

TEST(Lfm, LargeResultPayload) {
  // Results bigger than the pipe buffer must still arrive intact.
  const auto outcome = run_monitored(
      [](const Value&) {
        serde::ValueList big;
        for (int i = 0; i < 50000; ++i) big.push_back(Value(int64_t{i}));
        return Value(std::move(big));
      },
      Value());
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.result.as_list().size(), 50000u);
  EXPECT_EQ(outcome.result.as_list()[49999].as_int(), 49999);
}

TEST(Lfm, MonitoredDecoratorBindsOptions) {
  MonitorOptions options;
  options.limits.wall_time = 60.0;
  const Monitored wrapped([](const Value& v) { return Value(v.as_int() + 1); }, options);
  const auto outcome = wrapped(Value(41));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.result.as_int(), 42);
  EXPECT_EQ(wrapped.options().limits.wall_time, 60.0);
}

TEST(Lfm, StatusNames) {
  EXPECT_STREQ(task_status_name(TaskStatus::kSuccess), "success");
  EXPECT_STREQ(task_status_name(TaskStatus::kException), "exception");
  EXPECT_STREQ(task_status_name(TaskStatus::kLimitExceeded), "limit_exceeded");
  EXPECT_STREQ(task_status_name(TaskStatus::kCrashed), "crashed");
}

TEST(Lfm, SequentialInvocationsIndependent) {
  for (int i = 0; i < 5; ++i) {
    const auto outcome =
        run_monitored([](const Value& v) { return Value(v.as_int() * v.as_int()); },
                      Value(int64_t{i}));
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.result.as_int(), i * i);
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(Lfm, ExitWakesMonitorBeforeNextPoll) {
  // The child's exit wakes the monitor at once, so a no-op call costs a
  // fork and a reap, not a poll interval.
  MonitorOptions options;
  options.poll_interval = 0.5;
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcome =
      run_monitored([](const Value&) { return Value(); }, Value(), options);
  const double elapsed = seconds_since(t0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LT(elapsed, 0.1);
}

TEST(Lfm, LargeResultDrainsAsItArrives) {
  // A result many times the pipe buffer: each buffer-full wakes the
  // monitor to drain it rather than waiting out a poll interval.
  MonitorOptions options;
  options.poll_interval = 1.0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcome = run_monitored(
      [](const Value&) { return Value(serde::Bytes(1 << 20, 0x5a)); }, Value(), options);
  const double elapsed = seconds_since(t0);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.result.as_bytes().size(), size_t{1} << 20);
  EXPECT_EQ(outcome.result.as_bytes()[12345], 0x5a);
  EXPECT_LT(elapsed, 0.5);
}

TEST(Lfm, UsageOfTaskShorterThanOnePollComesFromReap) {
  // The only /proc sample lands right after fork, before the task touches
  // its 64 MiB; it exits long before the next poll. The peak must come from
  // the kernel's accounting at reap, not from a sample that never happened.
  MonitorOptions options;
  options.poll_interval = 1.0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcome = run_monitored(
      [](const Value&) {
        std::string block(64 << 20, 'x');
        for (size_t j = 0; j < block.size(); j += 4096) block[j] = 'y';
        return Value(static_cast<int64_t>(block[4096]));
      },
      Value(), options);
  const double elapsed = seconds_since(t0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LT(elapsed, 1.0);
  EXPECT_GT(outcome.usage.max_rss_bytes, 0);
  EXPECT_GE(outcome.usage.max_rss_bytes, 64LL << 20);
  EXPECT_GT(outcome.usage.cpu_time, 0.0);
}

}  // namespace
}  // namespace lfm::monitor
