// Unit tests for the runner's statistics and open-loop schedule.
#include <gtest/gtest.h>

#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

TEST(TailPercentile, KeepsTenSamplesBeyondTheReportedPercentile) {
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  EXPECT_EQ(tail_percentile(200, 20), 90.0);
}

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(FixedRateSchedule, ReleasesEveryArrivalDueByNow) {
  FixedRateSchedule s(10.0, 1000.0);
  std::vector<double> dues;
  const auto submit = [&](uint64_t i, double due) {
    EXPECT_EQ(i, dues.size());
    dues.push_back(due);
  };
  EXPECT_EQ(s.release(10.0, 11.0, submit), 1u);  // arrival 0 is due at start
  EXPECT_EQ(s.release(10.0005, 11.0, submit), 0u);
  EXPECT_EQ(s.release(10.0031, 11.0, submit), 3u);  // 1, 2 and 3
  ASSERT_EQ(dues.size(), 4u);
  EXPECT_DOUBLE_EQ(dues[3], 10.003);
  EXPECT_EQ(s.released(), 4u);
}

TEST(FixedRateSchedule, StallIsChargedFromDueTime) {
  // A generator that stalls for 50 ms releases the arrivals it missed in a
  // burst. Their latency runs from when each was due, so the stall shows in
  // every one of them; measuring from the late send would hide it.
  FixedRateSchedule s(0.0, 1000.0);
  std::vector<double> dues;
  s.release(0.0, 1.0, [&](uint64_t, double due) { dues.push_back(due); });
  s.release(0.0505, 1.0, [&](uint64_t, double due) { dues.push_back(due); });
  ASSERT_EQ(dues.size(), 51u);
  const double completion = 0.051;  // each answered right after the burst
  EXPECT_NEAR(completion - dues[1], 0.050, 1e-12);
  EXPECT_NEAR(completion - dues[50], 0.001, 1e-12);
  ASSERT_EQ(s.lateness().size(), 51u);
  EXPECT_DOUBLE_EQ(s.lateness()[0], 0.0);
  EXPECT_NEAR(s.lateness()[1], 0.0495, 1e-12);
  EXPECT_NEAR(s.lateness()[50], 0.0005, 1e-12);
}

TEST(FixedRateSchedule, StopsAtTheDeadline) {
  FixedRateSchedule s(0.0, 100.0);
  size_t n = 0;
  s.release(5.0, 0.1, [&](uint64_t, double) { ++n; });
  EXPECT_EQ(n, 10u);  // arrivals 0..9; arrival 10 is due at the deadline
}

}  // namespace
}  // namespace perfbench
