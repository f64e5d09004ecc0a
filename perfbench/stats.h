// Sample statistics and the open-loop arrival schedule used by the
// benchmark runner. Header-only so the self-test links nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Quantile q in [0, 1] of an ascending sample, interpolating linearly
// between closest ranks. Empty input gives 0.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// The highest percentile of the ladder 50, 90, 95, 99, 99.9, 99.99 that
// still has at least `beyond` of `n` samples above it, so a reported tail is
// never set by a handful of outliers. Returns 0 when even the median lacks
// them. Computed in basis points to stay exact at the boundaries.
inline double tail_percentile(size_t n, size_t beyond = 10) {
  static constexpr int64_t kLadderBp[] = {5000, 9000, 9500, 9900, 9990, 9999};
  double best = 0.0;
  for (const int64_t bp : kLadderBp) {
    if (static_cast<int64_t>(n) * (10000 - bp) >=
        static_cast<int64_t>(beyond) * 10000) {
      best = static_cast<double>(bp) / 100.0;
    }
  }
  return best;
}

// Fixed-rate open-loop arrivals: arrival i is due at start + i / rate,
// whatever the system is doing. release() hands every arrival due by `now`
// to `submit(index, due)`; a generator that runs late releases a burst, and
// because latency is taken from the due time (completion - due), a stall is
// charged to every arrival it delayed, not hidden by the late send.
class FixedRateSchedule {
 public:
  FixedRateSchedule(double start, double rate) : start_(start), rate_(rate) {}

  double due(uint64_t index) const {
    return start_ + static_cast<double>(index) / rate_;
  }

  // Releases arrivals due at or before `now` but not after `until`; returns
  // how many. Lateness (release time minus due time) of each is recorded.
  template <class Submit>
  size_t release(double now, double until, Submit&& submit) {
    size_t n = 0;
    while (due(next_) <= now && due(next_) < until) {
      const double d = due(next_);
      lateness_.push_back(now - d);
      submit(next_, d);
      ++next_;
      ++n;
    }
    return n;
  }

  uint64_t released() const { return next_; }
  const std::vector<double>& lateness() const { return lateness_; }

 private:
  double start_;
  double rate_;
  uint64_t next_ = 0;
  std::vector<double> lateness_;
};

}  // namespace perfbench
