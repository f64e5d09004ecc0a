// TierMetrics: the counters and histograms of one transport tier, recorded
// under that tier's name ("net.results", "fed.results", "foreman.connects").
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace lfm::net {

class TierMetrics {
 public:
  // `tier` must be a string literal: trace events keep it as their category.
  // A null `configured` records into the process-wide registry while the
  // recorder is enabled (the historical behaviour); a non-null one records
  // unconditionally, which is how co-hosted fed components keep their
  // series apart (obs::Metrics prefixes).
  TierMetrics(obs::Metrics* configured, const char* tier)
      : configured_(configured), tier_(tier) {}

  const char* tier() const { return tier_; }
  obs::Metrics* sink() const {
    if (configured_ != nullptr) return configured_;
    return obs::Recorder::enabled() ? &obs::Recorder::global().metrics() : nullptr;
  }
  void count(const char* name, int64_t n = 1) const {
    if (obs::Metrics* m = sink()) m->counter(full(name)).add(n);
  }
  void observe(const char* name, double v, double lo, double hi) const {
    if (obs::Metrics* m = sink()) m->histogram(full(name), lo, hi).observe(v);
  }

 private:
  std::string full(const char* name) const { return std::string(tier_) + "." + name; }

  obs::Metrics* configured_;
  const char* tier_;
};

}  // namespace lfm::net
