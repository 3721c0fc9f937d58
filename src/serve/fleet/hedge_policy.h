// When a hedged request fires, and how often: the policy of the "tail at
// scale" defense (Dean and Barroso, CACM 2013) that the live FleetEngine
// and fleetsim's ServeWorkload both run. A request still unanswered
// delaySeconds() after submission gets a second copy on another shard,
// which ShardHealthMonitor::routeAdmitted picks; the first answer wins.
// The delay is delayFactor x the p95 of the last kWindow completed
// totals, clamped to [minDelaySeconds, kMaxDelaySeconds]; observe()
// recomputes that p95 by selection, bitwise equal to percentile()
// (util/stats.h), so reading the delay copies and sorts nothing. A token
// bucket caps duplicate work: a fleet-wide slowdown drains it and stops
// hedging, while one slow shard stays within budget. No payloads, the
// time is an argument, and every method is thread-safe.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace hplmxp::serve {

struct HedgeConfig {
  bool enabled = false;
  double delayFactor = 1.5;
  double minDelaySeconds = 0.002;
  /// Token bucket: hedges admitted per second and the burst capacity.
  double budgetPerSecond = 20.0;
  double budgetBurst = 8.0;

  /// Checks an enabled config; a disabled one never hedges.
  void validate() const;
};

class HedgePolicy {
 public:
  static constexpr std::size_t kWindow = 256;
  static constexpr double kMaxDelaySeconds = 0.5;

  /// Validates `config`; the bucket starts full at `now`.
  HedgePolicy(HedgeConfig config, double now);

  /// Records one completed request's total latency (seconds).
  void observe(double totalSeconds);
  [[nodiscard]] double delaySeconds() const;
  /// Refills the bucket up to `now`, then takes one token or denies.
  [[nodiscard]] bool admit(double now);

 private:
  HedgeConfig config_;
  mutable std::mutex mutex_;
  std::vector<double> window_;    // ring of the last kWindow totals
  std::size_t next_ = 0;          // the slot the next total overwrites
  std::vector<double> selected_;  // scratch for the p95 selection
  double delaySeconds_;
  double tokens_;
  double refillAt_;
};

}  // namespace hplmxp::serve
