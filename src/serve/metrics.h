// Per-request latency recording and the serving report.
//
// Every finished request (completed, rejected, or failed) deposits its
// RequestOutcome here; the report splits completed-request latency into
// queue wait vs. service time and summarizes both as p50/p95/p99, next to
// throughput, admission counters, and the factor-cache hit picture. The
// JSON rendering is the BENCH_serve.json contract the CI serve-smoke job
// checks fields of.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/factor_cache.h"
#include "serve/request.h"
#include "util/table.h"

namespace hplmxp::serve {

/// p50/p95/p99 of one latency series, in milliseconds.
struct LatencyPercentiles {
  double p50Ms = 0.0;
  double p95Ms = 0.0;
  double p99Ms = 0.0;
  double maxMs = 0.0;

  static LatencyPercentiles of(const std::vector<double>& seconds);
  [[nodiscard]] std::string toJson() const;
};

struct ServeReport {
  std::string trace;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejectedQueueFull = 0;
  std::uint64_t rejectedDeadline = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;

  double wallSeconds = 0.0;
  double throughputRps = 0.0;  // completed per wall second
  double meanBatchSize = 0.0;
  index_t maxBatchSize = 0;
  std::uint64_t batchedSolves = 0;  // coalesced multi-RHS executions
  index_t peakQueueDepth = 0;

  // Chaos tallies (zero when no injector is armed).
  std::uint64_t injectedDelays = 0;
  std::uint64_t injectedTransients = 0;

  // Gray-failure defense tallies (zero outside a fleet). Filled by the
  // FleetEngine, not the recorder.
  std::uint64_t hedges = 0;
  std::uint64_t hedgeWins = 0;
  std::uint64_t hedgeWasted = 0;
  std::uint64_t quarantines = 0;

  FactorCache::Stats cache;
  LatencyPercentiles queueWait;  // completed requests only
  LatencyPercentiles solve;      // batched solve time per request
  LatencyPercentiles total;      // submission to completion

  [[nodiscard]] Table toTable() const;
  [[nodiscard]] std::string toJson() const;
};

/// Thread-safe sink of finished requests.
class LatencyRecorder {
 public:
  void record(const RequestOutcome& outcome);

  /// Also counts coalesced executions for the batching stats.
  void recordBatch(index_t batchSize);

  [[nodiscard]] std::vector<RequestOutcome> outcomes() const;

  /// p95 of the last ~256 completed requests' total latency (seconds);
  /// 0 before any completion. The hedge scheduler derives its fire delay
  /// from this, so it must track the *current* service level, not the
  /// whole run's history.
  [[nodiscard]] double recentTotalP95Seconds() const;

  /// Builds the report from everything recorded so far. Cache stats and
  /// wall time are supplied by the engine.
  [[nodiscard]] ServeReport report(const FactorCache::Stats& cacheStats,
                                   double wallSeconds,
                                   index_t peakQueueDepth) const;

 private:
  static constexpr std::size_t kRecentWindow = 256;

  mutable std::mutex mutex_;
  std::vector<RequestOutcome> outcomes_;
  std::vector<double> recentTotals_;  // ring of completed totals (seconds)
  std::size_t recentNext_ = 0;
  std::uint64_t batchedSolves_ = 0;
  std::uint64_t batchedColumns_ = 0;
  index_t maxBatchSize_ = 0;
};

/// Writes `json` to `path` (throws CheckError on I/O failure).
void writeReportFile(const std::string& path, const std::string& json);

}  // namespace hplmxp::serve
