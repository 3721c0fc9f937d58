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

  double wallSeconds = 0.0;
  double throughputRps = 0.0;  // completed per wall second
  double meanBatchSize = 0.0;
  index_t maxBatchSize = 0;
  std::uint64_t batchedSolves = 0;  // coalesced multi-RHS executions
  index_t peakQueueDepth = 0;

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

  /// Builds the report from everything recorded so far. Cache stats and
  /// wall time are supplied by the engine.
  [[nodiscard]] ServeReport report(const FactorCache::Stats& cacheStats,
                                   double wallSeconds,
                                   index_t peakQueueDepth) const;

 private:
  mutable std::mutex mutex_;
  std::vector<RequestOutcome> outcomes_;
  std::uint64_t batchedSolves_ = 0;
  std::uint64_t batchedColumns_ = 0;
  index_t maxBatchSize_ = 0;
};

/// Writes `json` to `path` (throws CheckError on I/O failure).
void writeReportFile(const std::string& path, const std::string& json);

}  // namespace hplmxp::serve
