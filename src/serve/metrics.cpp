#include "serve/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "serve/json.h"
#include "util/stats.h"

namespace hplmxp::serve {

LatencyPercentiles LatencyPercentiles::of(
    const std::vector<double>& seconds) {
  LatencyPercentiles p;
  if (seconds.empty()) {
    return p;
  }
  p.p50Ms = percentile(seconds, 50.0) * 1e3;
  p.p95Ms = percentile(seconds, 95.0) * 1e3;
  p.p99Ms = percentile(seconds, 99.0) * 1e3;
  p.maxMs = *std::max_element(seconds.begin(), seconds.end()) * 1e3;
  return p;
}

std::string LatencyPercentiles::toJson() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\"p50\": " << p50Ms << ", \"p95\": " << p95Ms
     << ", \"p99\": " << p99Ms << ", \"max\": " << maxMs << "}";
  return os.str();
}

void LatencyRecorder::record(const RequestOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  outcomes_.push_back(outcome);
  if (outcome.status == RequestStatus::kCompleted) {
    if (recentTotals_.size() < kRecentWindow) {
      recentTotals_.push_back(outcome.totalSeconds);
    } else {
      recentTotals_[recentNext_] = outcome.totalSeconds;
      recentNext_ = (recentNext_ + 1) % kRecentWindow;
    }
  }
}

double LatencyRecorder::recentTotalP95Seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (recentTotals_.empty()) {
    return 0.0;
  }
  return percentile(recentTotals_, 95.0);
}

void LatencyRecorder::recordBatch(index_t batchSize) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++batchedSolves_;
  batchedColumns_ += static_cast<std::uint64_t>(batchSize);
  maxBatchSize_ = std::max(maxBatchSize_, batchSize);
}

std::vector<RequestOutcome> LatencyRecorder::outcomes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outcomes_;
}

ServeReport LatencyRecorder::report(const FactorCache::Stats& cacheStats,
                                    double wallSeconds,
                                    index_t peakQueueDepth) const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeReport r;
  r.cache = cacheStats;
  r.wallSeconds = wallSeconds;
  r.peakQueueDepth = peakQueueDepth;
  r.submitted = outcomes_.size();
  r.batchedSolves = batchedSolves_;
  r.maxBatchSize = maxBatchSize_;
  r.meanBatchSize =
      batchedSolves_ > 0 ? static_cast<double>(batchedColumns_) /
                               static_cast<double>(batchedSolves_)
                         : 0.0;

  std::vector<double> queueWait;
  std::vector<double> solve;
  std::vector<double> total;
  for (const RequestOutcome& o : outcomes_) {
    r.retries += static_cast<std::uint64_t>(o.retries);
    switch (o.status) {
      case RequestStatus::kCompleted:
        ++r.completed;
        queueWait.push_back(o.queueWaitSeconds);
        solve.push_back(o.solveSeconds);
        total.push_back(o.totalSeconds);
        break;
      case RequestStatus::kRejectedQueueFull:
        ++r.rejectedQueueFull;
        break;
      case RequestStatus::kRejectedDeadline:
        ++r.rejectedDeadline;
        break;
      case RequestStatus::kFailed:
        ++r.failed;
        break;
      case RequestStatus::kPending:
        break;  // drained engines never report pending outcomes
    }
  }
  r.throughputRps =
      wallSeconds > 0.0 ? static_cast<double>(r.completed) / wallSeconds
                        : 0.0;
  r.queueWait = LatencyPercentiles::of(queueWait);
  r.solve = LatencyPercentiles::of(solve);
  r.total = LatencyPercentiles::of(total);
  return r;
}

Table ServeReport::toTable() const {
  Table t({"metric", "value"});
  t.addRow({"requests submitted", Table::num((long long)submitted)});
  t.addRow({"completed", Table::num((long long)completed)});
  t.addRow({"rejected (queue full)",
            Table::num((long long)rejectedQueueFull)});
  t.addRow({"rejected (deadline)", Table::num((long long)rejectedDeadline)});
  t.addRow({"failed", Table::num((long long)failed)});
  t.addRow({"retries (chaos)", Table::num((long long)retries)});
  t.addRow({"wall seconds", Table::num(wallSeconds, 3)});
  t.addRow({"throughput (req/s)", Table::num(throughputRps, 1)});
  t.addRow({"batched solves", Table::num((long long)batchedSolves)});
  t.addRow({"mean / max batch", Table::num(meanBatchSize, 2) + " / " +
                                    Table::num((long long)maxBatchSize)});
  t.addRow({"peak queue depth", Table::num((long long)peakQueueDepth)});
  if (hedges > 0 || quarantines > 0) {
    t.addRow({"hedges / wins / wasted", Table::num((long long)hedges) +
                                            " / " +
                                            Table::num((long long)hedgeWins) +
                                            " / " +
                                            Table::num((long long)hedgeWasted)});
    t.addRow({"health quarantines", Table::num((long long)quarantines)});
  }
  t.addRow({"cache hit rate", Table::num(cache.hitRate() * 100.0, 1) + "%"});
  t.addRow({"factorizations run", Table::num((long long)cache.factorCount)});
  t.addRow({"cache evictions", Table::num((long long)cache.evictions)});
  t.addRow({"cache bytes", Table::num((long long)cache.bytesInUse)});
  t.addRow({"queue wait p50/p95/p99 ms",
            Table::num(queueWait.p50Ms, 2) + " / " +
                Table::num(queueWait.p95Ms, 2) + " / " +
                Table::num(queueWait.p99Ms, 2)});
  t.addRow({"solve p50/p95/p99 ms",
            Table::num(solve.p50Ms, 2) + " / " + Table::num(solve.p95Ms, 2) +
                " / " + Table::num(solve.p99Ms, 2)});
  t.addRow({"total p50/p95/p99 ms",
            Table::num(total.p50Ms, 2) + " / " + Table::num(total.p95Ms, 2) +
                " / " + Table::num(total.p99Ms, 2)});
  return t;
}

std::string ServeReport::toJson() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"trace\": " << jsonQuote(trace) << ",\n";
  os << "  \"submitted\": " << submitted << ",\n";
  os << "  \"completed\": " << completed << ",\n";
  os << "  \"rejected_queue_full\": " << rejectedQueueFull << ",\n";
  os << "  \"rejected_deadline\": " << rejectedDeadline << ",\n";
  os << "  \"failed\": " << failed << ",\n";
  os << "  \"retries\": " << retries << ",\n";
  os << "  \"wall_seconds\": " << wallSeconds << ",\n";
  os << "  \"throughput_rps\": " << throughputRps << ",\n";
  os << "  \"batched_solves\": " << batchedSolves << ",\n";
  os << "  \"mean_batch_size\": " << meanBatchSize << ",\n";
  os << "  \"max_batch_size\": " << maxBatchSize << ",\n";
  os << "  \"peak_queue_depth\": " << peakQueueDepth << ",\n";
  os << "  \"injected_delays\": " << injectedDelays << ",\n";
  os << "  \"injected_transients\": " << injectedTransients << ",\n";
  os << "  \"hedges\": " << hedges << ",\n";
  os << "  \"hedge_wins\": " << hedgeWins << ",\n";
  os << "  \"hedge_wasted\": " << hedgeWasted << ",\n";
  os << "  \"quarantines\": " << quarantines << ",\n";
  os << "  \"cache_hit_rate\": " << cache.hitRate() << ",\n";
  os << "  \"cache_lookups\": " << cache.lookups << ",\n";
  os << "  \"cache_hits\": " << cache.hits << ",\n";
  os << "  \"cache_coalesced\": " << cache.coalesced << ",\n";
  os << "  \"cache_misses\": " << cache.misses << ",\n";
  os << "  \"factor_count\": " << cache.factorCount << ",\n";
  os << "  \"cache_evictions\": " << cache.evictions << ",\n";
  os << "  \"cache_bytes_in_use\": " << cache.bytesInUse << ",\n";
  os << "  \"cache_budget_bytes\": " << cache.budgetBytes << ",\n";
  os << "  \"queue_wait_ms\": " << queueWait.toJson() << ",\n";
  os << "  \"solve_ms\": " << solve.toJson() << ",\n";
  os << "  \"total_ms\": " << total.toJson() << "\n";
  os << "}\n";
  return os.str();
}

void writeReportFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  HPLMXP_REQUIRE(f != nullptr,
                 ("cannot write report file: " + path).c_str());
  std::fputs(json.c_str(), f);
  std::fclose(f);
}

}  // namespace hplmxp::serve
