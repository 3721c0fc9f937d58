// Serve-fleet workload: a request trace replayed against lightweight
// state machines of the sharded serving tier, entirely on virtual time.
//
// The real fleet's *policy* components are reused verbatim where they are
// already pure functions of an explicit clock — the consistent-hash
// router (serve::HashRing), the shard-health state machine with its
// two-tier ring walk (serve::ShardHealthMonitor), the hedge delay and
// token bucket (serve::HedgePolicy), each shard's factor cache policy
// (serve::CachePolicy: byte budget, LRU eviction, frequency admission),
// charged the live cache's bytes per factor, and each shard's admission
// queue (serve::RequestQueue: the depth bound, per-key FIFO buckets and
// the pick-up rule), holding pending-request records instead of payloads.
// A crash is modelled by the shard's own `crashed` flag, as in the live
// fleet; fleetsim runs no factor jobs, so the monitor's job-failure
// evidence never fires here. The worker lane is re-modelled as a busy
// flag and a solve-done event: the simulator needs its *timing and
// accounting* behavior, not its payloads. Accounting mirrors the real
// engine so the validation against a measured BENCH_serve.json compares
// like with like — one cache lookup per dispatched batch (a coalesced
// batch costs exactly one factorization, the single-flight contract),
// hits + misses == lookups, and the same latency split (queue wait /
// solve / total).
//
// Each shard's lane dispatches the way the live engine's worker does,
// work-conserving: a lane never idles while requests wait, and never
// forms a batch while it is busy.
//   - An arrival at an idle lane arms one pick-up (a kBatchWindow event)
//     at the current instant; it fires after every arrival landing at the
//     same instant, so a simultaneous burst still coalesces.
//   - A solve-done hands the freed lane RequestQueue::popOldest's batch:
//     the key whose head queued first, up to maxBatch requests of it.
//   - So a batch holds more than one column only when requests of its key
//     queued while the lane was busy.
//
// Failure has the live fleet's one path: a copy a shard fails is re-routed
// by the router alone, within the failover limit and the request's one
// deadline, which every copy carries; no shard re-runs it.
//
// Chaos vocabulary matches the serve CLI: crash-at/crash-shard kills a
// shard (cache and queue contents included), pending and future requests
// fail over along the ring successors; resurrect-at restores it cold.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "fleetsim/event_core.h"
#include "fleetsim/topology.h"
#include "serve/cache_policy.h"
#include "serve/fleet/hash_ring.h"
#include "serve/fleet/health.h"
#include "serve/fleet/hedge_policy.h"
#include "serve/metrics.h"
#include "serve/request_queue.h"
#include "serve/trace_io.h"

namespace hplmxp::fleetsim {

struct ChaosAction {
  enum class Kind { kCrash, kResurrect, kSlow };
  Kind kind = Kind::kCrash;
  double atMs = 0.0;
  index_t shard = 0;
  double factor = 0.5;  // kSlow only
};

struct ServeWorkloadConfig {
  serve::RequestTrace trace;
  index_t shards = 1;
  index_t virtualNodes = 64;
  index_t queueDepth = 64;
  index_t maxBatch = 8;
  /// Fleet-wide factor-cache budget, split evenly across the shards as
  /// FleetConfig::fleetCacheBytes is.
  double cacheMb = 64.0;
  double defaultDeadlineMs = 0.0;  // 0 = none
  index_t failoverLimit = 2;

  /// Host-solve rate knob: effective GFLOP/s of one shard's solve lane.
  /// The default is calibrated so an n=64 b=16 smoke-trace solve costs a
  /// few hundred microseconds, the measured magnitude on the CI host.
  double hostGflops = 2.0;
  index_t irIterations = 3;
  double solveOverheadUs = 100.0;
  double requestBytes = 1024.0;  // routed request payload on the wire

  /// Gray-failure defense, co-simulated with the SAME policy components
  /// the live fleet runs (serve::ShardHealthMonitor, serve::HedgePolicy)
  /// so thresholds tuned here land unchanged in FleetConfig. Default OFF:
  /// a defense-off run schedules no heartbeat/hedge events, preserving
  /// existing golden trace hashes. A shard pulses the phi detector every
  /// health.heartbeatIntervalSeconds / slowFactor.
  serve::HealthConfig health{false};

  /// The fields of a serve::HedgeConfig (first answer wins).
  bool hedgeEnabled = false;
  double hedgeDelayFactor = 1.5;
  double hedgeMinDelayMs = 2.0;
  double hedgeBudgetPerSecond = 20.0;
  double hedgeBudgetBurst = 8.0;

  std::vector<ChaosAction> chaos;

  void validate(const Topology& topology) const;
};

/// Aggregated counters the report and the validation gate read. The
/// latency series are seconds, percentile-summarized on demand.
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejectedQueueFull = 0;
  std::uint64_t rejectedDeadline = 0;
  /// Always 0: nothing in fleetsim rejects this way. perfbench's
  /// fleetsim_frontier request ledger still reads it, so a change to the
  /// benchmark removes it.
  std::uint64_t rejectedCircuitOpen = 0;
  std::uint64_t failed = 0;
  std::uint64_t failovers = 0;

  std::uint64_t cacheLookups = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t factorCount = 0;
  std::uint64_t evictions = 0;  // admitted entries dropped for budget
  std::uint64_t declined = 0;   // factorizations the policy did not admit

  std::uint64_t batches = 0;
  std::uint64_t batchedColumns = 0;
  index_t maxBatchSize = 0;
  index_t peakQueueDepth = 0;

  // Gray-failure defense tallies (all zero with the defense off).
  std::uint64_t heartbeats = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t healthDetours = 0;  // routes steered off quarantined shards
  std::uint64_t hedgesIssued = 0;
  std::uint64_t hedgeWins = 0;
  std::uint64_t hedgeWasted = 0;
  std::uint64_t hedgeDenied = 0;
  /// Total shard-lane solve seconds spent, duplicates included — the
  /// duplicate-work amplification gate compares this across defense
  /// on/off runs (must stay <= 1.15x).
  double solveWorkSeconds = 0.0;

  std::vector<double> queueWaitSeconds;
  std::vector<double> solveSeconds;
  std::vector<double> totalSeconds;

  [[nodiscard]] double hitRate() const {
    return cacheLookups == 0
               ? 0.0
               : static_cast<double>(cacheHits) /
                     static_cast<double>(cacheLookups);
  }
  [[nodiscard]] double meanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batchedColumns) /
                              static_cast<double>(batches);
  }
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(ServeWorkloadConfig config, const Topology& topology);

  [[nodiscard]] std::string name() const override { return "serve"; }
  void start(Simulator& sim) override;
  void handle(Simulator& sim, const Event& event) override;
  [[nodiscard]] bool done() const override;

  [[nodiscard]] const ServeStats& stats() const { return stats_; }
  [[nodiscard]] const ServeWorkloadConfig& config() const { return config_; }

  /// Per-shard snapshot for the CLI's `show shard|cache|queue` views.
  struct ShardView {
    index_t shard = 0;
    index_t node = 0;
    bool crashed = false;
    double slowFactor = 1.0;
    index_t queuedRequests = 0;
    index_t cachedKeys = 0;
    double cachedMb = 0.0;
    std::uint64_t routed = 0;
    std::uint64_t completed = 0;
    double busyUntil = 0.0;
  };
  [[nodiscard]] ShardView shardView(index_t shard) const;
  [[nodiscard]] index_t shardNode(index_t shard) const;

  /// Per-shard phi-detector snapshot for the CLI's `show health` view.
  struct HealthView {
    index_t shard = 0;
    index_t node = 0;
    std::string state = "healthy";
    double phi = 0.0;
    double lastHeartbeatAge = 0.0;  // seconds of virtual time
    std::uint64_t heartbeats = 0;
    std::uint64_t quarantines = 0;
  };
  [[nodiscard]] HealthView healthView(index_t shard, double now);

 private:
  struct PendingRequest {
    index_t traceIndex = 0;
    double arrivalSeconds = 0.0;   // first submission instant
    double deadlineSeconds = 0.0;  // absolute; 0 = none
    index_t failovers = 0;
    index_t primaryShard = -1;  // the router step's pick; a hedge avoids it
    bool hedgeCopy = false;  // this in-flight copy is the speculative one
  };

  struct Shard {
    Shard(index_t queueDepth, std::size_t cacheBudgetBytes)
        : queue(queueDepth), cache(cacheBudgetBytes) {}

    index_t node = 0;
    bool crashed = false;
    double slowFactor = 1.0;
    bool busy = false;       // a batch or a pending pick-up holds the lane
    double busyUntil = 0.0;  // when the lane's current batch ends
    std::uint64_t routed = 0;
    std::uint64_t completed = 0;
    /// Crash/resurrect bump it: heartbeat pulses, pick-ups and solve-dones
    /// scheduled under an older generation are stale and never act on the
    /// shard as it is now.
    std::int64_t generation = 0;
    serve::RequestQueue<index_t, PendingRequest> queue;  // by key index
    serve::CachePolicy cache;  // this shard's share of serve.cache-mb
  };

  struct InFlightBatch {
    index_t shard = 0;
    index_t keyIndex = 0;
    std::int64_t generation = 0;  // the shard's generation at dispatch
    std::vector<PendingRequest> requests;
    double dispatchSeconds = 0.0;
    double solveCost = 0.0;  // factor + solve, for the latency split
  };

  [[nodiscard]] const serve::TraceRequest& traceRequest(index_t i) const;
  [[nodiscard]] serve::ProblemKey keyOf(const serve::TraceRequest& r) const;
  [[nodiscard]] index_t keyIndexOf(const serve::TraceRequest& r);
  [[nodiscard]] index_t routeShard(index_t keyIndex, double now);
  /// Hands an idle lane the queue's oldest batch; requests past their
  /// deadline are rejected at pick-up. The lane stays idle when nothing is
  /// left to solve.
  void startNextBatch(Simulator& sim, index_t shardIndex);
  void crashShard(Simulator& sim, index_t shardIndex);
  /// Moves one copy off a crashed shard: a hedge copy, or a request
  /// another copy already answered, dies with it (wasted work); a primary
  /// fails over along the ring within the failover budget, else fails.
  /// Either way the shard failed the copy.
  void failOver(Simulator& sim, PendingRequest req, index_t fromShard,
                index_t keyIndex);
  /// The shard turned the copy away or failed it: a failed probe if it
  /// was probing, and the request's fate if this copy is the first to
  /// end (else wasted hedge work).
  void reject(const PendingRequest& req, index_t shardIndex,
              serve::RequestStatus status, double now);
  /// The shard solved a copy: a successful probe if it was probing.
  void reportSolved(index_t shardIndex, double now);
  void scheduleHeartbeat(Simulator& sim, index_t shardIndex);
  void fireHedge(Simulator& sim, index_t traceIndex, double now);

  ServeWorkloadConfig config_;
  const Topology* topology_;
  serve::HashRing ring_;
  /// The SAME health state machine the live fleet runs, fed virtual time —
  /// the whole point of the co-simulation is tuning its thresholds here.
  serve::ShardHealthMonitor healthMon_;
  serve::HedgePolicy hedge_;
  std::vector<Shard> shards_;
  std::map<serve::ProblemKey, index_t> keyIndex_;
  std::vector<serve::ProblemKey> keys_;
  std::vector<InFlightBatch> batches_;
  /// The answered-once ledger: router-side request state by trace index,
  /// from the router step until the first copy's terminal event erases
  /// it. A copy that ends and finds no entry lost to another copy.
  std::map<index_t, PendingRequest> unanswered_;
  index_t me_ = -1;
  ServeStats stats_;
};

}  // namespace hplmxp::fleetsim
