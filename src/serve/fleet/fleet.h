// Sharded serve fabric: many ServeEngines behind one consistent-hash
// router; each shard factors its own misses.
//
//                         FleetEngine::submit
//                                │
//         ShardHealthMonitor::route over HashRing::route (alive only)
//                                │
//        ┌───────────────┬───────┴───────┬───────────────┐
//     shard 0         shard 1         shard 2          ...
//   ServeEngine     ServeEngine     ServeEngine   (a miss is one factor
//        │               │               │         job on the shard's
//        │               │               │         own worker thread)
//        └── Handle::onDone ── failover/publish ──┘
//
// Routing has one rule, the one fleetsim runs: a key goes to the first
// shard clockwise of its ring point that is alive and that the health
// monitor admits, else to the first alive shard that hard evidence does
// not exclude. A failover takes the same walk without the shards the
// request already tried. A hedge (serve/fleet/hedge_policy.h) takes only
// its first tier: the primary copy is still in flight, so a hedge never
// falls back to a shard the monitor distrusts.
//
// A request has one deadline, fleet-wide: its own budget, else the shards'
// default, counted from the fleet submit. A failover or a hedge is routed
// with what is left of it, never a fresh budget at its shard; a failover
// with nothing left is answered kRejectedDeadline without routing, and a
// hedge with nothing left is not sent. A shard never re-runs a failed
// batch (serve/engine.h), so failover is the one retry path.
//
// Shard health is one state machine per shard, the ShardHealthMonitor
// (serve/fleet/health.h). Request completions feed its phi detector, and
// factor-job outcomes and the ops break its hard tier: three failed jobs
// in a row, or breakShard, take the shard out of routing (drain — its
// in-flight requests still finish). A failure-struck shard probes its way
// back after the dwell; an ops break holds until unbreakShard or
// resurrectShard. A crashed shard (crashShard, from the ops hook or from a
// fault hook mid-job) fails its factor jobs, the one in flight included,
// and loses its cached factors; resurrection bumps the shard's generation
// and lifts any hard hold, and the ring routes the shard's keyspace back,
// to be factored afresh — no request is ever dropped or double-answered,
// which the fleet report counts prove.
//
// Completed answers are bitwise-identical across shard counts: a solution
// is a pure function of (ProblemKey, rhsSeed, maxIr) on the single-device
// solve path every shard runs, so routing and failover can never change
// the numbers — only who computes them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "serve/fleet/hash_ring.h"
#include "serve/fleet/health.h"
#include "serve/fleet/hedge_policy.h"
#include "serve/handle.h"

namespace hplmxp::serve {

struct FleetConfig {
  index_t shards = 2;
  index_t virtualNodes = 64;   // ring points per shard
  /// Unread: a shard factors on its own worker thread, not on a rank
  /// group. perfbench's serve_zipf still assigns it, so the name stays
  /// until that benchmark is next changed.
  index_t groupSize = 2;
  /// Fleet-wide factor-cache budget, split evenly across the per-shard
  /// FactorCaches.
  std::size_t fleetCacheBytes = std::size_t{64} << 20;
  /// Re-routes attempted after a shard-side failure before the failure
  /// is published to the client.
  index_t failoverLimit = 2;
  /// Per-shard engine template; cacheBytes is overridden by the fleet
  /// split and factorOverride is owned by the fleet.
  ServeConfig shard;
  /// Shard health (serve/fleet/health.h). `enabled` switches its soft
  /// tier, the phi detector fed by shard completions: a phi quarantine
  /// *deprioritizes*, so routing falls back to the shard when no preferred
  /// shard is left and the detector can never starve the fleet. Job
  /// failures and ops breaks exclude a shard either way.
  HealthConfig healthMonitor;
  /// Speculative re-issue of slow requests (first answer wins through
  /// the answered-once Handle; the loser's work is discarded).
  HedgeConfig hedge;
};

/// One shard's row in the fleet report.
struct ShardReport {
  index_t id = 0;
  std::string health;         // healthy | broken | half-open | crashed
  index_t generation = 1;     // bumped by each resurrection
  std::uint64_t routed = 0;   // requests routed here (incl. failovers in)
  /// Factor jobs the shard attempted (perfbench reads it under this name).
  std::uint64_t groupJobs = 0;
  // Health state machine view.
  std::string healthState = "healthy";
  double phi = 0.0;
  double heartbeatAgeSeconds = 0.0;
  std::uint64_t heartbeats = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t probes = 0;
  ServeReport report;
};

struct FleetReport {
  std::string trace;
  index_t shards = 0;
  /// Fleet-level view: every published outcome, percentiles over the
  /// fleet total (submit to publish, failover chains included), cache
  /// stats summed over shards.
  ServeReport fleet;
  std::vector<ShardReport> perShard;

  // Router picture.
  std::uint64_t reroutes = 0;      // routes (failovers, hedges too) off
                                   // the key's all-up primary
  std::uint64_t failovers = 0;     // resubmits after a shard-side failure
  /// Always 0: the fleet routes by ring and shard health only.
  /// perfbench's serve_zipf still reads it, so a change to the benchmark
  /// removes it.
  std::uint64_t affinityHits = 0;
  std::uint64_t opsBreaks = 0;     // breakShard invocations
  std::uint64_t opsSlows = 0;      // slowShard invocations
  std::uint64_t crashes = 0;       // shard crashes (ops hook or mid-job)
  std::uint64_t resurrections = 0;
  std::uint64_t healthTrips = 0;   // hard exclusions (job failures, breaks)

  // Gray-failure defense picture.
  std::uint64_t quarantines = 0;      // entries into health quarantine
  std::uint64_t healthDetours = 0;    // routes steered off quarantined shards
  std::uint64_t hedgesIssued = 0;
  std::uint64_t hedgeWins = 0;     // hedge published first
  std::uint64_t hedgeWasted = 0;   // loser finished after the winner
  std::uint64_t hedgeDenied = 0;   // token bucket empty / no replica

  // The no-lost-answer ledger the CI job gates on.
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t dropped = 0;        // submitted - answered; must be 0
  std::uint64_t doubleAnswered = 0; // publish attempts on a done handle
  /// hits + misses == lookups over the summed shard caches.
  bool cacheLookupInvariant = true;

  [[nodiscard]] Table toTable() const;
  [[nodiscard]] std::string toJson() const;
};

class FleetEngine {
 public:
  /// Completion handle of one request (serve/handle.h): published
  /// exactly once, even when the request is failed over between shards
  /// or hedged.
  using Handle = serve::Handle;
  using HandlePtr = serve::HandlePtr;

  explicit FleetEngine(FleetConfig config);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Routes one request; the handle resolves exactly once. With no
  /// healthy shard left the request is answered kFailed immediately
  /// (degraded fleet: structured failure, never a hang).
  HandlePtr submit(const SolveRequest& request);

  /// Blocks until every submitted request is published.
  void drain();
  void stop();

  // --- ops hooks (the chaos surface of the CLI and CI job) -------------
  /// Excludes the shard from routing until unbreakShard or
  /// resurrectShard (in-flight work drains normally).
  void breakShard(index_t shard);
  /// Lifts the shard's hard health hold immediately.
  void unbreakShard(index_t shard);
  /// Crashes the shard: its factor jobs fail, the one in flight included,
  /// and it drops its cached factors.
  void crashShard(index_t shard);
  /// Brings a crashed shard back (new generation, fault hook disarmed)
  /// and lifts its hard health hold; the ring rebalances its keyspace back
  /// on the next routes.
  void resurrectShard(index_t shard);
  /// Runs `fault` at the start of each of the shard's factor jobs (null
  /// disarms it). Throwing from it fails the job; calling crashShard from
  /// it kills the shard mid-job.
  void armShardFaults(index_t shard,
                      std::function<void(const ProblemKey&)> fault);
  /// Gray fault: stretches the shard's service times by `stretch` (e.g.
  /// 5.0 = every batch takes 5x as long) WITHOUT failing anything — the
  /// slow-but-alive scenario the phi detector and hedging exist for.
  /// 1.0 restores full speed.
  void slowShard(index_t shard, double stretch);

  [[nodiscard]] index_t shardCount() const {
    return static_cast<index_t>(shards_.size());
  }
  /// Alive and not excluded by hard health evidence.
  [[nodiscard]] bool shardRoutable(index_t shard);
  [[nodiscard]] const ServeEngine& shardEngine(index_t shard) const {
    return *shards_[static_cast<std::size_t>(shard)]->engine;
  }
  [[nodiscard]] const HashRing& ring() const { return ring_; }
  [[nodiscard]] FleetReport report() const;

 private:
  struct Shard {
    index_t id = 0;
    /// Guards the crash state and the fault hook, which the ops hooks
    /// change while the shard's worker runs factor jobs.
    std::mutex mutex;
    bool crashed = false;
    index_t generation = 1;  // bumped when a crashed shard is resurrected
    std::function<void(const ProblemKey&)> fault;
    std::atomic<std::uint64_t> factorJobs{0};
    std::atomic<std::uint64_t> routed{0};
    std::unique_ptr<ServeEngine> engine;  // last: its worker uses the above
  };

  /// One armed speculative re-issue, waiting for its fire time.
  struct HedgeTask {
    double fireAt = 0.0;
    double submitAt = 0.0;
    double deadlineAt = 0.0;  // the request's fleet-wide deadline; 0 = none
    SolveRequest request;
    HandlePtr handle;
    std::vector<index_t> tried;

    /// Heap order: the earliest fire time on top.
    static bool later(const HedgeTask& a, const HedgeTask& b) {
      return a.fireAt > b.fireAt;
    }
  };

  [[nodiscard]] double now() const { return clock_.seconds(); }
  [[nodiscard]] Factorization shardFactor(index_t shard,
                                          const ProblemKey& key);
  [[nodiscard]] bool shardAlive(index_t shard) const;
  /// Sets the copy's relative deadline to what is left of the fleet-wide
  /// budget that ends at `deadlineAt` (0 = none); false when nothing is
  /// left. Checked before pickShard, whose routable() may spend a probing
  /// shard's probe slot on the pick.
  [[nodiscard]] bool budgetLeft(SolveRequest& copy, double deadlineAt) const;
  /// The health-aware ring walk over the alive shards not in `tried`,
  /// only its first tier for a hedge; -1 when none is left.
  [[nodiscard]] index_t pickShard(const ProblemKey& key,
                                  const std::vector<index_t>& tried,
                                  bool hedge = false);
  void routeToShard(index_t shard, const SolveRequest& request,
                    const HandlePtr& handle, double submitAt,
                    double deadlineAt, index_t failovers,
                    std::vector<index_t> tried, bool hedge = false);
  void publishOutcome(const HandlePtr& handle, RequestOutcome outcome,
                      std::vector<double> solution, bool hedge = false);
  void scheduleHedge(const SolveRequest& request, const HandlePtr& handle,
                     double submitAt, double deadlineAt,
                     std::vector<index_t> tried);
  void hedgeLoop();
  void fireHedge(HedgeTask task);

  FleetConfig config_;
  HashRing ring_;
  /// mutable: report()/snapshots advance time-driven state transitions.
  mutable ShardHealthMonitor healthMon_;
  LatencyRecorder recorder_;
  Timer clock_;
  std::optional<HedgePolicy> hedge_;  // engaged when hedging is on
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> nextId_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> doubleAnswered_{0};
  std::atomic<std::uint64_t> reroutes_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> opsBreaks_{0};
  std::atomic<std::uint64_t> opsSlows_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> resurrections_{0};
  std::atomic<std::uint64_t> hedgesIssued_{0};
  std::atomic<std::uint64_t> hedgeWins_{0};
  std::atomic<std::uint64_t> hedgeWasted_{0};
  std::atomic<std::uint64_t> hedgeDenied_{0};

  mutable std::mutex mutex_;
  std::condition_variable idleCv_;
  std::uint64_t outstanding_ = 0;
  bool stopping_ = false;

  // Hedge scheduler: a min-heap of armed hedges drained by one thread.
  std::mutex hedgeMutex_;
  std::condition_variable hedgeCv_;
  std::vector<HedgeTask> hedgeHeap_;  // min-heap by fireAt
  bool hedgeStop_ = false;
  std::thread hedgeThread_;
};

}  // namespace hplmxp::serve
