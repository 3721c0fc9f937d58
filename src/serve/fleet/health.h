// Shard health: the fleet's one per-shard state machine, run by the live
// FleetEngine and by fleetsim's ServeWorkload.
//
// Its soft evidence is the phi-accrual detector (Hayashibara et al., the
// Akka/Cassandra lineage), for the shard that is alive but 5x slow: it
// fails nothing, yet quietly drags the fleet p99. The detector watches
// the shard's heartbeat cadence — here, completion events and periodic
// pulses — and turns "how late is the next heartbeat" into a continuous
// suspicion level:
//
//     phi(t) = -log10( P(interval > t) )
//
// with P the normal tail fitted to a sliding window of observed
// inter-arrival intervals. phi == 1 means "this gap had a 10% chance
// under the shard's own history"; phi == 3 means 0.1%. Thresholds on phi
// drive a four-state routing machine:
//
//     healthy ──(phi >= suspectPhi)──▶ suspect ──(phi >= quarantinePhi)
//        ▲                               │                 │
//        │                               ▼                 ▼
//        │ phi recovers            back to healthy    quarantined
//        │                                                 │
//        │ probe succeeds                                  │ dwell
//        └───────────────── probing ◀──────────────────────┘
//                              │ probe fails: quarantined again
//
// A quarantined shard receives no new routes (its in-flight work drains
// normally); after the dwell it admits `probeQuota` probe requests whose
// outcomes decide between healing and another quarantine round.
//
// Hard evidence — kJobFailureStrikes failed factor jobs in a row, or an
// ops break — sends a shard from any state straight to quarantined. The
// two kinds differ when no other shard is left: a soft quarantine only
// deprioritizes, so route() falls back to the shard and the detector can
// never starve the fleet, while hard evidence excludes it. An ops break
// never dwells out: it holds until release().
//
// Every method takes the current time explicitly, so the machine is a
// pure function of its inputs: unit tests never sleep, fleetsim replays
// it on virtual time, and the same thresholds tuned in simulation land
// unchanged in the live engine. All methods are thread-safe.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/fleet/hash_ring.h"
#include "util/common.h"

namespace hplmxp::serve {

struct HealthConfig {
  /// The soft tier (the phi detector); hard evidence always counts.
  bool enabled = true;
  /// Expected heartbeat cadence; seeds the interval window so a cold
  /// shard is judged against the configured pace, not an empty history.
  double heartbeatIntervalSeconds = 0.010;
  /// Sliding window of inter-arrival samples per shard.
  index_t windowSize = 32;
  /// Interval-distribution floor: a perfectly regular heartbeat would
  /// collapse the std-dev to 0 and make phi explode on microscopic
  /// jitter. The floor keeps the detector's resolution honest.
  double minStdDevSeconds = 0.002;
  /// Heartbeats observed before phi is trusted (cold start reads 0).
  index_t minSamples = 3;
  double suspectPhi = 1.0;      // healthy -> suspect
  double quarantinePhi = 3.0;   // suspect -> quarantined
  /// Time in quarantine before the shard may probe its way back.
  double quarantineDwellSeconds = 0.100;
  /// Routes admitted while probing, before a verdict.
  index_t probeQuota = 1;

  void validate() const;
};

enum class HealthState { kHealthy, kSuspect, kQuarantined, kProbing };

[[nodiscard]] constexpr const char* toString(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kProbing: return "probing";
  }
  return "?";
}

class ShardHealthMonitor {
 public:
  /// Consecutive factor-job failures that exclude a shard.
  static constexpr index_t kJobFailureStrikes = 3;

  struct ShardSnapshot {
    index_t shard = 0;
    HealthState state = HealthState::kHealthy;
    /// Hard evidence holds the shard out of routing (see excluded()).
    bool excluded = false;
    double phi = 0.0;
    double lastHeartbeatAge = 0.0;
    double meanIntervalSeconds = 0.0;
    std::uint64_t heartbeats = 0;
    std::uint64_t quarantines = 0;  // soft entries into kQuarantined
    std::uint64_t probes = 0;       // probe routes admitted
  };

  ShardHealthMonitor(HealthConfig config, index_t shards);

  /// Healthy-liveness evidence: a completion or a periodic pulse from the
  /// shard at `now`. Records the inter-arrival interval. Does NOT heal a
  /// quarantined shard — that must pass through probing.
  void heartbeat(index_t shard, double now);

  /// Outcome of a request routed to the shard. While probing, a success
  /// heals the shard and a failure quarantines it again. Otherwise a
  /// success is a heartbeat and a failure is ignored: a failing-fast
  /// shard has a *healthy* heartbeat cadence.
  void onOutcome(index_t shard, bool success, double now);

  /// Hard evidence: a factor job on the shard finished.
  /// kJobFailureStrikes failures in a row quarantine and exclude the
  /// shard; a success restarts the count.
  void onJobOutcome(index_t shard, bool success, double now);
  /// Hard evidence: an ops break, held past the dwell until release().
  void breakShard(index_t shard, double now);
  /// Lifts hard evidence (ops unbreak, resurrection); a shard it held
  /// heals as a successful probe does.
  void release(index_t shard, double now);

  /// Routing gate. Healthy and suspect shards route freely (suspect is a
  /// warning level, not a drain); quarantined shards route nothing;
  /// probing shards admit up to `probeQuota` routes. Advances the state
  /// machine against `now`.
  [[nodiscard]] bool routable(index_t shard, double now);
  /// True while hard evidence holds the shard: no fallback reaches it.
  [[nodiscard]] bool excluded(index_t shard) const;

  /// The one routing rule of the live fleet and fleetsim, a two-tier
  /// ring walk: routeAdmitted(), else the first alive shard clockwise of
  /// `key` that is not excluded(). -1 when none is left. Counts a detour
  /// when the key's all-up primary is quarantined.
  [[nodiscard]] index_t route(const HashRing& ring, const ProblemKey& key,
                              const HashRing::HealthFn& alive, double now);
  /// The first tier of route(), and a hedge's whole walk: the first shard
  /// clockwise of `key` that `alive` accepts and routable() admits; -1
  /// when none is. `alive` runs first, so a shard it rejects never spends
  /// a probe slot. Counts no detour.
  [[nodiscard]] index_t routeAdmitted(const HashRing& ring,
                                      const ProblemKey& key,
                                      const HashRing::HealthFn& alive,
                                      double now);

  /// Current suspicion level against the shard's own interval history.
  [[nodiscard]] double phi(index_t shard, double now) const;

  /// Current state, advancing time-driven transitions (suspect onset,
  /// quarantine, dwell expiry) against `now`.
  [[nodiscard]] HealthState state(index_t shard, double now);

  /// Totals across shards: soft and hard entries into quarantine, and
  /// detours counted by route().
  [[nodiscard]] std::uint64_t quarantines() const {
    return total(&Entry::quarantines);
  }
  [[nodiscard]] std::uint64_t trips() const { return total(&Entry::trips); }
  [[nodiscard]] std::uint64_t detours() const { return total(&Entry::detours); }

  [[nodiscard]] ShardSnapshot shardSnapshot(index_t shard, double now);
  [[nodiscard]] std::vector<ShardSnapshot> snapshot(double now);

  [[nodiscard]] const HealthConfig& config() const { return config_; }

 private:
  /// Hard evidence holding a shard out of routing.
  enum class Hold { kNone, kFailures, kOps };

  struct Entry {
    HealthState state = HealthState::kHealthy;
    Hold hold = Hold::kNone;
    index_t jobFailures = 0;      // consecutive failed factor jobs
    double lastArrival = 0.0;
    bool seeded = false;          // first heartbeat only sets lastArrival
    std::vector<double> window;   // inter-arrival ring buffer
    index_t windowNext = 0;
    double quarantinedAt = 0.0;
    index_t probesUsed = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t trips = 0;
    std::uint64_t probes = 0;
    std::uint64_t detours = 0;  // routes off this primary while quarantined
  };

  /// Counts a detour when `chosen` is not the key's all-up primary and
  /// that primary is quarantined.
  void noteRoute(const HashRing& ring, const ProblemKey& key, index_t chosen,
                 double now);
  [[nodiscard]] double phiLocked(const Entry& e, double now) const;
  void meanStd(const Entry& e, double* mean, double* std) const;
  void recordHeartbeat(Entry& e, double now);
  void advance(Entry& e, double now);
  void enterQuarantine(Entry& e, double now);
  void trip(Entry& e, Hold hold, double now);
  void heal(Entry& e, double now);
  [[nodiscard]] std::uint64_t total(std::uint64_t Entry::*counter) const;
  [[nodiscard]] const Entry& entry(index_t shard) const;
  Entry& entry(index_t shard) {
    return const_cast<Entry&>(std::as_const(*this).entry(shard));
  }

  HealthConfig config_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace hplmxp::serve
