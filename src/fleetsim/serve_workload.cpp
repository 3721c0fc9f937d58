#include "fleetsim/serve_workload.h"

#include <algorithm>

#include "core/single_solver.h"

namespace hplmxp::fleetsim {

void ServeWorkloadConfig::validate(const Topology& topology) const {
  HPLMXP_REQUIRE(!trace.requests.empty(), "serve workload needs requests");
  HPLMXP_REQUIRE(shards >= 1, "serve workload needs >= 1 shard");
  HPLMXP_REQUIRE(shards <= topology.nodes(),
                 "more shards than topology nodes");
  HPLMXP_REQUIRE(virtualNodes >= 1, "need >= 1 virtual ring node");
  HPLMXP_REQUIRE(queueDepth >= 1, "queue depth must be >= 1");
  HPLMXP_REQUIRE(maxBatch >= 1, "max batch must be >= 1");
  HPLMXP_REQUIRE(cacheMb > 0.0, "cache budget must be positive");
  HPLMXP_REQUIRE(failoverLimit >= 0, "negative failover limit");
  HPLMXP_REQUIRE(hostGflops > 0.0, "host rate must be positive");
  HPLMXP_REQUIRE(irIterations >= 1, "need >= 1 IR iteration");
}

ServeWorkload::ServeWorkload(ServeWorkloadConfig config,
                             const Topology& topology)
    : config_(std::move(config)),
      topology_(&topology),
      ring_(config_.shards, config_.virtualNodes),
      healthMon_(config_.health, config_.shards),
      hedge_({config_.hedgeEnabled, config_.hedgeDelayFactor,
              config_.hedgeMinDelayMs * 1e-3, config_.hedgeBudgetPerSecond,
              config_.hedgeBudgetBurst},
             /*now=*/0.0) {
  config_.validate(topology);
  const auto cacheBudget = static_cast<std::size_t>(
      config_.cacheMb * 1024.0 * 1024.0 / static_cast<double>(config_.shards));
  const index_t stride = topology.nodes() / config_.shards;
  for (index_t s = 0; s < config_.shards; ++s) {
    shards_.emplace_back(config_.queueDepth, cacheBudget).node =
        s * std::max<index_t>(stride, 1);
  }
}

index_t ServeWorkload::shardNode(index_t shard) const {
  HPLMXP_REQUIRE(shard >= 0 && shard < config_.shards, "shard out of range");
  return shards_[static_cast<std::size_t>(shard)].node;
}

const serve::TraceRequest& ServeWorkload::traceRequest(index_t i) const {
  return config_.trace.requests[static_cast<std::size_t>(i)];
}

serve::ProblemKey ServeWorkload::keyOf(const serve::TraceRequest& r) const {
  serve::ProblemKey key;
  key.n = r.n;
  key.b = r.b;
  key.seed = r.seed;
  key.pr = r.pr;
  key.pc = r.pc;
  key.precision = r.precision;
  return key;
}

index_t ServeWorkload::keyIndexOf(const serve::TraceRequest& r) {
  const serve::ProblemKey key = keyOf(r);
  const auto [it, inserted] =
      keyIndex_.try_emplace(key, static_cast<index_t>(keys_.size()));
  if (inserted) {
    keys_.push_back(key);
  }
  return it->second;
}

index_t ServeWorkload::routeShard(index_t keyIndex, double now) {
  const index_t chosen = healthMon_.route(
      ring_, keys_[static_cast<std::size_t>(keyIndex)],
      [this](index_t s) {
        return !shards_[static_cast<std::size_t>(s)].crashed;
      },
      now);
  stats_.healthDetours = healthMon_.detours();
  return chosen;
}

void ServeWorkload::reportSolved(index_t shardIndex, double now) {
  // A solve heals a probing shard, but deliberately does NOT feed the phi
  // stream: a busy-but-slow shard completes constantly, and those
  // arrivals would mask the stretched pulse cadence that IS the
  // gray-failure signal. Only the periodic pulse carries it.
  if (config_.health.enabled &&
      healthMon_.state(shardIndex, now) == serve::HealthState::kProbing) {
    healthMon_.onOutcome(shardIndex, true, now);
  }
}

void ServeWorkload::scheduleHeartbeat(Simulator& sim, index_t shardIndex) {
  Shard& shard = shards_[static_cast<std::size_t>(shardIndex)];
  // A slowed shard pulses proportionally later — the gray-failure signal
  // the phi detector exists to notice.
  const double interval =
      config_.health.heartbeatIntervalSeconds / shard.slowFactor;
  sim.schedule(sim.now() + interval, shard.node, EventClass::kHeartbeat, me_,
               shardIndex, shard.generation);
}

void ServeWorkload::fireHedge(Simulator& sim, index_t traceIndex,
                              double now) {
  const auto it = unanswered_.find(traceIndex);
  if (it == unanswered_.end()) {
    return;  // answered in time: the hedge is moot
  }
  if (!hedge_.admit(now)) {
    ++stats_.hedgeDenied;
    return;
  }
  const index_t keyIdx = keyIndexOf(traceRequest(traceIndex));
  const index_t primary = it->second.primaryShard;
  // The live fleet's hedge walk: the first shard clockwise of the key
  // that is alive, not the primary, and admitted by the monitor. No
  // fallback: the primary copy is still in flight.
  const index_t target = healthMon_.routeAdmitted(
      ring_, keys_[static_cast<std::size_t>(keyIdx)],
      [&](index_t s) {
        return s != primary && !shards_[static_cast<std::size_t>(s)].crashed;
      },
      now);
  if (target < 0) {
    ++stats_.hedgeDenied;
    return;
  }
  ++stats_.hedgesIssued;
  const double hop = topology_->transferSeconds(
      0, shardNode(target), config_.requestBytes, config_.shards);
  // x = 1.0 marks the arriving copy as the speculative one.
  sim.schedule(now + hop, shardNode(target), EventClass::kRequestArrival,
               me_, traceIndex, target, /*x=*/1.0);
}

void ServeWorkload::start(Simulator& sim) {
  me_ = sim.workloadIndex(this);
  // All arrivals enter at the router (node 0) on the trace clock; routing
  // happens when the event fires, so it sees then-current shard health.
  for (std::size_t i = 0; i < config_.trace.requests.size(); ++i) {
    const serve::TraceRequest& r = config_.trace.requests[i];
    (void)keyIndexOf(r);  // intern keys in trace order (deterministic)
    sim.schedule(r.atMs * 1e-3, 0, EventClass::kRequestArrival, me_,
                 static_cast<std::int64_t>(i), /*shard=*/-1);
  }
  for (const ChaosAction& action : config_.chaos) {
    HPLMXP_REQUIRE(action.shard >= 0 && action.shard < config_.shards,
                   "chaos action names a bad shard");
    const index_t node = shardNode(action.shard);
    switch (action.kind) {
      case ChaosAction::Kind::kCrash:
        sim.schedule(action.atMs * 1e-3, node, EventClass::kCrash, me_,
                     action.shard);
        break;
      case ChaosAction::Kind::kResurrect:
        sim.schedule(action.atMs * 1e-3, node, EventClass::kResurrect, me_,
                     action.shard);
        break;
      case ChaosAction::Kind::kSlow:
        HPLMXP_REQUIRE(action.factor > 0.0 && action.factor <= 1.0,
                       "slow factor must be in (0, 1]");
        sim.schedule(action.atMs * 1e-3, node, EventClass::kSlowdown, me_,
                     action.shard, 0, action.factor);
        break;
    }
  }
  if (config_.health.enabled) {
    for (index_t s = 0; s < config_.shards; ++s) {
      scheduleHeartbeat(sim, s);
    }
  }
}

bool ServeWorkload::done() const {
  const std::uint64_t answered = stats_.completed + stats_.rejectedQueueFull +
                                 stats_.rejectedDeadline +
                                 stats_.rejectedCircuitOpen + stats_.failed;
  return answered == config_.trace.requests.size();
}

void ServeWorkload::reject(const PendingRequest& req, index_t shardIndex,
                           serve::RequestStatus status, double now) {
  healthMon_.onOutcome(shardIndex, false, now);
  if (req.hedgeCopy || unanswered_.erase(req.traceIndex) == 0) {
    // A losing copy's rejection is not the request's fate.
    ++stats_.hedgeWasted;
    return;
  }
  switch (status) {
    case serve::RequestStatus::kRejectedQueueFull:
      ++stats_.rejectedQueueFull;
      break;
    case serve::RequestStatus::kRejectedDeadline:
      ++stats_.rejectedDeadline;
      break;
    default:
      ++stats_.failed;
      break;
  }
}

void ServeWorkload::startNextBatch(Simulator& sim, index_t shardIndex) {
  Shard& shard = shards_[static_cast<std::size_t>(shardIndex)];
  const double now = sim.now();

  InFlightBatch batch;
  batch.shard = shardIndex;
  batch.generation = shard.generation;
  batch.dispatchSeconds = now;
  while (batch.requests.empty()) {
    auto picked = shard.queue.popOldest(config_.maxBatch);
    if (!picked) {
      return;  // nothing left to solve: the lane stays idle
    }
    batch.keyIndex = picked->key;
    for (const PendingRequest& req : picked->items) {
      if (req.deadlineSeconds > 0.0 && now > req.deadlineSeconds) {
        reject(req, shardIndex, serve::RequestStatus::kRejectedDeadline, now);
        continue;
      }
      batch.requests.push_back(req);
    }
  }

  // One cache lookup per dispatched batch — the single-flight contract's
  // accounting shape (hits + misses == lookups; a coalesced batch costs
  // at most one factorization).
  const index_t keyIndex = batch.keyIndex;
  const serve::TraceRequest& proto =
      traceRequest(batch.requests.front().traceIndex);
  ++stats_.cacheLookups;
  double factorSeconds = 0.0;
  const double mult =
      topology_->nodeMultiplier(shard.node) * shard.slowFactor;
  const double rate = config_.hostGflops * 1e9 * mult;
  const serve::ProblemKey& key = keys_[static_cast<std::size_t>(keyIndex)];
  if (shard.cache.lookup(key)) {
    ++stats_.cacheHits;
  } else {
    ++stats_.cacheMisses;
    ++stats_.factorCount;
    const double n = static_cast<double>(proto.n);
    factorSeconds = (2.0 / 3.0) * n * n * n / rate;
    const serve::CachePolicy::Admission admission =
        shard.cache.admit(key, Factorization::residentBytes(proto.n));
    stats_.evictions += admission.evicted.size();
    stats_.declined += admission.admitted ? 0 : 1;
  }
  const double n = static_cast<double>(proto.n);
  const double cols = static_cast<double>(batch.requests.size());
  const double solveSeconds =
      static_cast<double>(config_.irIterations) * 2.0 * n * n * cols / rate +
      config_.solveOverheadUs * 1e-6;
  batch.solveCost = factorSeconds + solveSeconds;
  // Duplicates included: the hedge amplification gate reads this.
  stats_.solveWorkSeconds += batch.solveCost;

  // The lane starts the batch now; queue wait = submission to lane start.
  shard.busy = true;
  shard.busyUntil = now + batch.solveCost;

  ++stats_.batches;
  stats_.batchedColumns += batch.requests.size();
  stats_.maxBatchSize = std::max(
      stats_.maxBatchSize, static_cast<index_t>(batch.requests.size()));

  batches_.push_back(std::move(batch));
  sim.schedule(shard.busyUntil, shard.node, EventClass::kSolveDone, me_,
               static_cast<std::int64_t>(batches_.size() - 1));
}

void ServeWorkload::crashShard(Simulator& sim, index_t shardIndex) {
  Shard& shard = shards_[static_cast<std::size_t>(shardIndex)];
  if (shard.crashed) {
    return;
  }
  shard.crashed = true;
  ++shard.generation;  // pending pulses, pick-ups and solve-dones are stale
  // A crash loses the cached factors and their lookup counts (a real
  // node death does) and frees the lane: a batch in flight fails over
  // when its solve-done fires.
  shard.cache.clear();
  shard.busy = false;
  shard.busyUntil = 0.0;
  // Queued requests fail over along the ring, in key order.
  for (const auto& [keyIndex, req] : shard.queue.drain()) {
    failOver(sim, req, shardIndex, keyIndex);
  }
}

void ServeWorkload::failOver(Simulator& sim, PendingRequest req,
                             index_t fromShard, index_t keyIndex) {
  const double now = sim.now();
  const bool retry = !req.hedgeCopy && unanswered_.contains(req.traceIndex) &&
                     req.failovers < config_.failoverLimit;
  const index_t next = retry ? routeShard(keyIndex, now) : -1;
  if (next < 0) {
    reject(req, fromShard, serve::RequestStatus::kFailed, now);
    return;
  }
  // The copy failed on its shard, as every request on a crashed live
  // shard does: a failed probe if the shard was probing.
  healthMon_.onOutcome(fromShard, false, now);
  ++req.failovers;
  ++stats_.failovers;
  unanswered_[req.traceIndex] = req;
  const double hop =
      topology_->transferSeconds(shardNode(fromShard), shardNode(next),
                                 config_.requestBytes, config_.shards);
  sim.schedule(now + hop, shardNode(next), EventClass::kRequestArrival, me_,
               req.traceIndex, next);
}

void ServeWorkload::handle(Simulator& sim, const Event& event) {
  const double now = sim.now();
  switch (event.cls) {
    case EventClass::kRequestArrival: {
      const index_t traceIdx = static_cast<index_t>(event.a);
      const index_t toShard = static_cast<index_t>(event.b);
      const serve::TraceRequest& r = traceRequest(traceIdx);
      const index_t keyIdx = keyIndexOf(r);
      if (toShard < 0) {
        // Router step: pick the shard, pay the wire.
        ++stats_.submitted;
        PendingRequest req;
        req.traceIndex = traceIdx;
        req.arrivalSeconds = now;
        const double deadlineMs =
            r.deadlineMs > 0.0 ? r.deadlineMs : config_.defaultDeadlineMs;
        req.deadlineSeconds =
            deadlineMs > 0.0 ? now + deadlineMs * 1e-3 : 0.0;
        const index_t shard = routeShard(keyIdx, now);
        if (shard < 0) {
          ++stats_.failed;  // nobody healthy to route to
          break;
        }
        req.primaryShard = shard;
        unanswered_[traceIdx] = req;
        const double hop = topology_->transferSeconds(
            0, shardNode(shard), config_.requestBytes, config_.shards);
        sim.schedule(now + hop, shardNode(shard),
                     EventClass::kRequestArrival, me_, traceIdx, shard);
        if (config_.hedgeEnabled && config_.shards > 1) {
          sim.schedule(now + hedge_.delaySeconds(), 0,
                       EventClass::kHedgeFire, me_, traceIdx);
        }
        break;
      }
      // Shard-side admission.
      Shard& shard = shards_[static_cast<std::size_t>(toShard)];
      const auto it = unanswered_.find(traceIdx);
      if (it == unanswered_.end()) {
        // Another copy already answered. The live shard would still run
        // this one: wasted work, whose outcome may end a probe.
        ++stats_.hedgeWasted;
        if (shard.crashed) {
          healthMon_.onOutcome(toShard, false, now);
        } else {
          reportSolved(toShard, now);
        }
        break;
      }
      PendingRequest req = it->second;
      req.hedgeCopy = event.x > 0.5;
      if (shard.crashed) {
        failOver(sim, req, toShard, keyIdx);  // crashed after routing
        break;
      }
      ++shard.routed;
      if (req.deadlineSeconds > 0.0 && now > req.deadlineSeconds) {
        reject(req, toShard, serve::RequestStatus::kRejectedDeadline, now);
        break;
      }
      if (!shard.queue.push(keyIdx, req)) {
        reject(req, toShard, serve::RequestStatus::kRejectedQueueFull, now);
        break;
      }
      stats_.peakQueueDepth =
          std::max(stats_.peakQueueDepth, shard.queue.depth());
      if (!shard.busy) {
        // An idle lane picks up at once. The pick-up fires after every
        // arrival already scheduled for this instant and node, so a
        // simultaneous burst still coalesces.
        shard.busy = true;
        sim.schedule(now, shard.node, EventClass::kBatchWindow, me_, toShard,
                     shard.generation);
      }
      break;
    }
    case EventClass::kBatchWindow: {
      const index_t shardIdx = static_cast<index_t>(event.a);
      Shard& shard = shards_[static_cast<std::size_t>(shardIdx)];
      if (event.b != shard.generation) {
        break;  // armed before a crash
      }
      shard.busy = false;
      startNextBatch(sim, shardIdx);
      break;
    }
    case EventClass::kSolveDone: {
      InFlightBatch& batch =
          batches_[static_cast<std::size_t>(event.a)];
      const index_t shardIdx = batch.shard;
      Shard& shard = shards_[static_cast<std::size_t>(shardIdx)];
      if (batch.generation != shard.generation) {
        // The shard crashed mid-solve, and may have resurrected since: the
        // batch's answers died with it, surviving requests fail over, and
        // the lane belongs to whatever the shard runs now.
        for (const PendingRequest& req : batch.requests) {
          failOver(sim, req, shardIdx, batch.keyIndex);
        }
        batch.requests.clear();
        break;
      }
      reportSolved(shardIdx, now);
      for (const PendingRequest& req : batch.requests) {
        if (unanswered_.erase(req.traceIndex) == 0) {
          ++stats_.hedgeWasted;  // the other copy answered first
          continue;
        }
        if (req.hedgeCopy) {
          ++stats_.hedgeWins;
        }
        ++stats_.completed;
        ++shard.completed;
        stats_.queueWaitSeconds.push_back(batch.dispatchSeconds -
                                          req.arrivalSeconds);
        stats_.solveSeconds.push_back(batch.solveCost);
        stats_.totalSeconds.push_back(now - req.arrivalSeconds);
        if (config_.hedgeEnabled) {
          hedge_.observe(now - req.arrivalSeconds);
        }
      }
      batch.requests.clear();
      // The freed lane takes the next batch at once (this may grow
      // batches_, so `batch` is not used past this point).
      shard.busy = false;
      startNextBatch(sim, shardIdx);
      break;
    }
    case EventClass::kCrash:
      crashShard(sim, static_cast<index_t>(event.a));
      break;
    case EventClass::kResurrect: {
      Shard& shard = shards_[static_cast<std::size_t>(event.a)];
      if (!shard.crashed) {
        break;  // a live shard has nothing to restore
      }
      shard.crashed = false;  // cold cache, idle lane, healthy again
      shard.busyUntil = now;
      ++shard.generation;
      if (config_.health.enabled) {
        scheduleHeartbeat(sim, static_cast<index_t>(event.a));
      }
      break;
    }
    case EventClass::kSlowdown: {
      Shard& shard = shards_[static_cast<std::size_t>(event.a)];
      shard.slowFactor = std::min(shard.slowFactor, event.x);
      break;
    }
    case EventClass::kHeartbeat: {
      const index_t shardIdx = static_cast<index_t>(event.a);
      Shard& shard = shards_[static_cast<std::size_t>(shardIdx)];
      if (shard.crashed || event.b != shard.generation) {
        break;  // stale pulse from before a crash/resurrect
      }
      healthMon_.heartbeat(shardIdx, now);
      ++stats_.heartbeats;
      if (!done()) {
        scheduleHeartbeat(sim, shardIdx);
      }
      break;
    }
    case EventClass::kHedgeFire:
      fireHedge(sim, static_cast<index_t>(event.a), now);
      break;
    default:
      HPLMXP_REQUIRE(false, "serve workload received a foreign event");
  }
  if (config_.health.enabled) {
    stats_.quarantines = healthMon_.quarantines();
  }
}

ServeWorkload::ShardView ServeWorkload::shardView(index_t shard) const {
  HPLMXP_REQUIRE(shard >= 0 && shard < config_.shards, "shard out of range");
  const Shard& s = shards_[static_cast<std::size_t>(shard)];
  ShardView view;
  view.shard = shard;
  view.node = s.node;
  view.crashed = s.crashed;
  view.slowFactor = s.slowFactor;
  view.queuedRequests = s.queue.depth();
  view.cachedKeys = static_cast<index_t>(s.cache.size());
  view.cachedMb =
      static_cast<double>(s.cache.bytesInUse()) / (1024.0 * 1024.0);
  view.routed = s.routed;
  view.completed = s.completed;
  view.busyUntil = s.busyUntil;
  return view;
}

ServeWorkload::HealthView ServeWorkload::healthView(index_t shard,
                                                    double now) {
  HPLMXP_REQUIRE(shard >= 0 && shard < config_.shards, "shard out of range");
  const serve::ShardHealthMonitor::ShardSnapshot snap =
      healthMon_.shardSnapshot(shard, now);
  HealthView view;
  view.shard = shard;
  view.node = shards_[static_cast<std::size_t>(shard)].node;
  view.state = serve::toString(snap.state);
  view.phi = snap.phi;
  view.lastHeartbeatAge = snap.lastHeartbeatAge;
  view.heartbeats = snap.heartbeats;
  view.quarantines = snap.quarantines;
  return view;
}

}  // namespace hplmxp::fleetsim
