#include "fleetsim/serve_workload.h"

#include <algorithm>

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
  HPLMXP_REQUIRE(heartbeatIntervalMs > 0.0,
                 "heartbeat interval must be positive");
  if (hedgeEnabled) {
    HPLMXP_REQUIRE(hedgeDelayFactor >= 0.0 && hedgeMinDelayMs >= 0.0,
                   "hedge delay knobs must be non-negative");
    HPLMXP_REQUIRE(hedgeBudgetPerSecond > 0.0 && hedgeBudgetBurst >= 1.0,
                   "hedge budget must admit at least one hedge");
  }
}

namespace {

/// The phi detector is seeded from the configured pulse cadence, so the
/// millisecond CLI knob must land in the monitor's config before it is
/// constructed.
serve::HealthConfig syncedHealth(const ServeWorkloadConfig& cfg) {
  serve::HealthConfig h = cfg.health;
  h.heartbeatIntervalSeconds = cfg.heartbeatIntervalMs * 1e-3;
  return h;
}

}  // namespace

ServeWorkload::ServeWorkload(ServeWorkloadConfig config,
                             const Topology& topology)
    : config_(std::move(config)),
      topology_(&topology),
      ring_(config_.shards, config_.virtualNodes),
      healthMon_(syncedHealth(config_), config_.shards) {
  config_.validate(topology);
  cacheBudgetBytes_ =
      config_.cacheMb * 1024.0 * 1024.0 / static_cast<double>(config_.shards);
  hedgeTokens_ = config_.hedgeBudgetBurst;
  shards_.resize(static_cast<std::size_t>(config_.shards));
  const index_t stride = topology.nodes() / config_.shards;
  for (index_t s = 0; s < config_.shards; ++s) {
    shards_[static_cast<std::size_t>(s)].node = s * std::max<index_t>(
                                                        stride, 1);
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

bool ServeWorkload::markAnswered(index_t traceIndex) {
  RequestState& st = reqState_[traceIndex];
  if (st.answered) {
    return false;
  }
  st.answered = true;
  return true;
}

void ServeWorkload::failCopy(const PendingRequest& req) {
  if (req.hedgeCopy || !markAnswered(req.traceIndex)) {
    ++stats_.hedgeWasted;  // a losing copy's work, discarded
    return;
  }
  ++stats_.failed;
  pendingMeta_.erase(req.traceIndex);
}

void ServeWorkload::scheduleHeartbeat(Simulator& sim, index_t shardIndex) {
  Shard& shard = shards_[static_cast<std::size_t>(shardIndex)];
  // A slowed shard pulses proportionally later — the gray-failure signal
  // the phi detector exists to notice.
  const double interval =
      config_.heartbeatIntervalMs * 1e-3 / shard.slowFactor;
  sim.schedule(sim.now() + interval, shard.node, EventClass::kHeartbeat, me_,
               shardIndex, shard.generation);
}

double ServeWorkload::hedgeDelaySeconds() const {
  const double minDelay = config_.hedgeMinDelayMs * 1e-3;
  const std::vector<double>& totals = stats_.totalSeconds;
  if (totals.empty()) {
    return minDelay;
  }
  // p95 of the most recent completions: the hedge must track the current
  // service level, not the whole run's history.
  const std::size_t window = std::min<std::size_t>(totals.size(), 64);
  std::vector<double> recent(totals.end() -
                                 static_cast<std::ptrdiff_t>(window),
                             totals.end());
  std::sort(recent.begin(), recent.end());
  const double p95 = recent[static_cast<std::size_t>(
      0.95 * static_cast<double>(recent.size() - 1))];
  return std::max(minDelay, config_.hedgeDelayFactor * p95);
}

void ServeWorkload::fireHedge(Simulator& sim, index_t traceIndex,
                              double now) {
  const auto stIt = reqState_.find(traceIndex);
  if (stIt == reqState_.end() || stIt->second.answered) {
    return;  // answered in time: the hedge is moot
  }
  const auto metaIt = pendingMeta_.find(traceIndex);
  if (metaIt == pendingMeta_.end()) {
    return;
  }
  // Token-bucket refill on virtual time: a fleet-wide slowdown (every
  // request late) drains the bucket; an isolated slow shard stays within
  // budget.
  hedgeTokens_ = std::min(
      config_.hedgeBudgetBurst,
      hedgeTokens_ + (now - hedgeRefillAt_) * config_.hedgeBudgetPerSecond);
  hedgeRefillAt_ = now;
  if (hedgeTokens_ < 1.0) {
    ++stats_.hedgeDenied;
    return;
  }
  const serve::TraceRequest& r = traceRequest(traceIndex);
  const index_t keyIdx = keyIndexOf(r);
  const index_t primary = stIt->second.primaryShard;
  // Replica target: the first routable shard clockwise past the primary
  // (the hedge bets on a DIFFERENT shard). The filter rejects the primary
  // and crashed shards before routable() can spend their probe slots.
  const index_t target = ring_.route(
      keys_[static_cast<std::size_t>(keyIdx)], [&](index_t s) {
        return s != primary &&
               !shards_[static_cast<std::size_t>(s)].crashed &&
               healthMon_.routable(s, now);
      });
  if (target < 0) {
    ++stats_.hedgeDenied;
    return;
  }
  hedgeTokens_ -= 1.0;
  ++stats_.hedgesIssued;
  const double hop = topology_->transferSeconds(
      0, shardNode(target), config_.requestBytes, config_.shards);
  // x = 1.0 marks the arriving copy as the speculative one.
  sim.schedule(now + hop, shardNode(target), EventClass::kRequestArrival,
               me_, traceIndex, target, /*x=*/1.0);
}

double ServeWorkload::factorBytes(const serve::TraceRequest& r) const {
  // FP32 + low-precision factor pair, the serve cache's resident shape.
  const double n = static_cast<double>(r.n);
  return 6.0 * n * n;
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

void ServeWorkload::reject(const PendingRequest& req,
                           serve::RequestStatus status) {
  if (req.hedgeCopy || !markAnswered(req.traceIndex)) {
    // A losing copy's rejection is not the request's fate.
    ++stats_.hedgeWasted;
    return;
  }
  pendingMeta_.erase(req.traceIndex);
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

void ServeWorkload::evictForBudget(Shard& shard) {
  while (shard.cacheBytes > cacheBudgetBytes_ && !shard.cache.empty()) {
    auto victim = shard.cache.begin();
    for (auto it = shard.cache.begin(); it != shard.cache.end(); ++it) {
      if (it->second.lastTouch < victim->second.lastTouch) {
        victim = it;
      }
    }
    shard.cacheBytes -= victim->second.bytes;
    shard.cache.erase(victim);
    ++stats_.evictions;
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
    // The bucket whose head queued first, as the live engine's oldestKey
    // picks the key of its oldest request.
    auto oldest = shard.buckets.end();
    for (auto it = shard.buckets.begin(); it != shard.buckets.end(); ++it) {
      if (oldest == shard.buckets.end() ||
          it->second.front().queueSeq < oldest->second.front().queueSeq) {
        oldest = it;
      }
    }
    if (oldest == shard.buckets.end()) {
      return;  // nothing left to solve: the lane stays idle
    }
    batch.keyIndex = oldest->first;
    std::vector<PendingRequest>& bucket = oldest->second;
    const std::size_t take =
        std::min<std::size_t>(bucket.size(),
                              static_cast<std::size_t>(config_.maxBatch));
    for (std::size_t i = 0; i < take; ++i) {
      PendingRequest& req = bucket[i];
      --shard.queuedRequests;
      if (req.deadlineSeconds > 0.0 && now > req.deadlineSeconds) {
        reject(req, serve::RequestStatus::kRejectedDeadline);
        continue;
      }
      batch.requests.push_back(req);
    }
    bucket.erase(bucket.begin(),
                 bucket.begin() + static_cast<std::ptrdiff_t>(take));
    if (bucket.empty()) {
      shard.buckets.erase(oldest);
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
  auto cacheIt = shard.cache.find(keyIndex);
  const double mult =
      topology_->nodeMultiplier(shard.node) * shard.slowFactor;
  const double rate = config_.hostGflops * 1e9 * mult;
  if (cacheIt != shard.cache.end()) {
    ++stats_.cacheHits;
    cacheIt->second.lastTouch = ++shard.lruClock;
  } else {
    ++stats_.cacheMisses;
    ++stats_.factorCount;
    const double n = static_cast<double>(proto.n);
    factorSeconds = (2.0 / 3.0) * n * n * n / rate;
    CacheEntry entry;
    entry.bytes = factorBytes(proto);
    entry.lastTouch = ++shard.lruClock;
    shard.cacheBytes += entry.bytes;
    shard.cache.emplace(keyIndex, entry);
    evictForBudget(shard);
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
  // A crash loses the cached factors (a real node death does) and frees
  // the lane: a batch in flight fails over when its solve-done fires.
  shard.cache.clear();
  shard.cacheBytes = 0.0;
  shard.busy = false;
  shard.busyUntil = 0.0;
  // Queued requests fail over along the ring.
  for (const auto& [keyIndex, bucket] : shard.buckets) {
    for (const PendingRequest& req : bucket) {
      failOver(sim, req, shardIndex, keyIndex);
    }
  }
  shard.buckets.clear();
  shard.queuedRequests = 0;
}

void ServeWorkload::failOver(Simulator& sim, PendingRequest req,
                             index_t fromShard, index_t keyIndex) {
  const auto stIt = reqState_.find(req.traceIndex);
  if (req.hedgeCopy || (stIt != reqState_.end() && stIt->second.answered)) {
    ++stats_.hedgeWasted;
    return;
  }
  const double now = sim.now();
  const index_t next = req.failovers < config_.failoverLimit
                           ? routeShard(keyIndex, now)
                           : -1;
  if (next < 0) {
    failCopy(req);
    return;
  }
  ++req.failovers;
  ++stats_.failovers;
  pendingMeta_[req.traceIndex] = req;
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
          (void)markAnswered(traceIdx);
          ++stats_.failed;  // nobody healthy to route to
          break;
        }
        pendingMeta_[traceIdx] = req;
        reqState_[traceIdx].primaryShard = shard;
        const double hop = topology_->transferSeconds(
            0, shardNode(shard), config_.requestBytes, config_.shards);
        sim.schedule(now + hop, shardNode(shard),
                     EventClass::kRequestArrival, me_, traceIdx, shard);
        if (config_.hedgeEnabled && config_.shards > 1) {
          sim.schedule(now + hedgeDelaySeconds(), 0, EventClass::kHedgeFire,
                       me_, traceIdx);
        }
        break;
      }
      // Shard-side admission.
      const auto metaIt = pendingMeta_.find(traceIdx);
      if (metaIt == pendingMeta_.end()) {
        break;  // another copy already answered this request
      }
      PendingRequest req = metaIt->second;
      req.hedgeCopy = event.x > 0.5;
      Shard& shard = shards_[static_cast<std::size_t>(toShard)];
      if (shard.crashed) {
        failOver(sim, req, toShard, keyIdx);  // crashed after routing
        break;
      }
      ++shard.routed;
      if (req.deadlineSeconds > 0.0 && now > req.deadlineSeconds) {
        reject(req, serve::RequestStatus::kRejectedDeadline);
        break;
      }
      if (shard.queuedRequests >= config_.queueDepth) {
        reject(req, serve::RequestStatus::kRejectedQueueFull);
        break;
      }
      req.queueSeq = nextQueueSeq_++;
      shard.buckets[keyIdx].push_back(req);
      ++shard.queuedRequests;
      stats_.peakQueueDepth =
          std::max(stats_.peakQueueDepth, shard.queuedRequests);
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
      // Completions heal a probing shard, but deliberately do NOT feed the
      // phi stream: a busy-but-slow shard completes constantly, and those
      // arrivals would mask the stretched pulse cadence that IS the
      // gray-failure signal. Only the periodic pulse carries it.
      if (config_.health.enabled &&
          healthMon_.state(shardIdx, now) == serve::HealthState::kProbing) {
        healthMon_.onOutcome(shardIdx, true, now);
      }
      for (const PendingRequest& req : batch.requests) {
        if (!markAnswered(req.traceIndex)) {
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
        pendingMeta_.erase(req.traceIndex);
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
  view.queuedRequests = s.queuedRequests;
  view.cachedKeys = static_cast<index_t>(s.cache.size());
  view.cachedMb = s.cacheBytes / (1024.0 * 1024.0);
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
