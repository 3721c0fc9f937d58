#include "serve/fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "gen/matgen.h"
#include "serve/json.h"
#include "util/logging.h"

namespace hplmxp::serve {

namespace {

bool contains(const std::vector<index_t>& v, index_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

// --- FleetEngine ----------------------------------------------------------

FleetEngine::FleetEngine(FleetConfig config)
    : config_(std::move(config)),
      ring_(config_.shards, config_.virtualNodes),
      healthMon_(config_.healthMonitor, config_.shards) {
  HPLMXP_REQUIRE(config_.shards > 0, "fleet needs >= 1 shard");
  HPLMXP_REQUIRE(config_.failoverLimit >= 0,
                 "failover limit must be >= 0");
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (index_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = s;
    ServeConfig cfg = config_.shard;
    cfg.cacheBytes = config_.fleetCacheBytes /
                     static_cast<std::size_t>(config_.shards);
    cfg.factorOverride = [this, s](const ProblemKey& key) {
      return shardFactor(s, key);
    };
    shard->engine = std::make_unique<ServeEngine>(std::move(cfg));
    shards_.push_back(std::move(shard));
  }
  if (config_.hedge.enabled) {
    hedge_.emplace(config_.hedge, now());
    hedgeThread_ = std::thread([this] { hedgeLoop(); });
  }
}

FleetEngine::~FleetEngine() { stop(); }

Factorization FleetEngine::shardFactor(index_t shard, const ProblemKey& key) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  try {
    index_t generation = 0;
    std::function<void(const ProblemKey&)> fault;
    {
      std::lock_guard<std::mutex> lock(sh.mutex);
      if (sh.crashed) {
        throw CheckError("fleet shard " + std::to_string(shard) +
                         " is down (generation " +
                         std::to_string(sh.generation) + ")");
      }
      generation = sh.generation;
      fault = sh.fault;
    }
    sh.factorJobs.fetch_add(1, std::memory_order_relaxed);
    if (fault) {
      fault(key);
    }
    const ProblemGenerator gen(key.seed, key.n);
    Factorization f =
        factorStorageSingle(gen, key.b, config_.shard.vendor, key.precision);
    {
      // A crash that caught the job in flight cleared the shard's cache
      // while this entry was still in flight, so returning the factors
      // would cache them on the dead shard: fail the job instead.
      std::lock_guard<std::mutex> lock(sh.mutex);
      if (sh.crashed || sh.generation != generation) {
        throw CheckError("fleet shard " + std::to_string(shard) +
                         " crashed during a factor job");
      }
    }
    healthMon_.onJobOutcome(shard, true, now());
    return f;
  } catch (...) {
    healthMon_.onJobOutcome(shard, false, now());
    throw;
  }
}

bool FleetEngine::shardAlive(index_t shard) const {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  std::lock_guard<std::mutex> lock(sh.mutex);
  return !sh.crashed;
}

bool FleetEngine::budgetLeft(SolveRequest& copy, double deadlineAt) const {
  if (deadlineAt <= 0.0) {
    return true;  // no deadline, and the shards' default is none too
  }
  copy.deadlineSeconds = deadlineAt - now();
  return copy.deadlineSeconds > 0.0;
}

bool FleetEngine::shardRoutable(index_t shard) {
  return shardAlive(shard) && !healthMon_.excluded(shard);
}

index_t FleetEngine::pickShard(const ProblemKey& key,
                               const std::vector<index_t>& tried,
                               bool hedge) {
  const auto untried = [&](index_t s) {
    return !contains(tried, s) && shardAlive(s);
  };
  const index_t chosen =
      hedge ? healthMon_.routeAdmitted(ring_, key, untried, now())
            : healthMon_.route(ring_, key, untried, now());
  if (chosen >= 0 && chosen != ring_.route(key, nullptr)) {
    // Routed off the all-up primary: a detour, a failover or a hedge.
    reroutes_.fetch_add(1, std::memory_order_relaxed);
  }
  return chosen;
}

FleetEngine::HandlePtr FleetEngine::submit(const SolveRequest& request) {
  auto handle = std::make_shared<Handle>();
  SolveRequest req = request;
  req.id = req.id != 0
               ? req.id
               : nextId_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HPLMXP_REQUIRE(!stopping_, "fleet is stopping");
    ++outstanding_;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const double submitAt = now();
  // The request's one deadline: the primary copy carries the whole budget,
  // and every later copy what is left of it.
  const double budget = req.deadlineSeconds > 0.0
                            ? req.deadlineSeconds
                            : config_.shard.defaultDeadlineSeconds;
  req.deadlineSeconds = budget;
  const double deadlineAt = budget > 0.0 ? submitAt + budget : 0.0;

  const index_t target = pickShard(req.key, {});
  if (target < 0) {
    // Whole-fleet degradation: answer structurally, never hang.
    RequestOutcome o;
    o.id = req.id;
    o.key = req.key;
    o.rhsSeed = req.rhsSeed;
    o.status = RequestStatus::kFailed;
    o.error = "no healthy shard for key " + req.key.toString();
    o.totalSeconds = now() - submitAt;
    publishOutcome(handle, std::move(o), {});
    return handle;
  }
  routeToShard(target, req, handle, submitAt, deadlineAt, 0, {target});
  if (config_.hedge.enabled && shardCount() > 1) {
    scheduleHedge(req, handle, submitAt, deadlineAt, {target});
  }
  return handle;
}

void FleetEngine::routeToShard(index_t shard, const SolveRequest& request,
                               const HandlePtr& handle, double submitAt,
                               double deadlineAt, index_t failovers,
                               std::vector<index_t> tried, bool hedge) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  sh.routed.fetch_add(1, std::memory_order_relaxed);
  ServeEngine::HandlePtr shardHandle = sh.engine->submit(request);
  // The callback runs on the shard's finishing thread (or inline for
  // admission rejections); a shard-side failure re-routes within the
  // failover limit and the request's deadline, everything else publishes
  // the fleet answer exactly once.
  shardHandle->onDone([this, shard, request, handle, submitAt, deadlineAt,
                       failovers, tried = std::move(tried), hedge,
                       shardHandle]() mutable {
    RequestOutcome o = shardHandle->outcome();
    // Completions are the shard's heartbeat stream: a slow-but-alive
    // shard reports late and the phi detector notices. Any other outcome
    // of a probe fails it, so a rejected probe cannot leave the shard
    // probing with its quota spent.
    healthMon_.onOutcome(shard, o.status == RequestStatus::kCompleted,
                         now());
    if (!hedge && o.status == RequestStatus::kFailed &&
        failovers < config_.failoverLimit) {
      SolveRequest copy = request;
      if (!budgetLeft(copy, deadlineAt)) {
        o.status = RequestStatus::kRejectedDeadline;  // published below
      } else if (const index_t next = pickShard(request.key, tried);
                 next >= 0) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        tried.push_back(next);
        routeToShard(next, copy, handle, submitAt, deadlineAt, failovers + 1,
                     std::move(tried));
        return;
      }
    }
    if (hedge && o.status != RequestStatus::kCompleted) {
      // A speculative copy may never decide the request's fate: had the
      // hedge's failure published here, a still-running primary could
      // not win anymore. Swallow it as wasted duplicate work.
      hedgeWasted_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    o.shard = shard;
    o.failovers = failovers;
    o.totalSeconds = now() - submitAt;  // fleet view: failover time counts
    publishOutcome(handle, std::move(o),
                   std::vector<double>(shardHandle->solution()), hedge);
  });
}

void FleetEngine::publishOutcome(const HandlePtr& handle,
                                 RequestOutcome outcome,
                                 std::vector<double> solution, bool hedge) {
  outcome.hedged = hedge;
  const RequestOutcome recorded = outcome;
  if (!handle->publish(std::move(outcome), std::move(solution))) {
    if (handle->hedged_.load(std::memory_order_relaxed)) {
      // The race hedging deliberately creates: both copies finished and
      // the loser's answer bounced off the publish-once handle. Expected
      // duplicate work, not an accounting bug.
      hedgeWasted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      doubleAnswered_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (hedge) {
    hedgeWins_.fetch_add(1, std::memory_order_relaxed);
  }
  recorder_.record(recorded);
  if (hedge_ && recorded.status == RequestStatus::kCompleted) {
    hedge_->observe(recorded.totalSeconds);
  }
  answered_.fetch_add(1, std::memory_order_relaxed);
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    idle = --outstanding_ == 0;
  }
  if (idle) {
    idleCv_.notify_all();
  }
}

// --- hedged requests -------------------------------------------------------

void FleetEngine::scheduleHedge(const SolveRequest& request,
                                const HandlePtr& handle, double submitAt,
                                double deadlineAt,
                                std::vector<index_t> tried) {
  HedgeTask task{now() + hedge_->delaySeconds(), submitAt, deadlineAt,
                 request, handle, std::move(tried)};
  {
    std::lock_guard<std::mutex> lock(hedgeMutex_);
    if (hedgeStop_) {
      return;
    }
    hedgeHeap_.push_back(std::move(task));
    std::push_heap(hedgeHeap_.begin(), hedgeHeap_.end(), HedgeTask::later);
  }
  hedgeCv_.notify_one();
}

void FleetEngine::hedgeLoop() {
  std::unique_lock<std::mutex> lock(hedgeMutex_);
  for (;;) {
    if (hedgeStop_) {
      return;
    }
    if (hedgeHeap_.empty()) {
      hedgeCv_.wait(lock);
      continue;
    }
    const double due = hedgeHeap_.front().fireAt;
    const double t = now();
    if (t < due) {
      hedgeCv_.wait_for(lock, std::chrono::duration<double>(due - t));
      continue;
    }
    std::pop_heap(hedgeHeap_.begin(), hedgeHeap_.end(), HedgeTask::later);
    HedgeTask task = std::move(hedgeHeap_.back());
    hedgeHeap_.pop_back();
    lock.unlock();
    fireHedge(std::move(task));
    lock.lock();
  }
}

void FleetEngine::fireHedge(HedgeTask task) {
  // done() is checked once, before the pick: routable() may spend a
  // probing shard's slot on the pick, so a picked shard always gets the
  // copy, whose outcome ends the probe.
  if (task.handle->done()) {
    return;  // answered in time: the hedge is moot (cancelled)
  }
  if (!budgetLeft(task.request, task.deadlineAt)) {
    return;  // past the request's deadline: a copy could only be rejected
  }
  if (!hedge_->admit(now())) {
    hedgeDenied_.fetch_add(1, std::memory_order_relaxed);
    return;  // amplification budget exhausted: fleet-wide slowness
  }
  const index_t next = pickShard(task.request.key, task.tried, /*hedge=*/true);
  if (next < 0) {
    hedgeDenied_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  task.handle->hedged_.store(true, std::memory_order_relaxed);
  hedgesIssued_.fetch_add(1, std::memory_order_relaxed);
  task.tried.push_back(next);
  routeToShard(next, task.request, task.handle, task.submitAt,
               task.deadlineAt, 0, std::move(task.tried), /*hedge=*/true);
}

void FleetEngine::drain() {
  for (const auto& sh : shards_) {
    sh->engine->drain();
  }
  // Failover chains can still be in flight after every shard queue is
  // empty; the fleet ledger is the source of truth.
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [&] { return outstanding_ == 0; });
}

void FleetEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  // The hedge scheduler goes first so no speculative copy is submitted
  // to a shard engine that is already shutting down.
  {
    std::lock_guard<std::mutex> lock(hedgeMutex_);
    hedgeStop_ = true;
    hedgeHeap_.clear();
  }
  hedgeCv_.notify_all();
  if (hedgeThread_.joinable()) {
    hedgeThread_.join();
  }
  for (const auto& sh : shards_) {
    sh->engine->stop();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [&] { return outstanding_ == 0; });
}

void FleetEngine::breakShard(index_t shard) {
  healthMon_.breakShard(shard, now());
  opsBreaks_.fetch_add(1, std::memory_order_relaxed);
  logInfo("fleet: shard ", shard, " broken (draining)");
}

void FleetEngine::unbreakShard(index_t shard) {
  healthMon_.release(shard, now());
}

void FleetEngine::crashShard(index_t shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  index_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mutex);
    if (sh.crashed) {
      return;
    }
    sh.crashed = true;
    generation = sh.generation;
  }
  // A crashed shard takes its resident factors with it.
  sh.engine->clearCache();
  crashes_.fetch_add(1, std::memory_order_relaxed);
  logWarn("fleet: shard ", shard, " crashed (generation ", generation, ")");
}

void FleetEngine::resurrectShard(index_t shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  index_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mutex);
    if (sh.crashed) {
      // The shard comes back clean: a fault hook that killed it is spent.
      sh.crashed = false;
      ++sh.generation;
      sh.fault = nullptr;
    }
    generation = sh.generation;
  }
  healthMon_.release(shard, now());
  resurrections_.fetch_add(1, std::memory_order_relaxed);
  logInfo("fleet: shard ", shard, " resurrected (generation ", generation,
          ")");
}

void FleetEngine::armShardFaults(
    index_t shard, std::function<void(const ProblemKey&)> fault) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  std::lock_guard<std::mutex> lock(sh.mutex);
  sh.fault = std::move(fault);
}

void FleetEngine::slowShard(index_t shard, double stretch) {
  shards_[static_cast<std::size_t>(shard)]->engine->setServiceStretch(
      stretch);
  opsSlows_.fetch_add(1, std::memory_order_relaxed);
  logInfo("fleet: shard ", shard, " service stretched x",
          Table::num(stretch, 2));
}

FleetReport FleetEngine::report() const {
  FleetReport r;
  r.shards = static_cast<index_t>(shards_.size());

  FactorCache::Stats cacheSum;
  for (const auto& sh : shards_) {
    ShardReport s;
    s.id = sh->id;
    bool crashed = false;
    {
      std::lock_guard<std::mutex> lock(sh->mutex);
      crashed = sh->crashed;
      s.generation = sh->generation;
    }
    s.groupJobs = sh->factorJobs.load(std::memory_order_relaxed);
    s.routed = sh->routed.load(std::memory_order_relaxed);
    s.report = sh->engine->report();
    const ShardHealthMonitor::ShardSnapshot hs =
        healthMon_.shardSnapshot(sh->id, clock_.seconds());
    if (crashed) {
      s.health = "crashed";
    } else if (!hs.excluded) {
      s.health = "healthy";
    } else {
      s.health = hs.state == HealthState::kProbing ? "half-open" : "broken";
    }
    s.healthState = toString(hs.state);
    s.phi = hs.phi;
    s.heartbeatAgeSeconds = hs.lastHeartbeatAge;
    s.heartbeats = hs.heartbeats;
    s.quarantines = hs.quarantines;
    s.probes = hs.probes;
    const FactorCache::Stats cs = s.report.cache;
    cacheSum.lookups += cs.lookups;
    cacheSum.hits += cs.hits;
    cacheSum.misses += cs.misses;
    cacheSum.coalesced += cs.coalesced;
    cacheSum.evictions += cs.evictions;
    cacheSum.declined += cs.declined;
    cacheSum.factorCount += cs.factorCount;
    cacheSum.bytesInUse += cs.bytesInUse;
    cacheSum.budgetBytes += cs.budgetBytes;
    r.perShard.push_back(std::move(s));
  }

  r.fleet = recorder_.report(cacheSum, clock_.seconds(), 0);
  r.reroutes = reroutes_.load(std::memory_order_relaxed);
  r.failovers = failovers_.load(std::memory_order_relaxed);
  r.opsBreaks = opsBreaks_.load(std::memory_order_relaxed);
  r.opsSlows = opsSlows_.load(std::memory_order_relaxed);
  r.crashes = crashes_.load(std::memory_order_relaxed);
  r.resurrections = resurrections_.load(std::memory_order_relaxed);
  r.healthTrips = healthMon_.trips();
  r.quarantines = healthMon_.quarantines();
  r.healthDetours = healthMon_.detours();
  r.hedgesIssued = hedgesIssued_.load(std::memory_order_relaxed);
  r.hedgeWins = hedgeWins_.load(std::memory_order_relaxed);
  r.hedgeWasted = hedgeWasted_.load(std::memory_order_relaxed);
  r.hedgeDenied = hedgeDenied_.load(std::memory_order_relaxed);
  r.submitted = submitted_.load(std::memory_order_relaxed);
  r.answered = answered_.load(std::memory_order_relaxed);
  r.dropped = r.submitted - r.answered;
  r.doubleAnswered = doubleAnswered_.load(std::memory_order_relaxed);
  r.cacheLookupInvariant =
      cacheSum.hits + cacheSum.misses == cacheSum.lookups;
  return r;
}

// --- FleetReport rendering ------------------------------------------------

Table FleetReport::toTable() const {
  Table t({"metric", "value"});
  t.addRow({"shards", Table::num((long long)shards)});
  t.addRow({"submitted", Table::num((long long)submitted)});
  t.addRow({"answered", Table::num((long long)answered)});
  t.addRow({"dropped", Table::num((long long)dropped)});
  t.addRow({"double answered", Table::num((long long)doubleAnswered)});
  t.addRow({"completed", Table::num((long long)fleet.completed)});
  t.addRow({"failed", Table::num((long long)fleet.failed)});
  t.addRow({"reroutes / failovers", Table::num((long long)reroutes) + " / " +
                                        Table::num((long long)failovers)});
  t.addRow({"health trips / ops breaks",
            Table::num((long long)healthTrips) + " / " +
                Table::num((long long)opsBreaks)});
  t.addRow({"crashes / resurrections", Table::num((long long)crashes) +
                                           " / " +
                                           Table::num((long long)resurrections)});
  t.addRow({"quarantines / detours",
            Table::num((long long)quarantines) + " / " +
                Table::num((long long)healthDetours)});
  t.addRow({"hedges issued / won / wasted / denied",
            Table::num((long long)hedgesIssued) + " / " +
                Table::num((long long)hedgeWins) + " / " +
                Table::num((long long)hedgeWasted) + " / " +
                Table::num((long long)hedgeDenied)});
  t.addRow({"ops slows", Table::num((long long)opsSlows)});
  t.addRow({"fleet hit rate",
            Table::num(fleet.cache.hitRate() * 100.0, 1) + "%"});
  t.addRow({"fleet lookups = hits + misses",
            cacheLookupInvariant ? "yes" : "VIOLATED"});
  t.addRow({"fleet total p50/p95/p99 ms",
            Table::num(fleet.total.p50Ms, 2) + " / " +
                Table::num(fleet.total.p95Ms, 2) + " / " +
                Table::num(fleet.total.p99Ms, 2)});
  for (const ShardReport& s : perShard) {
    t.addRow({"shard " + std::to_string(s.id) + " [" + s.health + "/" +
                  s.healthState + "]",
              Table::num((long long)s.routed) + " routed, " +
                  Table::num((long long)s.report.completed) + " completed, " +
                  "gen " + Table::num((long long)s.generation) + ", phi " +
                  Table::num(s.phi, 2) + ", hit " +
                  Table::num(s.report.cache.hitRate() * 100.0, 1) + "%"});
  }
  return t;
}

std::string FleetReport::toJson() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"trace\": " << jsonQuote(trace) << ",\n";
  os << "  \"shards\": " << shards << ",\n";
  os << "  \"submitted\": " << submitted << ",\n";
  os << "  \"answered\": " << answered << ",\n";
  os << "  \"dropped\": " << dropped << ",\n";
  os << "  \"double_answered\": " << doubleAnswered << ",\n";
  os << "  \"reroutes\": " << reroutes << ",\n";
  os << "  \"failovers\": " << failovers << ",\n";
  os << "  \"ops_breaks\": " << opsBreaks << ",\n";
  os << "  \"ops_slows\": " << opsSlows << ",\n";
  os << "  \"crashes\": " << crashes << ",\n";
  os << "  \"resurrections\": " << resurrections << ",\n";
  os << "  \"health_trips\": " << healthTrips << ",\n";
  os << "  \"quarantines\": " << quarantines << ",\n";
  os << "  \"health_detours\": " << healthDetours << ",\n";
  os << "  \"hedges_issued\": " << hedgesIssued << ",\n";
  os << "  \"hedge_wins\": " << hedgeWins << ",\n";
  os << "  \"hedge_wasted\": " << hedgeWasted << ",\n";
  os << "  \"hedge_denied\": " << hedgeDenied << ",\n";
  os << "  \"cache_lookup_invariant\": "
     << (cacheLookupInvariant ? "true" : "false") << ",\n";
  os << "  \"fleet\": " << fleet.toJson() << ",\n";
  os << "  \"per_shard\": [\n";
  for (std::size_t i = 0; i < perShard.size(); ++i) {
    const ShardReport& s = perShard[i];
    os << "    {\n";
    os << "      \"id\": " << s.id << ",\n";
    os << "      \"health\": " << jsonQuote(s.health) << ",\n";
    os << "      \"generation\": " << s.generation << ",\n";
    os << "      \"group_jobs\": " << s.groupJobs << ",\n";
    os << "      \"routed\": " << s.routed << ",\n";
    os << "      \"health_state\": " << jsonQuote(s.healthState) << ",\n";
    os << "      \"phi\": " << s.phi << ",\n";
    os << "      \"heartbeat_age_seconds\": " << s.heartbeatAgeSeconds
       << ",\n";
    os << "      \"heartbeats\": " << s.heartbeats << ",\n";
    os << "      \"quarantines\": " << s.quarantines << ",\n";
    os << "      \"probes\": " << s.probes << ",\n";
    os << "      \"report\": " << s.report.toJson();
    os << "    }" << (i + 1 < perShard.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace hplmxp::serve
