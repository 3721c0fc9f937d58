// Fleet co-simulator: event core ordering, topologies, LU and serve
// workload state machines, chaos, the scripted debug CLI, and the
// determinism regression (same seed + same topology => byte-identical
// event trace, witnessed by the FNV-1a trace hash).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <vector>

#include "cli/commands.h"
#include "cli/options.h"
#include "core/single_solver.h"
#include "fleetsim/debug_cli.h"
#include "fleetsim/event_core.h"
#include "fleetsim/fleet_sim.h"
#include "serve/engine.h"
#include "serve/fleet/fleet.h"
#include "serve/json.h"
#include "serve/metrics.h"

namespace hplmxp::fleetsim {
namespace {

// ------------------------------------------------------------ event core --

/// Records the order its events execute in.
class RecordingWorkload final : public Workload {
 public:
  std::string name() const override { return "recorder"; }
  void start(Simulator&) override {}
  void handle(Simulator&, const Event& event) override {
    executed.push_back(event);
  }
  bool done() const override { return true; }
  std::vector<Event> executed;
};

TEST(EventCore, ExecutesInTimeNodeSeqOrder) {
  Simulator sim;
  RecordingWorkload w;
  const index_t me = sim.addWorkload(&w);
  sim.startWorkloads();
  // Same time, different nodes; same (time, node), seq breaks the tie.
  sim.schedule(2e-3, 5, EventClass::kCrash, me, 1);
  sim.schedule(1e-3, 9, EventClass::kCrash, me, 2);
  sim.schedule(2e-3, 1, EventClass::kCrash, me, 3);
  sim.schedule(2e-3, 5, EventClass::kCrash, me, 4);
  sim.schedule(0.5e-3, 0, EventClass::kCrash, me, 5);
  EXPECT_EQ(sim.run(), StopReason::kExhausted);
  ASSERT_EQ(w.executed.size(), 5u);
  EXPECT_EQ(w.executed[0].a, 5);  // t=0.5
  EXPECT_EQ(w.executed[1].a, 2);  // t=1
  EXPECT_EQ(w.executed[2].a, 3);  // t=2, node 1
  EXPECT_EQ(w.executed[3].a, 1);  // t=2, node 5, earlier seq
  EXPECT_EQ(w.executed[4].a, 4);  // t=2, node 5, later seq
  EXPECT_EQ(sim.executedEvents(), 5u);
  EXPECT_DOUBLE_EQ(sim.now(), 2e-3);
}

TEST(EventCore, RejectsSchedulingIntoThePast) {
  Simulator sim;
  RecordingWorkload w;
  const index_t me = sim.addWorkload(&w);
  sim.startWorkloads();
  sim.schedule(1e-3, 0, EventClass::kCrash, me);
  EXPECT_TRUE(sim.step());
  EXPECT_THROW(sim.schedule(0.5e-3, 0, EventClass::kCrash, me), CheckError);
}

TEST(EventCore, BreakpointFiresBeforeTheMatchingEvent) {
  Simulator sim;
  RecordingWorkload w;
  const index_t me = sim.addWorkload(&w);
  sim.startWorkloads();
  sim.schedule(1e-3, 0, EventClass::kRequestArrival, me, 1);
  sim.schedule(2e-3, 0, EventClass::kCrash, me, 2);
  sim.schedule(3e-3, 0, EventClass::kRequestArrival, me, 3);
  Breakpoint bp;
  bp.kind = Breakpoint::Kind::kEventClass;
  bp.cls = EventClass::kCrash;
  sim.addBreakpoint(bp);

  EXPECT_EQ(sim.run(), StopReason::kBreakpoint);
  // The crash has NOT executed yet; the clock still sits at the last
  // executed event.
  ASSERT_EQ(w.executed.size(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 1e-3);
  ASSERT_NE(sim.breakEvent(), nullptr);
  EXPECT_EQ(sim.breakEvent()->cls, EventClass::kCrash);

  // Resuming executes the broken-on event without re-breaking.
  EXPECT_EQ(sim.run(), StopReason::kExhausted);
  EXPECT_EQ(w.executed.size(), 3u);
}

TEST(EventCore, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  RecordingWorkload w;
  const index_t me = sim.addWorkload(&w);
  sim.startWorkloads();
  sim.schedule(1e-3, 0, EventClass::kCrash, me);
  sim.schedule(5e-3, 0, EventClass::kCrash, me);
  EXPECT_EQ(sim.runUntil(2e-3), StopReason::kTimeLimit);
  EXPECT_EQ(w.executed.size(), 1u);
  EXPECT_EQ(sim.pendingEvents(), 1u);
  EXPECT_EQ(sim.run(), StopReason::kExhausted);
  EXPECT_EQ(w.executed.size(), 2u);
}

TEST(EventCore, EventClassNamesRoundTrip) {
  for (const EventClass cls :
       {EventClass::kLuIteration, EventClass::kRequestArrival,
        EventClass::kCrash, EventClass::kSlowdown}) {
    EXPECT_EQ(eventClassFromString(toString(cls)), cls);
  }
  EXPECT_THROW((void)eventClassFromString("no-such-class"), CheckError);
}

// ------------------------------------------------------------- topology --

TEST(TopologyTest, ParsesConfigAndRejectsUnknownKeys) {
  const TopologyConfig config = TopologyConfig::parse(
      "# a comment\n"
      "name test-df\n"
      "kind dragonfly\n"
      "nodes 64\n"
      "group-size 8\n"
      "link-latency-us 2\n"
      "link-bandwidth-gbs 50\n"
      "machine summit\n"
      "variability-spread 0.1\n");
  EXPECT_EQ(config.name, "test-df");
  EXPECT_EQ(config.kind, TopologyKind::kDragonfly);
  EXPECT_EQ(config.nodes, 64);
  EXPECT_EQ(config.groupSize, 8);
  EXPECT_EQ(config.machine, MachineKind::kSummit);
  EXPECT_DOUBLE_EQ(config.variability.spread, 0.1);
  EXPECT_THROW(TopologyConfig::parse("no-such-key 3\n"), CheckError);
}

TEST(TopologyTest, FatTreeHopStructure) {
  TopologyConfig config;
  config.kind = TopologyKind::kFatTree;
  config.nodes = 64;
  config.radix = 4;
  const Topology topo(config);
  EXPECT_EQ(topo.hops(5, 5), 0);   // self
  EXPECT_EQ(topo.hops(0, 3), 2);   // same leaf (radix 4)
  EXPECT_EQ(topo.hops(0, 7), 4);   // same pod (radix^2 block)
  EXPECT_EQ(topo.hops(0, 60), 6);  // across the core
}

TEST(TopologyTest, DragonflyAndTorusHops) {
  TopologyConfig df;
  df.kind = TopologyKind::kDragonfly;
  df.nodes = 32;
  df.groupSize = 8;
  const Topology dragonfly(df);
  EXPECT_EQ(dragonfly.hops(1, 6), 2);
  EXPECT_EQ(dragonfly.hops(1, 30), 5);

  TopologyConfig t;
  t.kind = TopologyKind::kTorus;
  t.nodes = 27;
  t.torusX = 3;
  t.torusY = 3;
  t.torusZ = 3;
  const Topology torus(t);
  EXPECT_EQ(torus.hops(0, 1), 1);
  // Wraparound: (0,0,0) to (2,2,2) is one hop per axis.
  EXPECT_EQ(torus.hops(0, 26), 3);
  // Dimensions must multiply out to the node count.
  TopologyConfig bad = t;
  bad.nodes = 26;
  EXPECT_THROW((Topology(bad)), CheckError);
}

TEST(TopologyTest, TransferUsesLinkOracleSemantics) {
  TopologyConfig config;
  config.nodes = 16;
  config.radix = 4;
  config.linkLatencyUs = 4.0;
  config.linkBandwidthGBs = 25.0;
  const Topology topo(config);
  EXPECT_DOUBLE_EQ(topo.transferSeconds(3, 3, 1e9), 0.0);  // self-send
  // Same leaf: 2 hops of alpha plus the bandwidth term.
  EXPECT_NEAR(topo.transferSeconds(0, 1, 1e6), 2 * 4e-6 + 1e6 / 25e9, 1e-12);
  // Saturating the single rail doubles only the bandwidth term.
  const double clean = topo.transferSeconds(0, 1, 1e6, 1);
  const double congested = topo.transferSeconds(0, 1, 1e6, 2);
  EXPECT_NEAR(congested - clean, 1e6 / 25e9, 1e-12);
}

// ---------------------------------------------------------- LU workload --

FleetSimConfig luConfig(index_t nodes = 16) {
  FleetSimConfig cfg;
  cfg.topology.nodes = nodes;
  cfg.topology.radix = 4;
  cfg.runLu = true;
  cfg.lu.n = 2048;
  cfg.lu.b = 128;
  cfg.lu.pr = 4;
  cfg.lu.pc = 4;
  return cfg;
}

TEST(LuWorkloadTest, RunsToCompletionOnVirtualTime) {
  FleetSession session(luConfig());
  session.sim().run();
  const LuStats& stats = session.lu()->stats();
  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(stats.iterations, 16);  // n/b
  EXPECT_GT(stats.factorSeconds, 0.0);
  EXPECT_GT(session.sim().executedEvents(), 16u);  // panel markers too
}

TEST(LuWorkloadTest, InjectedSlowNodeStallsEveryLaterIteration) {
  FleetSession baseline(luConfig());
  baseline.sim().run();
  const double clean = baseline.lu()->stats().factorSeconds;

  FleetSession slowed(luConfig());
  slowed.lu()->scheduleSlowdown(slowed.sim(), 0.0, 3, 0.25);
  slowed.sim().run();
  const double stalled = slowed.lu()->stats().factorSeconds;

  // One rank at quarter pace stalls the whole synchronous pipeline: the
  // sweep must be substantially slower, approaching the 4x compute bound.
  EXPECT_GT(stalled, clean * 1.5);
  EXPECT_DOUBLE_EQ(slowed.lu()->effectiveMultiplier(3),
                   0.25 * slowed.topology().nodeMultiplier(3));
}

// -------------------------------------------------------- serve workload --

FleetSimConfig serveConfig(index_t requests, index_t keys, double gapMs,
                           index_t shards, index_t nodes = 16) {
  FleetSimConfig cfg;
  cfg.topology.nodes = nodes;
  cfg.topology.radix = 4;
  cfg.runServe = true;
  cfg.serve.trace =
      serve::makeSyntheticTrace(requests, keys, gapMs, 64, 16, 42);
  cfg.serve.shards = shards;
  return cfg;
}

TEST(ServeWorkloadTest, CompletesAllRequestsWithExactAccounting) {
  FleetSession session(serveConfig(100, 4, 0.5, 2));
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.completed, 100u);
  EXPECT_TRUE(session.serve()->done());
  // Cache invariant: hits + misses == lookups; one factorization per
  // distinct key (nothing evicted at this scale).
  EXPECT_EQ(stats.cacheHits + stats.cacheMisses, stats.cacheLookups);
  EXPECT_EQ(stats.factorCount, 4u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.hitRate(), 0.0);
  // Latency series sizes match the completion count.
  EXPECT_EQ(stats.totalSeconds.size(), 100u);
  EXPECT_EQ(stats.queueWaitSeconds.size(), 100u);
}

TEST(ServeWorkloadTest, BackToBackBurstCoalescesIntoBatches) {
  // 16 same-key requests arriving together must batch (8 + 8), costing
  // one factorization, one cache hit, and two solves.
  FleetSession session(serveConfig(16, 1, 0.0, 1));
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.maxBatchSize, 8);
  EXPECT_EQ(stats.factorCount, 1u);
  EXPECT_EQ(stats.cacheLookups, 2u);
  EXPECT_EQ(stats.cacheHits, 1u);  // the second batch hits
}

TEST(ServeWorkloadTest, QueueBoundRejectsAtDepth) {
  // A burst larger than the queue lands at one instant, before the idle
  // lane's pick-up fires: depth fills, the overflow is rejected.
  FleetSimConfig cfg = serveConfig(100, 1, 0.0, 1);
  cfg.serve.queueDepth = 10;
  cfg.serve.maxBatch = 64;
  FleetSession session(cfg);
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.rejectedQueueFull, 90u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.peakQueueDepth, 10);
  EXPECT_TRUE(session.serve()->done());
}

TEST(ServeWorkloadTest, DeadlinesRejectLateRequests) {
  // The first request's cold solve (a 64^3 factorization at 0.1 GFLOP/s,
  // about 2 ms) holds the lane while 20 more arrive 10 us apart. Their
  // 0.5 ms deadline passes while they queue, so the freed lane rejects
  // every one of them at pick-up instead of solving any of them late.
  FleetSimConfig cfg = serveConfig(21, 1, 0.01, 1);
  cfg.serve.hostGflops = 0.1;
  cfg.serve.defaultDeadlineMs = 0.5;
  FleetSession session(cfg);
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejectedDeadline, 20u);
  EXPECT_EQ(stats.batches, 1u);  // only the first request was solved
  EXPECT_TRUE(session.serve()->done());
}

/// The shard one-key traffic lands on (every request shares the key).
index_t hotShard(const FleetSimConfig& cfg) {
  FleetSession probe(cfg);
  probe.sim().run();
  for (index_t s = 0; s < cfg.serve.shards; ++s) {
    if (probe.serve()->shardView(s).routed > 0) {
      return s;
    }
  }
  return -1;
}

TEST(ServeWorkloadTest, LoneArrivalWaitsOnlyItsWireHop) {
  // Requests 5 ms apart each find their lane idle and start the instant
  // they land: the queue wait is the router-to-shard hop and nothing more,
  // with no coalescing hold on top.
  const FleetSimConfig cfg = serveConfig(4, 1, 5.0, 2);
  const index_t hot = hotShard(cfg);
  ASSERT_GE(hot, 0);
  FleetSession session(cfg);
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  const double hop = session.topology().transferSeconds(
      0, session.serve()->shardNode(hot), cfg.serve.requestBytes,
      cfg.serve.shards);
  EXPECT_GT(hop, 0.0);  // the key lands off the router's node
  EXPECT_EQ(stats.batches, 4u);
  ASSERT_EQ(stats.queueWaitSeconds.size(), 4u);
  for (const double wait : stats.queueWaitSeconds) {
    EXPECT_NEAR(wait, hop, 1e-12);  // (t + hop) - t rounds
  }
}

TEST(ServeWorkloadTest, ArrivalsDuringASolveCoalesceIntoTheNextBatch) {
  // The first request starts alone on the idle lane; the next three (20 us
  // apart) arrive during its cold solve and leave together as one batch
  // when the lane frees: two batches, one factorization, one cache hit.
  FleetSession session(serveConfig(4, 1, 0.02, 1));
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.maxBatchSize, 3);
  EXPECT_EQ(stats.factorCount, 1u);
  EXPECT_EQ(stats.cacheHits, 1u);
}

TEST(ServeWorkloadTest, FreedLaneTakesTheBucketWhoseHeadQueuedFirst) {
  // Key A's cold solve (about 0.2 ms) holds the lane while a B and then a
  // second A arrive. The freed lane must take B, whose head queued first:
  // B's 0.25 ms deadline holds only if it does not also wait out A's
  // cached-factor solve (about 0.11 ms).
  FleetSimConfig cfg = serveConfig(1, 1, 0.0, 1);
  cfg.topology.variability.spread = 0.0;  // node multipliers exactly 1.0
  const serve::TraceRequest a = cfg.serve.trace.requests.front();
  serve::TraceRequest b = a;
  b.seed = a.seed + 1;
  b.atMs = 0.01;
  b.deadlineMs = 0.25;
  serve::TraceRequest a2 = a;
  a2.atMs = 0.02;
  a2.rhsSeed = a.rhsSeed + 1;
  cfg.serve.trace.requests = {a, b, a2};
  FleetSession session(cfg);
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejectedDeadline, 0u);
  EXPECT_EQ(stats.batches, 3u);
}

TEST(ServeWorkloadTest, CrashThenResurrectFailsTheInFlightBatchOver) {
  // A 64^3 factorization at 0.001 GFLOP/s takes about 175 ms. The shard
  // crashes 10 ms into it and resurrects at 20 ms, long before the
  // solve-done fires: that batch ran on the pre-crash factors and the
  // pre-crash lane, so it fails over and the request is factored afresh.
  FleetSimConfig cfg = serveConfig(1, 1, 0.0, 2);
  cfg.serve.hostGflops = 0.001;
  const index_t hot = hotShard(cfg);
  ASSERT_GE(hot, 0);
  cfg.serve.chaos.push_back(
      {ChaosAction::Kind::kCrash, /*atMs=*/10.0, hot, 0.0});
  cfg.serve.chaos.push_back(
      {ChaosAction::Kind::kResurrect, /*atMs=*/20.0, hot, 0.0});
  FleetSession session(cfg);
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.factorCount, 2u);
  EXPECT_TRUE(session.serve()->done());
}

TEST(ServeWorkloadTest, CrashFailsOverAndResurrectRestores) {
  // With one key all traffic lands on one shard; a probe run finds which.
  FleetSession probe(serveConfig(10, 1, 0.5, 3));
  probe.sim().run();
  index_t hot = -1;
  for (index_t s = 0; s < 3; ++s) {
    if (probe.serve()->shardView(s).routed > 0) {
      hot = s;
    }
  }
  ASSERT_GE(hot, 0);

  FleetSimConfig cfg = serveConfig(200, 1, 0.5, 3);
  cfg.serve.chaos.push_back(
      {ChaosAction::Kind::kCrash, /*atMs=*/20.0, hot, 0.0});
  cfg.serve.chaos.push_back(
      {ChaosAction::Kind::kResurrect, /*atMs=*/50.0, hot, 0.0});
  FleetSession session(cfg);
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  // Every request is answered exactly once; the crash shows up as
  // failovers to the ring successor, not as losses.
  EXPECT_TRUE(session.serve()->done());
  EXPECT_EQ(stats.completed + stats.rejectedQueueFull +
                stats.rejectedDeadline + stats.rejectedCircuitOpen +
                stats.failed,
            200u);
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_GE(stats.completed, 195u);
  // The resurrected shard is healthy (and cold) in the final view.
  EXPECT_FALSE(session.serve()->shardView(hot).crashed);
}

TEST(ServeWorkloadTest, CacheBudgetIsFleetWideAndSplitAcrossShards) {
  // serve.cache-mb is the fleet's budget, split evenly across the shards
  // as FleetEngine splits it. Five keys of n=64 fit a budget of exactly
  // five live-size factors. Split over 2 shards, each shard holds two, so
  // the shard that owns three or more keys must evict or decline one.
  const double factorMb =
      static_cast<double>(Factorization::residentBytes(64)) /
      (1024.0 * 1024.0);
  FleetSimConfig cfg = serveConfig(100, 5, 0.5, 1);
  cfg.serve.cacheMb = 5.0 * factorMb;
  FleetSession whole(cfg);
  whole.sim().run();
  EXPECT_EQ(whole.serve()->stats().evictions, 0u);
  EXPECT_EQ(whole.serve()->stats().factorCount, 5u);

  cfg.serve.shards = 2;
  FleetSession split(cfg);
  split.sim().run();
  const ServeStats& stats = split.serve()->stats();
  EXPECT_EQ(stats.completed, 100u);
  EXPECT_GT(stats.evictions + stats.declined, 0u);
  EXPECT_GT(stats.factorCount, 5u);
  EXPECT_EQ(stats.cacheHits + stats.cacheMisses, stats.cacheLookups);
}

TEST(ServeWorkloadTest, ShardBudgetHoldsLiveSizedFactors) {
  // A simulated shard charges each factor what the live cache holds for
  // it. A one-shard budget of exactly four n=64 factors keeps all four
  // round-robin keys: nothing is evicted or declined. A key whose factors
  // exceed the whole budget is declined at each of its three lookups
  // (20 ms apart, each a batch of its own) and evicts none of the four.
  constexpr index_t kKeys = 4;
  FleetSimConfig cfg = serveConfig(40, kKeys, 0.5, 1);
  cfg.serve.cacheMb =
      static_cast<double>(kKeys * Factorization::residentBytes(64)) /
      (1024.0 * 1024.0);
  FleetSession fits(cfg);
  fits.sim().run();
  EXPECT_EQ(fits.serve()->stats().completed, 40u);
  EXPECT_EQ(fits.serve()->stats().factorCount, 4u);
  EXPECT_EQ(fits.serve()->stats().evictions, 0u);
  EXPECT_EQ(fits.serve()->stats().declined, 0u);
  EXPECT_EQ(fits.serve()->shardView(0).cachedKeys, kKeys);

  for (int i = 0; i < 3; ++i) {
    serve::TraceRequest big = cfg.serve.trace.requests.back();
    big.atMs += 20.0 * (i + 1);
    big.n = 256;
    big.b = 64;
    big.seed = 7;
    cfg.serve.trace.requests.push_back(big);
  }
  FleetSession oversize(cfg);
  oversize.sim().run();
  const ServeStats& stats = oversize.serve()->stats();
  EXPECT_EQ(stats.completed, 43u);
  EXPECT_EQ(stats.factorCount, 7u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.declined, 3u);
  EXPECT_EQ(oversize.serve()->shardView(0).cachedKeys, kKeys);
}

TEST(ServeWorkloadTest, KeepsTheKeysTheLiveCacheKeeps) {
  // The live FactorCache and fleetsim's shard cache run one CachePolicy
  // at one byte size per factor. Replay one skewed trace over 12 keys,
  // with a budget of three factors, through a one-shard ServeEngine (each
  // request submitted once the one before it is answered) and a one-shard
  // fleetsim session (arrivals 1 ms apart find the lane idle): both make
  // one lookup per request, in the same order, and must keep the same keys.
  constexpr index_t kN = 64;
  constexpr std::size_t kRequests = 300;
  FleetSimConfig cfg = serveConfig(static_cast<index_t>(kRequests), 1, 1.0, 1);
  std::uint64_t state = 2026;
  for (serve::TraceRequest& r : cfg.serve.trace.requests) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
    r.seed = 42 + static_cast<std::uint64_t>(12.0 * u * u * u);
  }
  const std::size_t budget = 3 * Factorization::residentBytes(kN);
  cfg.serve.cacheMb = static_cast<double>(budget) / (1024.0 * 1024.0);
  FleetSession session(cfg);
  session.sim().run();
  const ServeStats& sim = session.serve()->stats();
  ASSERT_EQ(sim.completed, kRequests);
  ASSERT_EQ(sim.batches, kRequests);

  serve::ServeConfig liveCfg;
  liveCfg.cacheBytes = budget;
  serve::ServeEngine engine(liveCfg);
  for (const serve::TraceRequest& r : cfg.serve.trace.requests) {
    serve::SolveRequest req;
    req.key = {r.n, r.b, r.seed, r.pr, r.pc, r.precision};
    req.rhsSeed = r.rhsSeed;
    ASSERT_EQ(engine.submit(req)->wait().status,
              serve::RequestStatus::kCompleted);
  }
  const serve::FactorCache::Stats live = engine.cache().stats();
  EXPECT_EQ(live.lookups, sim.cacheLookups);
  EXPECT_EQ(live.hits, sim.cacheHits);
  EXPECT_EQ(live.misses, sim.cacheMisses);
  EXPECT_EQ(live.factorCount, sim.factorCount);
  EXPECT_EQ(live.evictions, sim.evictions);
  EXPECT_EQ(live.declined, sim.declined);
  EXPECT_EQ(static_cast<index_t>(engine.cache().size()),
            session.serve()->shardView(0).cachedKeys);
  // The trace fills the cache and makes the policy choose.
  EXPECT_GT(live.evictions, 0u);
  EXPECT_GT(live.declined, 0u);
}

TEST(ServeWorkloadTest, RoutesEachShardWhatTheLiveFleetRoutesIt) {
  // The live fleet and fleetsim run one routing rule,
  // ShardHealthMonitor::route over HashRing::route. Replayed on the same
  // shard and virtual-node counts, both must route each shard the same
  // number of requests: once healthy, and once with a shard crashed
  // before the first request. The live phi tier is off, so wall-clock
  // completion gaps cannot quarantine a live shard.
  constexpr index_t kShards = 3;
  FleetSimConfig cfg = serveConfig(48, 12, 0.5, kShards);
  for (serve::TraceRequest& r : cfg.serve.trace.requests) {
    r.atMs += 1.0;  // the crash at t = 0 lands before the first arrival
  }
  for (const index_t crashed : {index_t{-1}, index_t{1}}) {
    FleetSimConfig simCfg = cfg;
    if (crashed >= 0) {
      simCfg.serve.chaos.push_back(
          {ChaosAction::Kind::kCrash, /*atMs=*/0.0, crashed, 0.0});
    }
    FleetSession session(simCfg);
    session.sim().run();
    ASSERT_EQ(session.serve()->stats().completed, 48u);

    serve::FleetConfig fleetCfg;
    fleetCfg.shards = kShards;
    fleetCfg.virtualNodes = cfg.serve.virtualNodes;
    fleetCfg.healthMonitor.enabled = false;
    serve::FleetEngine fleet(fleetCfg);
    if (crashed >= 0) {
      fleet.crashShard(crashed);
    }
    for (const serve::TraceRequest& r : cfg.serve.trace.requests) {
      serve::SolveRequest req;
      req.key = {r.n, r.b, r.seed, r.pr, r.pc, r.precision};
      req.rhsSeed = r.rhsSeed;
      (void)fleet.submit(req);
    }
    fleet.drain();
    const serve::FleetReport report = fleet.report();
    ASSERT_EQ(report.fleet.completed, 48u);
    for (index_t s = 0; s < kShards; ++s) {
      const std::uint64_t live =
          report.perShard[static_cast<std::size_t>(s)].routed;
      EXPECT_EQ(session.serve()->shardView(s).routed, live)
          << "shard " << s << ", crashed shard " << crashed;
      EXPECT_EQ(live == 0, s == crashed) << "shard " << s;
    }
  }
}

TEST(ServeWorkloadTest, SlowShardStretchesItsSolveTimes) {
  FleetSession fast(serveConfig(60, 1, 1.0, 1));
  fast.sim().run();

  FleetSimConfig cfg = serveConfig(60, 1, 1.0, 1);
  cfg.serve.chaos.push_back(
      {ChaosAction::Kind::kSlow, /*atMs=*/0.0, /*shard=*/0, 0.1});
  FleetSession slow(cfg);
  slow.sim().run();

  const auto p50 = [](const FleetSession& s) {
    return serve::LatencyPercentiles::of(s.serve()->stats().solveSeconds)
        .p50Ms;
  };
  EXPECT_GT(p50(slow), p50(fast) * 2.0);
}

// --------------------------------------------------- gray-failure defense --

/// The tuned gray-failure scenario: solve-dominated traffic on 2 shards,
/// shard 1 silently dropping to 1/5 speed at t=60ms (slow-but-alive, the
/// failure mode that fails no request). Defense = phi detector fed by
/// 2ms heartbeat pulses + hedged requests.
FleetSimConfig grayConfig(bool defense) {
  FleetSimConfig cfg;
  cfg.topology.nodes = 8;
  cfg.topology.radix = 4;
  cfg.runServe = true;
  cfg.serve.trace = serve::makeSyntheticTrace(600, 8, 0.3, 96, 16, 42);
  cfg.serve.shards = 2;
  cfg.serve.queueDepth = 256;
  cfg.serve.maxBatch = 1;  // solo solves: the defense alone drains the tail
  cfg.serve.hostGflops = 0.5;
  cfg.serve.chaos.push_back(
      {ChaosAction::Kind::kSlow, /*atMs=*/60.0, /*shard=*/1, 0.2});
  if (defense) {
    cfg.serve.health.enabled = true;
    cfg.serve.health.heartbeatIntervalSeconds = 0.002;
    cfg.serve.hedgeEnabled = true;
  }
  return cfg;
}

TEST(GrayDefenseTest, DefenseCutsTheSlowShardTailWithBoundedDuplicateWork) {
  // The acceptance gate of the gray-failure defense, run entirely in the
  // co-simulator: with the defense on, the slow shard is quarantined and
  // traffic detours/hedges around it, so the p99 must drop to <= 0.6x the
  // defense-off tail while duplicate solve work stays <= 1.15x — and not
  // a single request may be dropped or double-answered.
  FleetSession off(grayConfig(false));
  off.sim().run();
  const ServeStats& so = off.serve()->stats();
  ASSERT_EQ(so.submitted, 600u);
  ASSERT_EQ(so.completed, 600u);
  // Defense off schedules no defense events at all.
  EXPECT_EQ(so.heartbeats, 0u);
  EXPECT_EQ(so.hedgesIssued, 0u);
  EXPECT_EQ(so.quarantines, 0u);

  FleetSession on(grayConfig(true));
  on.sim().run();
  const ServeStats& sn = on.serve()->stats();
  EXPECT_EQ(sn.submitted, 600u);
  EXPECT_EQ(sn.completed, 600u);  // every request answered exactly once
  EXPECT_EQ(sn.failed, 0u);
  EXPECT_EQ(sn.rejectedQueueFull + sn.rejectedDeadline +
                sn.rejectedCircuitOpen,
            0u);
  EXPECT_TRUE(on.serve()->done());

  const double p99Off =
      serve::LatencyPercentiles::of(so.totalSeconds).p99Ms;
  const double p99On = serve::LatencyPercentiles::of(sn.totalSeconds).p99Ms;
  EXPECT_LE(p99On, 0.6 * p99Off)
      << "defense-on p99 " << p99On << "ms vs off " << p99Off << "ms";
  EXPECT_LE(sn.solveWorkSeconds, 1.15 * so.solveWorkSeconds)
      << "duplicate-work amplification over budget";

  // The detector actually fired: pulses flowed, the slow shard was
  // quarantined, and routes detoured off it.
  EXPECT_GT(sn.heartbeats, 0u);
  EXPECT_GE(sn.quarantines, 1u);
  EXPECT_GT(sn.healthDetours, 0u);
}

TEST(GrayDefenseTest, HedgePassingAProbingShardLeavesItsProbeSlot) {
  // Key ka has ring order A, B, C, and C owns key kc. C crashes, and a kc
  // request detours while it is down, which quarantines C. Resurrected,
  // C pulses its way to probing after the dwell, with nothing in flight.
  // A ka request then hedges at once, and its copy goes to B, the first
  // routable shard past the primary. Passing C over must leave C's probe
  // slot free: the next kc request is C's probe, and its answer heals C.
  FleetSimConfig cfg;
  cfg.topology.nodes = 8;
  cfg.topology.radix = 4;
  cfg.runServe = true;
  cfg.serve.shards = 3;
  cfg.serve.health.enabled = true;
  cfg.serve.health.heartbeatIntervalSeconds = 0.002;
  cfg.serve.hedgeEnabled = true;
  cfg.serve.hedgeDelayFactor = 0.0;  // every hedge fires on arrival
  cfg.serve.hedgeMinDelayMs = 0.0;

  const serve::HashRing ring(cfg.serve.shards, cfg.serve.virtualNodes);
  const auto keyOf = [](const serve::TraceRequest& r) {
    return serve::ProblemKey{r.n, r.b, r.seed, r.pr, r.pc, r.precision};
  };
  serve::TraceRequest ka;
  ka.n = 64;
  ka.b = 16;
  ka.seed = 1;
  const index_t a = ring.route(keyOf(ka), nullptr);
  const index_t b =
      ring.route(keyOf(ka), [a](index_t s) { return s != a; });
  const index_t c = 3 - a - b;
  serve::TraceRequest kc = ka;
  while (ring.route(keyOf(kc), nullptr) != c) {
    ++kc.seed;
  }
  serve::TraceRequest detour = kc;
  detour.atMs = 20.0;
  detour.rhsSeed = 1;
  serve::TraceRequest hedged = ka;
  hedged.atMs = 150.0;
  hedged.rhsSeed = 2;
  serve::TraceRequest probe = kc;
  probe.atMs = 160.0;
  probe.rhsSeed = 3;
  cfg.serve.trace.requests = {detour, hedged, probe};
  cfg.serve.chaos.push_back({ChaosAction::Kind::kCrash, 10.0, c, 0.0});
  cfg.serve.chaos.push_back({ChaosAction::Kind::kResurrect, 30.0, c, 0.0});

  FleetSession session(cfg);
  session.sim().runUntil(0.145);
  ASSERT_EQ(session.serve()->healthView(c, session.sim().now()).state,
            "probing");
  ASSERT_EQ(session.serve()->shardView(c).routed, 0u);
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GE(stats.hedgesIssued, 2u);
  EXPECT_GE(session.serve()->shardView(b).routed, 1u);
  EXPECT_EQ(session.serve()->shardView(c).routed, 1u);
  EXPECT_EQ(session.serve()->healthView(c, session.sim().now()).state,
            "healthy");
}

/// Three shards with the detector on. Shard `c` crashes at 10 ms, and a
/// request of a key it owns detours at 20 ms, which quarantines it.
/// Resurrected at 30 ms, it pulses its way to probing after the dwell,
/// with nothing in flight, by 145 ms. Returns a key `c` owns.
serve::TraceRequest quarantineThenProbe(FleetSimConfig& cfg, index_t c) {
  cfg.topology.nodes = 8;
  cfg.topology.radix = 4;
  cfg.runServe = true;
  cfg.serve.shards = 3;
  cfg.serve.health.enabled = true;
  cfg.serve.health.heartbeatIntervalSeconds = 0.002;
  const serve::HashRing ring(cfg.serve.shards, cfg.serve.virtualNodes);
  serve::TraceRequest kc;
  kc.n = 64;
  kc.b = 16;
  kc.seed = 1;
  while (ring.route(serve::ProblemKey{kc.n, kc.b, kc.seed, kc.pr, kc.pc,
                                      kc.precision},
                    nullptr) != c) {
    ++kc.seed;
  }
  serve::TraceRequest detour = kc;
  detour.atMs = 20.0;
  detour.rhsSeed = 1;
  cfg.serve.trace.requests = {detour};
  cfg.serve.chaos.push_back({ChaosAction::Kind::kCrash, 10.0, c, 0.0});
  cfg.serve.chaos.push_back({ChaosAction::Kind::kResurrect, 30.0, c, 0.0});
  return kc;
}

TEST(GrayDefenseTest, RejectedProbeQuarantinesItsShardAgain) {
  // A probe that the probing shard rejects (here: its deadline passed on
  // the wire) is a failed probe, as in the live fleet: the shard goes
  // back to quarantine and probes again after the dwell. The next
  // request it owns is that probe, and its answer heals the shard.
  FleetSimConfig cfg;
  const index_t c = 1;  // not on the router's node: its copies pay a hop
  const serve::TraceRequest kc = quarantineThenProbe(cfg, c);
  serve::TraceRequest doomed = kc;
  doomed.atMs = 150.0;
  doomed.rhsSeed = 2;
  doomed.deadlineMs = 1e-4;
  serve::TraceRequest later = kc;
  later.atMs = 400.0;
  later.rhsSeed = 3;
  cfg.serve.trace.requests.push_back(doomed);
  cfg.serve.trace.requests.push_back(later);

  FleetSession session(cfg);
  session.sim().runUntil(0.145);
  ASSERT_EQ(session.serve()->healthView(c, session.sim().now()).state,
            "probing");
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.rejectedDeadline, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(session.serve()->shardView(c).routed, 2u);
  EXPECT_EQ(session.serve()->healthView(c, session.sim().now()).state,
            "healthy");
}

TEST(GrayDefenseTest, LateHedgeCopyIsWastedWorkAndEndsTheProbe) {
  // Key ka's primary is shard 0, on the router's node, and solves cost
  // nothing, so every ka request is answered before its hedge copy
  // reaches the next shard clockwise, c, which is probing. That late
  // copy is wasted work, and, as the live shard's solve would, it ends
  // the probe: c heals and takes the later hedges as a healthy shard.
  FleetSimConfig cfg;
  cfg.serve.hostGflops = 1e6;
  cfg.serve.solveOverheadUs = 0.0;
  cfg.serve.hedgeEnabled = true;
  cfg.serve.hedgeDelayFactor = 0.0;  // every hedge fires on arrival
  cfg.serve.hedgeMinDelayMs = 0.0;
  const serve::HashRing ring(3, cfg.serve.virtualNodes);
  serve::TraceRequest ka;
  ka.n = 64;
  ka.b = 16;
  ka.seed = 1;
  const auto keyOf = [](const serve::TraceRequest& r) {
    return serve::ProblemKey{r.n, r.b, r.seed, r.pr, r.pc, r.precision};
  };
  while (ring.route(keyOf(ka), nullptr) != 0) {
    ++ka.seed;
  }
  const index_t c = ring.route(keyOf(ka), [](index_t s) { return s != 0; });
  (void)quarantineThenProbe(cfg, c);
  for (int i = 0; i < 3; ++i) {
    serve::TraceRequest r = ka;
    r.atMs = 150.0 + 10.0 * i;
    r.rhsSeed = 10 + static_cast<std::uint64_t>(i);
    cfg.serve.trace.requests.push_back(r);
  }

  FleetSession session(cfg);
  session.sim().runUntil(0.145);
  ASSERT_EQ(session.serve()->healthView(c, session.sim().now()).state,
            "probing");
  session.sim().run();
  const ServeStats& stats = session.serve()->stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_GE(stats.hedgesIssued, 3u);
  // Every hedge leaves exactly one losing copy, and each is counted.
  EXPECT_EQ(stats.hedgeWasted, stats.hedgesIssued);
  EXPECT_EQ(session.serve()->healthView(c, session.sim().now()).state,
            "healthy");
}

TEST(GrayDefenseTest, DefenseOnTraceIsDeterministic) {
  // The whole defense — phi arithmetic, quarantine transitions, hedge
  // token bucket, p95-derived delays — runs on virtual time, so two runs
  // of the same config must produce byte-identical event traces.
  const auto hash = [] {
    FleetSession session(grayConfig(true));
    session.sim().run();
    return session.sim().traceHash();
  };
  EXPECT_EQ(hash(), hash());
}

FleetSimConfig mixedConfig() {
  FleetSimConfig cfg = serveConfig(300, 5, 0.1, 3, 64);
  cfg.serve.chaos.push_back({ChaosAction::Kind::kCrash, 5.0, 1, 0.0});
  cfg.serve.chaos.push_back({ChaosAction::Kind::kResurrect, 15.0, 1, 0.0});
  cfg.runLu = true;
  cfg.lu.n = 1024;
  cfg.lu.b = 128;
  cfg.lu.pr = 4;
  cfg.lu.pc = 4;
  return cfg;
}

std::uint64_t runHash() {
  FleetSession session(mixedConfig());
  session.sim().run();
  return session.sim().traceHash();
}

TEST(DeterminismTest, TwoConsecutiveRunsHashIdentically) {
  EXPECT_EQ(runHash(), runHash());
}

TEST(DeterminismTest, HashIsIndependentOfHostThreadContext) {
  // The simulator is single-threaded by construction; concurrent host
  // threads running their own sessions must not perturb any trace.
  const std::uint64_t reference = runHash();
  std::vector<std::future<std::uint64_t>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(std::async(std::launch::async, runHash));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get(), reference);
  }
}

TEST(DeterminismTest, GoldenHashOfServeOnlyConfig) {
  // Serve-only schedule: every event time is built from plain arithmetic
  // on trace offsets and rate divisions (no libm), so the hash is stable
  // across compilers. If this fails, either the event schedule changed
  // (intended? update the constant) or determinism broke (fix that).
  // Re-pinned when dispatch became work-conserving: an idle lane's
  // pick-up replaced the 1 ms batch window, so every solve starts earlier
  // and the pick-up events carry different payloads.
  FleetSimConfig cfg;
  cfg.topology.nodes = 8;
  cfg.topology.radix = 4;
  cfg.topology.variability.spread = 0.0;  // multipliers exactly 1.0
  cfg.runServe = true;
  cfg.serve.trace = serve::makeSyntheticTrace(64, 4, 0.25, 64, 16, 7);
  cfg.serve.shards = 2;
  FleetSession session(cfg);
  session.sim().run();
  EXPECT_EQ(session.sim().traceHash(), 0xa080573ab4bc2ac9ull);
}

TEST(DeterminismTest, DifferentTracesDiverge) {
  FleetSession a(serveConfig(50, 3, 0.2, 2));
  FleetSession b(serveConfig(50, 3, 0.3, 2));
  a.sim().run();
  b.sim().run();
  EXPECT_NE(a.sim().traceHash(), b.sim().traceHash());
}

// -------------------------------------------------------------- debug CLI --

TEST(DebugCliTest, ScriptedSessionDrivesTheSimulator) {
  FleetSession session(serveConfig(40, 2, 0.5, 2, 8));
  std::istringstream script(
      "help\n"
      "# a script comment\n"
      "step 2\n"
      "break class solve-done\n"
      "breaks\n"
      "run\n"
      "show shard 0\n"
      "show cache 0\n"
      "show queue 1\n"
      "show node 3\n"
      "clear-breaks\n"
      "run-until 5\n"
      "trace 5\n"
      "stats\n"
      "run\n"
      "quit\n");
  std::ostringstream out;
  DebugCli cli(session, script, out);
  EXPECT_EQ(cli.runLoop(), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("breakpoint 0: class solve-done"), std::string::npos);
  EXPECT_NE(text.find("breakpoint hit"), std::string::npos);
  EXPECT_NE(text.find("solve-done"), std::string::npos);
  EXPECT_NE(text.find("shard 0 @ node 0"), std::string::npos);
  EXPECT_NE(text.find("MB resident"), std::string::npos);
  EXPECT_NE(text.find("pending requests"), std::string::npos);
  EXPECT_NE(text.find("multiplier"), std::string::npos);
  EXPECT_NE(text.find("breakpoints cleared"), std::string::npos);
  EXPECT_NE(text.find("executed events (hash "), std::string::npos);
  EXPECT_NE(text.find("\"cache_hit_rate\""), std::string::npos);
  EXPECT_NE(text.find("event heap exhausted"), std::string::npos);
}

TEST(DebugCliTest, ErrorsAreCountedNotFatal) {
  FleetSession session(serveConfig(10, 2, 0.5, 1, 8));
  std::istringstream script(
      "no-such-command\n"
      "break class bogus\n"
      "show shard 99\n"
      "run\n"
      "quit\n");
  std::ostringstream out;
  DebugCli cli(session, script, out);
  EXPECT_EQ(cli.runLoop(), 3);
  // The run after the errors still drained the simulation.
  EXPECT_EQ(session.serve()->stats().completed, 10u);
}

TEST(DebugCliTest, ShowHealthRendersThePhiDetectorView) {
  FleetSimConfig cfg = serveConfig(40, 2, 0.5, 2, 8);
  cfg.serve.health.enabled = true;
  cfg.serve.health.heartbeatIntervalSeconds = 0.002;
  FleetSession session(cfg);
  std::istringstream script(
      "run\n"
      "show health 0\n"
      "show health 1\n"
      "show health 99\n"
      "quit\n");
  std::ostringstream out;
  DebugCli cli(session, script, out);
  EXPECT_EQ(cli.runLoop(), 1);  // only the out-of-range shard errors
  const std::string text = out.str();
  EXPECT_NE(text.find("state healthy"), std::string::npos) << text;
  EXPECT_NE(text.find("phi"), std::string::npos);
  EXPECT_NE(text.find("heartbeats"), std::string::npos);
  EXPECT_NE(text.find("quarantines 0"), std::string::npos);
  EXPECT_EQ(session.serve()->stats().completed, 40u);
  EXPECT_GT(session.serve()->stats().heartbeats, 0u);
}

// --------------------------------------------------- report + validation --

TEST(ReportTest, JsonCarriesTheCoSimulationPicture) {
  FleetSession session(mixedConfig());
  session.sim().run();
  const FleetSimReport report = session.report();
  const serve::JsonValue doc = serve::JsonValue::parse(report.toJson());
  EXPECT_EQ(doc.get("nodes").asNumber(), 64.0);
  EXPECT_GT(doc.get("events").asNumber(), 0.0);
  EXPECT_TRUE(doc.get("lu").get("finished").asBool());
  EXPECT_EQ(doc.get("serve").get("submitted").asNumber(), 300.0);
  EXPECT_TRUE(doc.get("serve").has("total_ms"));
  EXPECT_EQ(doc.get("serve").get("cache_hits").asNumber() +
                doc.get("serve").get("cache_misses").asNumber(),
            doc.get("serve").get("cache_lookups").asNumber());
}

TEST(ValidationTest, PassesWithinToleranceAndFailsOutside) {
  FleetSession session(serveConfig(24, 3, 0.2, 1, 8));
  session.sim().run();
  const FleetSimReport report = session.report();
  ASSERT_GT(report.total.p50Ms, 0.0);

  // Synthesize a "measured" report 1.5x slower than the simulation.
  const std::string path = "test_fleetsim_measured.json";
  {
    std::ofstream out(path);
    out << "{\"cache_hit_rate\": " << report.serveCounters.hitRate()
        << ", \"total_ms\": {\"p50\": " << report.total.p50Ms * 1.5
        << ", \"p95\": 0, \"p99\": " << report.total.p99Ms * 1.5
        << ", \"max\": 0}}";
  }
  const ValidationResult loose = validateAgainst(
      report, path, /*latencyFactorTol=*/2.0, /*hitRateTol=*/0.05);
  EXPECT_TRUE(loose.pass);
  EXPECT_EQ(loose.lines.size(), 3u);
  const ValidationResult tight = validateAgainst(
      report, path, /*latencyFactorTol=*/1.2, /*hitRateTol=*/0.05);
  EXPECT_FALSE(tight.pass);
  // The JSON form round-trips through the parser.
  const serve::JsonValue doc = serve::JsonValue::parse(loose.toJson());
  EXPECT_TRUE(doc.get("pass").asBool());
  std::remove(path.c_str());
}

// ------------------------------------------------------- cmdFleetsim e2e --

TEST(CmdFleetsimTest, ScriptedEndToEndWritesReport) {
  const std::string scriptPath = "test_fleetsim_cli.script";
  {
    std::ofstream script(scriptPath);
    script << "# CI-style scripted session\n"
              "break class crash\n"
              "run\n"
              "show shard 1\n"
              "clear-breaks\n"
              "run\n"
              "stats\n"
              "quit\n";
  }
  const std::string jsonPath = "test_fleetsim_cli.json";
  const cli::Options opts = cli::Options::parseArgs(
      {"--requests", "120", "--keys", "4", "--gap-ms", "0.2", "--shards",
       "3", "--nodes", "16", "--crash-at-ms", "6", "--crash-shard", "1",
       "--resurrect-at-ms", "14", "--script", scriptPath, "--json",
       jsonPath});
  EXPECT_EQ(cli::cmdFleetsim(opts), 0);

  std::ifstream in(jsonPath);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const serve::JsonValue doc = serve::JsonValue::parse(text.str());
  EXPECT_EQ(doc.get("report").get("serve").get("submitted").asNumber(),
            120.0);
  EXPECT_TRUE(doc.get("validation").isNull());
  std::remove(scriptPath.c_str());
  std::remove(jsonPath.c_str());
}

TEST(CmdFleetsimTest, TopologyFileRoundTrip) {
  const std::string topoPath = "test_fleetsim_topo.conf";
  {
    std::ofstream topo(topoPath);
    topo << "name unit-torus\n"
            "kind torus\n"
            "nodes 27\n"
            "torus-x 3\ntorus-y 3\ntorus-z 3\n"
            "machine frontier\n";
  }
  const cli::Options opts = cli::Options::parseArgs(
      {"--topology", topoPath, "--requests", "30", "--keys", "2",
       "--gap-ms", "0.5", "--shards", "2"});
  EXPECT_EQ(cli::cmdFleetsim(opts), 0);
  std::remove(topoPath.c_str());
}

}  // namespace
}  // namespace hplmxp::fleetsim
