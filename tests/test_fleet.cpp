// Sharded serve fabric: consistent-hash routing, shard health
// (break/drain, crash/failover, resurrection, failed factor jobs, phi
// quarantine), the no-lost-answer ledger, and bitwise equivalence of
// fleet answers across shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/single_solver.h"
#include "gen/matgen.h"
#include "serve/fleet/fleet.h"
#include "serve/json.h"

namespace hplmxp::serve {
namespace {

ProblemKey key(index_t n, index_t b, std::uint64_t seed) {
  ProblemKey k;
  k.n = n;
  k.b = b;
  k.seed = seed;
  return k;
}

SolveRequest request(const ProblemKey& k, std::uint64_t rhsSeed) {
  SolveRequest r;
  r.key = k;
  r.rhsSeed = rhsSeed;
  return r;
}

/// Ground truth for bitwise checks: the same pure single-device path every
/// shard runs (storage rung from the key, solve from the factors).
std::vector<double> soloSolution(const ProblemKey& k, std::uint64_t rhsSeed) {
  const ProblemGenerator gen(k.seed, k.n);
  const Factorization f =
      factorStorageSingle(gen, k.b, Vendor::kAmd, k.precision);
  std::vector<std::vector<double>> xs;
  (void)solveManyMixedSingle(f, gen, {rhsSeed}, xs);
  return xs[0];
}

void expectBitwise(const std::vector<double>& got,
                   const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(double) * want.size()))
      << what;
}

// ----------------------------------------------------------- HashRing --

TEST(HashRingTest, DeterministicAcrossInstances) {
  const HashRing a(3, 64);
  const HashRing b(3, 64);
  EXPECT_EQ(a.points(), 3 * 64);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ProblemKey k = key(64, 16, seed);
    EXPECT_EQ(a.route(k, nullptr), b.route(k, nullptr)) << "seed " << seed;
    EXPECT_EQ(HashRing::hashKey(k), HashRing::hashKey(k));
  }
}

TEST(HashRingTest, SpreadsKeysAcrossShards) {
  const HashRing ring(3, 64);
  std::vector<int> routed(3, 0);
  constexpr int kKeys = 300;
  for (std::uint64_t seed = 0; seed < kKeys; ++seed) {
    const index_t s = ring.route(key(64, 16, seed), nullptr);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 3);
    ++routed[static_cast<std::size_t>(s)];
  }
  for (int s = 0; s < 3; ++s) {
    // 64 virtual nodes keep the split far from degenerate.
    EXPECT_GT(routed[static_cast<std::size_t>(s)], kKeys / 10)
        << "shard " << s;
  }
}

TEST(HashRingTest, RemovingAShardOnlyMovesItsOwnKeys) {
  const HashRing ring(4, 64);
  const auto without1 = [](index_t s) { return s != 1; };
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ProblemKey k = key(64, 16, seed);
    const index_t primary = ring.route(k, nullptr);
    const index_t rerouted = ring.route(k, without1);
    if (primary != 1) {
      // The consistent-hashing property drain/rebalance relies on.
      EXPECT_EQ(rerouted, primary) << "seed " << seed;
    } else {
      EXPECT_NE(rerouted, 1) << "seed " << seed;
    }
  }
}

TEST(HashRingTest, ServeZipfKeysKeepTheirRingPlacement) {
  // serve_zipf's 64 problems (n=256, b=64, seeds 1..64, fp16, 1x1) on the
  // fleet's default 2-shard ring. Every key's ring point and shard are
  // folded into one FNV-1a value, so a hashKey change that moves any key
  // (and with it the benchmark's shard split) fails here.
  const HashRing ring(2, FleetConfig{}.virtualNodes);
  std::uint64_t fold = 0xCBF29CE484222325ull;
  const auto absorb = [&fold](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      fold = (fold ^ ((v >> (8 * byte)) & 0xFFu)) * 0x100000001B3ull;
    }
  };
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    ProblemKey k = key(256, 64, seed);
    k.precision = lowp::StoragePrecision::kFp16;
    absorb(HashRing::hashKey(k));
    absorb(static_cast<std::uint64_t>(ring.route(k, nullptr)));
  }
  EXPECT_EQ(fold, 9637984964054790183ull);
}

// --------------------------------------------------------- FleetEngine --

FleetConfig fleetConfig(index_t shards) {
  FleetConfig cfg;
  cfg.shards = shards;
  return cfg;
}

struct Answer {
  RequestOutcome outcome;
  std::vector<double> solution;
};

/// Replays `requests` through a fresh fleet of `shards` shards, invoking
/// `chaos(fleet, i)` before submitting request i.
std::vector<Answer> replay(
    FleetConfig cfg, const std::vector<SolveRequest>& requests,
    const std::function<void(FleetEngine&, std::size_t)>& chaos = nullptr) {
  FleetEngine fleet(std::move(cfg));
  std::vector<FleetEngine::HandlePtr> handles;
  handles.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (chaos) {
      chaos(fleet, i);
    }
    handles.push_back(fleet.submit(requests[i]));
  }
  fleet.drain();
  const FleetReport report = fleet.report();
  EXPECT_EQ(report.submitted, requests.size());
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.doubleAnswered, 0u);
  EXPECT_TRUE(report.cacheLookupInvariant);
  std::vector<Answer> out;
  out.reserve(handles.size());
  for (const auto& h : handles) {
    out.push_back({h->wait(), h->solution()});
  }
  return out;
}

std::vector<SolveRequest> mixedTrace() {
  std::vector<SolveRequest> reqs;
  const std::vector<ProblemKey> keys = {key(32, 16, 11), key(32, 16, 12),
                                        key(48, 16, 13)};
  std::uint64_t rhs = 500;
  for (int round = 0; round < 3; ++round) {
    for (const ProblemKey& k : keys) {
      reqs.push_back(request(k, ++rhs));
    }
  }
  return reqs;
}

TEST(FleetEngineTest, ShardedReplayIsBitwiseIdenticalToSingleShard) {
  const std::vector<SolveRequest> reqs = mixedTrace();
  const std::vector<Answer> one = replay(fleetConfig(1), reqs);
  const std::vector<Answer> three = replay(fleetConfig(3), reqs);
  ASSERT_EQ(one.size(), reqs.size());
  ASSERT_EQ(three.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(one[i].outcome.status, RequestStatus::kCompleted)
        << one[i].outcome.error;
    ASSERT_EQ(three[i].outcome.status, RequestStatus::kCompleted)
        << three[i].outcome.error;
    expectBitwise(three[i].solution, one[i].solution, "1 vs 3 shards");
    // And both match the pure single-device path outright.
    expectBitwise(one[i].solution,
                  soloSolution(reqs[i].key, reqs[i].rhsSeed), "solo");
  }
}

TEST(FleetEngineTest, RepeatedKeysStickToTheirPlacementShard) {
  FleetConfig cfg = fleetConfig(3);
  FleetEngine fleet(cfg);
  const ProblemKey k = key(32, 16, 21);
  for (std::uint64_t rhs = 1; rhs <= 5; ++rhs) {
    const auto h = fleet.submit(request(k, rhs));
    ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
  }
  fleet.drain();
  const FleetReport report = fleet.report();
  // One factorization in the whole fleet: the ring kept routing the key
  // to its primary, the shard already holding its factors. With no fault,
  // every factor job the shards ran is a cache factorization (perfbench
  // checks the same sums under the names group_jobs and factors).
  std::uint64_t factorCount = 0;
  std::uint64_t factorJobs = 0;
  for (const ShardReport& s : report.perShard) {
    factorCount += s.report.cache.factorCount;
    factorJobs += s.groupJobs;
  }
  EXPECT_EQ(factorCount, 1u);
  EXPECT_EQ(factorJobs, factorCount);
}

TEST(FleetEngineTest, BrokenShardDrainsAndReroutesUntilUnbroken) {
  FleetConfig cfg = fleetConfig(3);
  FleetEngine fleet(cfg);
  const ProblemKey k = key(32, 16, 23);
  const index_t primary = fleet.ring().route(k, nullptr);

  fleet.breakShard(primary);
  EXPECT_FALSE(fleet.shardRoutable(primary));

  const auto h = fleet.submit(request(k, 777));
  ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
  EXPECT_NE(h->wait().shard, primary);
  expectBitwise(h->solution(), soloSolution(k, 777), "rerouted answer");
  fleet.drain();

  FleetReport report = fleet.report();
  EXPECT_GE(report.reroutes, 1u);
  EXPECT_EQ(report.opsBreaks, 1u);
  EXPECT_GE(report.healthTrips, 1u);
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].health,
            "broken");
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].routed, 0u);

  fleet.unbreakShard(primary);
  EXPECT_TRUE(fleet.shardRoutable(primary));
  EXPECT_EQ(fleet.report().perShard[static_cast<std::size_t>(primary)].health,
            "healthy");
}

TEST(FleetEngineTest, OrganicCrashFailsOverThenResurrectionRebalances) {
  FleetConfig cfg = fleetConfig(2);
  cfg.shard.maxRetries = 0;  // the first failed job fails over at once
  cfg.failoverLimit = 2;
  FleetEngine fleet(cfg);
  const ProblemKey k = key(32, 16, 24);
  const index_t primary = fleet.ring().route(k, nullptr);
  const index_t other = 1 - primary;
  const std::vector<double> want = soloSolution(k, 888);

  // The shard dies inside its factor job: an organic death mid-request,
  // not an ops hook between requests.
  fleet.armShardFaults(primary, [&fleet, primary](const ProblemKey&) {
    fleet.crashShard(primary);
    throw CheckError("injected shard crash");
  });

  const auto h = fleet.submit(request(k, 888));
  const RequestOutcome& o = h->wait();
  ASSERT_EQ(o.status, RequestStatus::kCompleted) << o.error;
  EXPECT_EQ(o.shard, other);
  EXPECT_GE(o.failovers, 1);
  expectBitwise(h->solution(), want, "failed-over answer");

  // The death latched: the shard is crashed, not just unlucky.
  EXPECT_FALSE(fleet.shardRoutable(primary));
  FleetReport report = fleet.report();
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_GE(report.failovers, 1u);
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].health,
            "crashed");

  // Resurrection: new generation, hard hold lifted, keyspace routes back.
  fleet.resurrectShard(primary);
  EXPECT_TRUE(fleet.shardRoutable(primary));
  // The resurrected shard takes its whole keyspace back, as the ring rule
  // fleetsim follows says: the failed-over key returns to it and is
  // factored afresh there, though the survivor still holds its factors.
  // Fresh keys in that keyspace route back too, and the fault hook is
  // disarmed.
  const auto h2 = fleet.submit(request(k, 889));
  ASSERT_EQ(h2->wait().status, RequestStatus::kCompleted)
      << h2->wait().error;
  EXPECT_EQ(h2->wait().shard, primary);  // back on the ring primary
  expectBitwise(h2->solution(), soloSolution(k, 889), "post-resurrection");
  ProblemKey fresh = k;
  for (std::uint64_t seed = 100;; ++seed) {
    fresh = key(32, 16, seed);
    if (fleet.ring().route(fresh, nullptr) == primary) {
      break;
    }
  }
  const auto h3 = fleet.submit(request(fresh, 890));
  ASSERT_EQ(h3->wait().status, RequestStatus::kCompleted)
      << h3->wait().error;
  EXPECT_EQ(h3->wait().shard, primary);  // rebalanced back, gen 2 shard
  expectBitwise(h3->solution(), soloSolution(fresh, 890), "rebalanced key");
  fleet.drain();

  report = fleet.report();
  EXPECT_EQ(report.resurrections, 1u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.doubleAnswered, 0u);
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].generation, 2);
}

TEST(FleetEngineTest, FailedFactorJobFailsOverWithoutCrashing) {
  FleetConfig cfg = fleetConfig(2);
  cfg.shard.maxRetries = 0;
  cfg.failoverLimit = 2;
  std::atomic<int> faults{0};
  FleetEngine fleet(cfg);
  const ProblemKey k = key(32, 16, 31);
  const index_t primary = fleet.ring().route(k, nullptr);

  // Every factor job on the primary fails, and the shard stays alive.
  fleet.armShardFaults(primary, [&faults](const ProblemKey&) {
    faults.fetch_add(1);
    throw CheckError("injected factor-job fault");
  });

  const auto h = fleet.submit(request(k, 777));
  const RequestOutcome& o = h->wait();
  ASSERT_EQ(o.status, RequestStatus::kCompleted) << o.error;
  EXPECT_EQ(o.shard, 1 - primary);
  EXPECT_GE(o.failovers, 1);
  EXPECT_GE(faults.load(), 1);
  expectBitwise(h->solution(), soloSolution(k, 777), "failed-over answer");
  fleet.drain();

  const FleetReport report = fleet.report();
  EXPECT_EQ(report.crashes, 0u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.doubleAnswered, 0u);
}

TEST(FleetEngineTest, RepeatedJobFailuresExcludeThenProbeBack) {
  // Factor-job failures are hard evidence: three in a row take the shard
  // out of routing entirely (no fallback reaches it), and once the shard
  // is cured a single probe after the cool-down brings it back.
  FleetConfig cfg = fleetConfig(2);
  cfg.shard.maxRetries = 0;
  cfg.failoverLimit = 2;
  FleetEngine fleet(cfg);
  std::vector<ProblemKey> victims;
  for (std::uint64_t seed = 60; victims.size() < 5; ++seed) {
    const ProblemKey k = key(32, 16, seed);
    if (fleet.ring().route(k, nullptr) == 0) {
      victims.push_back(k);
    }
  }

  // The fault of FailedFactorJobFailsOverWithoutCrashing: every factor
  // job on shard 0 fails while the shard stays alive.
  fleet.armShardFaults(0, [](const ProblemKey&) {
    throw CheckError("injected factor-job fault");
  });

  for (std::size_t i = 0; i < 3; ++i) {
    const auto h = fleet.submit(request(victims[i], 700 + i));
    const RequestOutcome& o = h->wait();
    ASSERT_EQ(o.status, RequestStatus::kCompleted) << o.error;
    EXPECT_EQ(o.shard, 1) << "key " << i;
    EXPECT_EQ(o.failovers, 1) << "key " << i;
  }
  EXPECT_FALSE(fleet.shardRoutable(0));

  // Excluded, not merely deprioritized: the next key goes straight to the
  // survivor without trying its primary first.
  const auto h4 = fleet.submit(request(victims[3], 703));
  ASSERT_EQ(h4->wait().status, RequestStatus::kCompleted) << h4->wait().error;
  EXPECT_EQ(h4->wait().shard, 1);
  EXPECT_EQ(h4->wait().failovers, 0);
  EXPECT_EQ(fleet.report().perShard[0].health, "broken");

  // Cure the shard and outlast the cool-down: the next key for shard 0 is
  // its probe, and the probe's success heals it.
  fleet.armShardFaults(0, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto h5 = fleet.submit(request(victims[4], 704));
  ASSERT_EQ(h5->wait().status, RequestStatus::kCompleted) << h5->wait().error;
  EXPECT_EQ(h5->wait().shard, 0);
  expectBitwise(h5->solution(), soloSolution(victims[4], 704), "probe answer");
  fleet.drain();

  const FleetReport report = fleet.report();
  EXPECT_EQ(report.perShard[0].health, "healthy");
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.doubleAnswered, 0u);
}

TEST(FleetEngineTest, CrashDuringAFactorJobLeavesNothingOnTheDeadShard) {
  // The shard crashes while its factor job runs, and the job itself
  // carries on. Its factors must not reach the cache the crash cleared:
  // the request fails over instead.
  FleetConfig cfg = fleetConfig(2);
  cfg.shard.maxRetries = 0;
  cfg.failoverLimit = 2;
  FleetEngine fleet(cfg);
  const ProblemKey k = key(32, 16, 32);
  const index_t primary = fleet.ring().route(k, nullptr);
  fleet.armShardFaults(primary, [&fleet, primary](const ProblemKey&) {
    fleet.crashShard(primary);
  });

  const auto h = fleet.submit(request(k, 779));
  const RequestOutcome& o = h->wait();
  ASSERT_EQ(o.status, RequestStatus::kCompleted) << o.error;
  EXPECT_EQ(o.shard, 1 - primary);
  EXPECT_GE(o.failovers, 1);
  expectBitwise(h->solution(), soloSolution(k, 779), "failed-over answer");
  fleet.drain();

  EXPECT_EQ(fleet.shardEngine(primary).cache().size(), 0u);
  const FleetReport report = fleet.report();
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].health,
            "crashed");
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.doubleAnswered, 0u);
}

TEST(FleetEngineTest, ChaoticReplayStaysBitwiseAndLosesNoAnswer) {
  const std::vector<SolveRequest> reqs = mixedTrace();
  const std::vector<Answer> clean = replay(fleetConfig(1), reqs);

  FleetConfig cfg = fleetConfig(3);
  cfg.failoverLimit = 2;
  const std::vector<Answer> chaotic = replay(
      cfg, reqs, [&](FleetEngine& fleet, std::size_t i) {
        if (i == reqs.size() / 3) {
          fleet.breakShard(0);
        } else if (i == 2 * reqs.size() / 3) {
          fleet.crashShard(1);
        } else if (i == reqs.size() - 1) {
          fleet.resurrectShard(1);
          fleet.unbreakShard(0);
        }
      });

  ASSERT_EQ(chaotic.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(chaotic[i].outcome.status, RequestStatus::kCompleted)
        << "request " << i << ": " << chaotic[i].outcome.error;
    expectBitwise(chaotic[i].solution, clean[i].solution, "chaotic replay");
  }
}

TEST(FleetEngineTest, WholeFleetDownAnswersStructurallyNotHangs) {
  FleetConfig cfg = fleetConfig(2);
  FleetEngine fleet(cfg);
  fleet.crashShard(0);
  fleet.breakShard(1);
  const auto h = fleet.submit(request(key(32, 16, 25), 1));
  const RequestOutcome& o = h->wait();
  EXPECT_EQ(o.status, RequestStatus::kFailed);
  EXPECT_NE(o.error.find("no healthy shard"), std::string::npos) << o.error;
  fleet.drain();
  const FleetReport report = fleet.report();
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.fleet.failed, 1u);
}

TEST(FleetEngineTest, ReportJsonCarriesTheCiGates) {
  FleetConfig cfg = fleetConfig(2);
  FleetEngine fleet(cfg);
  const auto h = fleet.submit(request(key(32, 16, 26), 5));
  ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
  fleet.drain();
  FleetReport report = fleet.report();
  report.trace = "unit";
  const JsonValue v = JsonValue::parse(report.toJson());
  EXPECT_EQ(v.get("trace").asString(), "unit");
  EXPECT_DOUBLE_EQ(v.get("shards").asNumber(), 2.0);
  EXPECT_DOUBLE_EQ(v.get("dropped").asNumber(), 0.0);
  EXPECT_DOUBLE_EQ(v.get("double_answered").asNumber(), 0.0);
  EXPECT_TRUE(v.get("cache_lookup_invariant").asBool());
  EXPECT_GE(v.get("fleet").get("total_ms").get("p99").asNumber(), 0.0);
  EXPECT_GE(v.get("fleet").get("cache_hit_rate").asNumber(), 0.0);
  EXPECT_GE(v.get("fleet").get("cache_lookups").asNumber(), 1.0);
  ASSERT_EQ(v.get("per_shard").asArray().size(), 2u);
  EXPECT_EQ(v.get("per_shard").asArray()[0].get("health").asString(),
            "healthy");
}

// ------------------------------------------------- gray-failure defense --

TEST(FleetEngineTest, HedgedReplayUnderGrayFailureLosesNoAnswer) {
  // The hedging race, stress-shaped: a slow-but-alive shard (the gray
  // failure) plus an aggressive hedge policy means nearly every request
  // runs as two racing copies. Whichever copy wins, the publish-once
  // Handle must keep the ledger exact — zero dropped, zero double
  // answered — and the answers bitwise right. Repeated to shake races.
  const std::vector<SolveRequest> reqs = mixedTrace();
  // A stretched solve lasts the stretch times the solve itself. Derive the
  // stretch from a solve of the first key, so that a stretched solve
  // outlasts 20 hedge floors however fast solves are.
  const double minDelaySeconds = 0.0005;
  double solveSeconds = 0.0;
  {
    const ProblemKey& k = reqs[0].key;
    const ProblemGenerator gen(k.seed, k.n);
    const Factorization f =
        factorStorageSingle(gen, k.b, Vendor::kAmd, k.precision);
    std::vector<std::vector<double>> xs;
    solveSeconds =
        solveManyMixedSingle(f, gen, {reqs[0].rhsSeed}, xs).solveSeconds;
  }
  const double stretch =
      std::max(25.0, 20.0 * minDelaySeconds / std::max(solveSeconds, 1e-9));
  for (int rep = 0; rep < 3; ++rep) {
    FleetConfig cfg = fleetConfig(3);
    cfg.failoverLimit = 2;
    cfg.hedge.enabled = true;
    cfg.hedge.delayFactor = 0.25;  // hedge long before a stretched solve
    cfg.hedge.minDelaySeconds = minDelaySeconds;
    cfg.hedge.budgetPerSecond = 1000.0;
    cfg.hedge.budgetBurst = 64.0;
    FleetEngine fleet(cfg);
    // Stretch the shard that owns the first key so the gray failure hits
    // live traffic no matter how the ring maps keys this run.
    fleet.slowShard(fleet.ring().route(reqs[0].key, nullptr), stretch);

    std::vector<FleetEngine::HandlePtr> handles;
    handles.reserve(reqs.size());
    for (const SolveRequest& r : reqs) {
      handles.push_back(fleet.submit(r));
    }
    fleet.drain();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_EQ(handles[i]->wait().status, RequestStatus::kCompleted)
          << "rep " << rep << " request " << i << ": "
          << handles[i]->wait().error;
      expectBitwise(handles[i]->solution(),
                    soloSolution(reqs[i].key, reqs[i].rhsSeed),
                    "hedged answer");
    }
    const FleetReport report = fleet.report();
    EXPECT_EQ(report.submitted, reqs.size());
    EXPECT_EQ(report.dropped, 0u) << "rep " << rep;
    EXPECT_EQ(report.doubleAnswered, 0u) << "rep " << rep;
    EXPECT_TRUE(report.cacheLookupInvariant);
    EXPECT_GT(report.hedgesIssued, 0u) << "rep " << rep;
  }
}

TEST(FleetEngineTest, SilentShardIsQuarantinedAndDetoured) {
  // The phi tier at fleet level: shard 0 answers a run of requests, then
  // falls silent. The detector quarantines it, and new routes for its
  // keyspace detour to shard 1 instead of waiting on it. Shard 1 stays
  // cold (fewer heartbeats than minSamples), so phi never judges it; the
  // slow configured cadence keeps the warm-up from tripping the detector,
  // and the long dwell keeps shard 0 quarantined for the rest of the test.
  FleetConfig cfg = fleetConfig(2);
  cfg.healthMonitor.heartbeatIntervalSeconds = 0.100;
  cfg.healthMonitor.quarantineDwellSeconds = 60.0;
  FleetEngine fleet(cfg);
  std::vector<ProblemKey> keys;  // ring primary: shard 0
  for (std::uint64_t seed = 40; keys.size() < 2; ++seed) {
    const ProblemKey k = key(32, 16, seed);
    if (fleet.ring().route(k, nullptr) == 0) {
      keys.push_back(k);
    }
  }

  // Warm shard 0's heartbeat history with completions.
  for (std::uint64_t rhs = 1; rhs <= 6; ++rhs) {
    const auto h = fleet.submit(request(keys[0], rhs));
    ASSERT_EQ(h->wait().status, RequestStatus::kCompleted) << h->wait().error;
    ASSERT_EQ(h->wait().shard, 0);
  }
  // Silence, far past the warmed cadence.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));

  // A key whose ring primary is the quarantined shard detours to its
  // replica — and still answers bitwise right.
  const auto h = fleet.submit(request(keys[1], 321));
  ASSERT_EQ(h->wait().status, RequestStatus::kCompleted) << h->wait().error;
  EXPECT_EQ(h->wait().shard, 1);
  expectBitwise(h->solution(), soloSolution(keys[1], 321), "detoured answer");
  fleet.drain();

  // Quarantine deprioritizes, it does not hard-exclude: the hard tier
  // still admits the shard, so the detector can never starve the fleet.
  EXPECT_TRUE(fleet.shardRoutable(0));
  const FleetReport report = fleet.report();
  EXPECT_EQ(report.quarantines, 1u);
  EXPECT_GE(report.healthDetours, 1u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.perShard[0].healthState, "quarantined");
  EXPECT_GE(report.perShard[0].phi, 0.0);
  EXPECT_EQ(report.perShard[1].healthState, "healthy");
}

TEST(FleetEngineTest, ReportJsonCarriesGrayFailureFields) {
  FleetConfig cfg = fleetConfig(2);
  cfg.hedge.enabled = true;
  FleetEngine fleet(cfg);
  fleet.slowShard(0, 2.0);
  const auto h = fleet.submit(request(key(32, 16, 27), 9));
  ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
  fleet.drain();
  const FleetReport report = fleet.report();
  const JsonValue v = JsonValue::parse(report.toJson());
  EXPECT_DOUBLE_EQ(v.get("ops_slows").asNumber(), 1.0);
  EXPECT_GE(v.get("quarantines").asNumber(), 0.0);
  EXPECT_GE(v.get("health_detours").asNumber(), 0.0);
  EXPECT_GE(v.get("hedges_issued").asNumber(), 0.0);
  EXPECT_GE(v.get("hedge_wins").asNumber(), 0.0);
  EXPECT_GE(v.get("hedge_wasted").asNumber(), 0.0);
  EXPECT_GE(v.get("hedge_denied").asNumber(), 0.0);
  const auto& shards = v.get("per_shard").asArray();
  ASSERT_EQ(shards.size(), 2u);
  double heartbeats = 0.0;
  for (const JsonValue& s : shards) {
    EXPECT_EQ(s.get("health_state").asString(), "healthy");
    EXPECT_GE(s.get("phi").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(s.get("quarantines").asNumber(), 0.0);
    heartbeats += s.get("heartbeats").asNumber();
  }
  // The completion fed the winner shard's heartbeat stream.
  EXPECT_GE(heartbeats, 1.0);
}

}  // namespace
}  // namespace hplmxp::serve
