// Phi-accrual shard health detector: cold-start grace, phi growth under
// heartbeat silence, the healthy -> suspect -> quarantined -> probing ->
// healthy state machine, straggler-strike escalation, probe-quota routing,
// and bitwise determinism of the detector under identical call sequences.
// Also the hard tier (job-failure strikes, ops breaks) and the two-tier
// ring walk the fleet and fleetsim route with.
//
// Everything runs on an explicit clock (the `now` arguments) — no sleeps,
// no wall time — which is the property that lets the fleetsim co-simulate
// this exact component on virtual time.
#include <gtest/gtest.h>

#include <vector>

#include "serve/fleet/health.h"

namespace hplmxp::serve {
namespace {

/// Default-config monitor warmed with `beats` heartbeats at the configured
/// 10ms cadence, starting at t=0. Returns the time of the last heartbeat.
double warmUp(ShardHealthMonitor& mon, index_t shard, int beats) {
  double t = 0.0;
  for (int i = 0; i < beats; ++i) {
    t = i * mon.config().heartbeatIntervalSeconds;
    mon.heartbeat(shard, t);
  }
  return t;
}

TEST(HealthConfigTest, ValidateRejectsDegenerateKnobs) {
  const auto reject = [](auto&& mutate) {
    HealthConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), CheckError);
  };
  reject([](HealthConfig& c) { c.heartbeatIntervalSeconds = 0.0; });
  reject([](HealthConfig& c) { c.windowSize = 1; });
  reject([](HealthConfig& c) { c.minStdDevSeconds = 0.0; });
  reject([](HealthConfig& c) { c.minSamples = 0; });
  reject([](HealthConfig& c) { c.suspectPhi = c.quarantinePhi; });
  reject([](HealthConfig& c) { c.quarantineDwellSeconds = -1.0; });
  reject([](HealthConfig& c) { c.probeQuota = 0; });
  reject([](HealthConfig& c) { c.stragglerStrikes = 0; });
  HealthConfig ok;
  EXPECT_NO_THROW(ok.validate());
}

TEST(ShardHealthMonitorTest, ColdStartCastsNoSuspicion) {
  ShardHealthMonitor mon(HealthConfig{}, 2);
  // No heartbeat ever: phi stays 0 no matter how late the clock reads —
  // an unseeded shard has no cadence to have violated.
  EXPECT_DOUBLE_EQ(mon.phi(0, 10.0), 0.0);
  EXPECT_EQ(mon.state(0, 10.0), HealthState::kHealthy);
  EXPECT_TRUE(mon.routable(0, 10.0));

  // Below minSamples the detector still withholds judgment.
  mon.heartbeat(0, 0.0);
  mon.heartbeat(0, 0.010);
  EXPECT_DOUBLE_EQ(mon.phi(0, 5.0), 0.0);
  EXPECT_EQ(mon.state(0, 5.0), HealthState::kHealthy);
}

TEST(ShardHealthMonitorTest, PhiGrowsMonotonicallyWithSilence) {
  ShardHealthMonitor mon(HealthConfig{}, 1);
  const double last = warmUp(mon, 0, 10);
  double prev = -1.0;
  bool crossedSuspect = false;
  bool crossedQuarantine = false;
  for (double gap = 0.010; gap <= 0.060; gap += 0.002) {
    const double p = mon.phi(0, last + gap);
    EXPECT_GE(p, prev) << "phi fell as the gap grew (gap " << gap << ")";
    prev = p;
    crossedSuspect = crossedSuspect || p >= mon.config().suspectPhi;
    crossedQuarantine = crossedQuarantine || p >= mon.config().quarantinePhi;
  }
  EXPECT_TRUE(crossedSuspect);
  EXPECT_TRUE(crossedQuarantine);
  // A fresh on-cadence heartbeat resets suspicion entirely.
  mon.heartbeat(0, last + 0.010);
  EXPECT_DOUBLE_EQ(mon.phi(0, last + 0.010), 0.0);
}

TEST(ShardHealthMonitorTest, SilenceWalksHealthySuspectQuarantined) {
  ShardHealthMonitor mon(HealthConfig{}, 1);
  const double last = warmUp(mon, 0, 10);
  // On cadence: healthy. ~3ms late: suspicious but not condemned.
  EXPECT_EQ(mon.state(0, last + 0.010), HealthState::kHealthy);
  EXPECT_EQ(mon.state(0, last + 0.013), HealthState::kSuspect);
  EXPECT_TRUE(mon.routable(0, last + 0.013));  // suspect still serves
  // A heartbeat while merely suspect walks straight back to healthy.
  mon.heartbeat(0, last + 0.014);
  EXPECT_EQ(mon.state(0, last + 0.014), HealthState::kHealthy);

  // Twice the cadence of silence: quarantined and unroutable.
  EXPECT_EQ(mon.state(0, last + 0.044), HealthState::kQuarantined);
  EXPECT_FALSE(mon.routable(0, last + 0.045));
  EXPECT_EQ(mon.quarantines(), 1u);
}

TEST(ShardHealthMonitorTest, QuarantineDwellsThenProbesThenHeals) {
  ShardHealthMonitor mon(HealthConfig{}, 1);
  const double last = warmUp(mon, 0, 10);
  const double tQuarantine = last + 0.040;
  ASSERT_EQ(mon.state(0, tQuarantine), HealthState::kQuarantined);

  // Inside the dwell window nothing routes there.
  const double dwell = mon.config().quarantineDwellSeconds;
  EXPECT_FALSE(mon.routable(0, tQuarantine + dwell * 0.5));

  // Past the dwell the shard half-opens: exactly probeQuota (=1) probe
  // is admitted, the rest stay blocked.
  const double tProbe = tQuarantine + dwell + 0.001;
  EXPECT_EQ(mon.state(0, tProbe), HealthState::kProbing);
  EXPECT_TRUE(mon.routable(0, tProbe));
  EXPECT_FALSE(mon.routable(0, tProbe + 0.0001));

  // The probe completing heals the shard — and re-seeds the arrival
  // clock, so the quarantine-sized gap cannot re-trip the detector.
  mon.onOutcome(0, /*success=*/true, tProbe + 0.002);
  EXPECT_EQ(mon.state(0, tProbe + 0.002), HealthState::kHealthy);
  EXPECT_TRUE(mon.routable(0, tProbe + 0.003));
  EXPECT_LT(mon.phi(0, tProbe + 0.004), mon.config().suspectPhi);
}

TEST(ShardHealthMonitorTest, FailedProbeGoesBackToQuarantine) {
  ShardHealthMonitor mon(HealthConfig{}, 1);
  const double last = warmUp(mon, 0, 10);
  const double tQuarantine = last + 0.040;
  ASSERT_EQ(mon.state(0, tQuarantine), HealthState::kQuarantined);
  const double tProbe =
      tQuarantine + mon.config().quarantineDwellSeconds + 0.001;
  ASSERT_EQ(mon.state(0, tProbe), HealthState::kProbing);
  ASSERT_TRUE(mon.routable(0, tProbe));

  mon.onOutcome(0, /*success=*/false, tProbe + 0.002);
  EXPECT_EQ(mon.state(0, tProbe + 0.002), HealthState::kQuarantined);
  EXPECT_FALSE(mon.routable(0, tProbe + 0.003));
  EXPECT_EQ(mon.quarantines(), 2u);
}

TEST(ShardHealthMonitorTest, StragglerStrikesEscalateWithoutSilence) {
  // The SlowRankMonitor path: the shard's heartbeats look fine (it is
  // alive and completing), but its grid keeps producing slow-rank
  // verdicts. Strikes alone must escalate it.
  ShardHealthMonitor mon(HealthConfig{}, 1);  // stragglerStrikes = 2
  const double last = warmUp(mon, 0, 10);

  mon.noteStraggler(0, last + 0.001);
  EXPECT_EQ(mon.state(0, last + 0.002), HealthState::kSuspect);
  // One healthy heartbeat clears the streak and the suspicion.
  mon.heartbeat(0, last + 0.010);
  EXPECT_EQ(mon.state(0, last + 0.011), HealthState::kHealthy);

  // Two consecutive strikes with no heartbeat in between: quarantined.
  mon.noteStraggler(0, last + 0.012);
  mon.noteStraggler(0, last + 0.013);
  EXPECT_EQ(mon.state(0, last + 0.014), HealthState::kQuarantined);
  EXPECT_EQ(mon.quarantines(), 1u);
  EXPECT_EQ(mon.stragglerReports(), 3u);
}

TEST(ShardHealthMonitorTest, ShardsAreJudgedIndependently) {
  ShardHealthMonitor mon(HealthConfig{}, 3);
  double t = 0.0;
  for (int i = 0; i < 10; ++i) {
    t = i * 0.010;
    mon.heartbeat(0, t);
    mon.heartbeat(1, t);
    mon.heartbeat(2, t);
  }
  // Only shard 1 goes silent; its peers keep pulsing.
  for (int i = 10; i < 15; ++i) {
    t = i * 0.010;
    mon.heartbeat(0, t);
    mon.heartbeat(2, t);
  }
  EXPECT_EQ(mon.state(1, t), HealthState::kQuarantined);
  EXPECT_EQ(mon.state(0, t), HealthState::kHealthy);
  EXPECT_EQ(mon.state(2, t), HealthState::kHealthy);
  EXPECT_TRUE(mon.routable(0, t));
  EXPECT_FALSE(mon.routable(1, t));
  EXPECT_EQ(mon.quarantines(), 1u);
}

TEST(ShardHealthMonitorTest, DisabledMonitorNeverIntervenes) {
  HealthConfig cfg;
  cfg.enabled = false;
  ShardHealthMonitor mon(cfg, 2);
  mon.heartbeat(0, 0.0);
  mon.noteStraggler(0, 1.0);
  mon.noteStraggler(0, 2.0);
  mon.onOutcome(0, false, 3.0);
  EXPECT_TRUE(mon.routable(0, 100.0));
  EXPECT_DOUBLE_EQ(mon.phi(0, 100.0), 0.0);
  EXPECT_EQ(mon.state(0, 100.0), HealthState::kHealthy);
  EXPECT_EQ(mon.quarantines(), 0u);
}

TEST(ShardHealthMonitorTest, JobFailureStrikesExcludeEvenWithPhiOff) {
  // Hard evidence needs neither heartbeats nor the soft tier: three failed
  // factor jobs in a row exclude the shard, the dwell admits one probe,
  // and the probe's verdict decides.
  HealthConfig cfg;
  cfg.enabled = false;
  ShardHealthMonitor mon(cfg, 2);
  mon.onJobOutcome(0, false, 0.000);
  mon.onJobOutcome(0, false, 0.001);
  mon.onJobOutcome(0, true, 0.002);  // a success restarts the count
  mon.onJobOutcome(0, false, 0.003);
  mon.onJobOutcome(0, false, 0.004);
  EXPECT_FALSE(mon.excluded(0));
  mon.onJobOutcome(0, false, 0.005);
  EXPECT_TRUE(mon.excluded(0));
  EXPECT_FALSE(mon.routable(0, 0.006));
  EXPECT_EQ(mon.state(0, 0.006), HealthState::kQuarantined);
  EXPECT_EQ(mon.trips(), 1u);
  EXPECT_EQ(mon.quarantines(), 0u);

  const double dwell = cfg.quarantineDwellSeconds;
  const double tProbe = 0.005 + dwell + 0.001;
  EXPECT_TRUE(mon.routable(0, tProbe));
  EXPECT_FALSE(mon.routable(0, tProbe));
  EXPECT_TRUE(mon.excluded(0));  // held until the probe's verdict
  mon.onOutcome(0, /*success=*/false, tProbe + 0.001);
  EXPECT_EQ(mon.state(0, tProbe + 0.001), HealthState::kQuarantined);
  EXPECT_EQ(mon.trips(), 2u);

  const double tProbe2 = tProbe + 0.001 + dwell + 0.001;
  EXPECT_TRUE(mon.routable(0, tProbe2));
  mon.onOutcome(0, /*success=*/true, tProbe2 + 0.001);
  EXPECT_FALSE(mon.excluded(0));
  EXPECT_EQ(mon.state(0, tProbe2 + 0.002), HealthState::kHealthy);
  EXPECT_TRUE(mon.routable(1, tProbe2));  // shard 1 never noticed
}

TEST(ShardHealthMonitorTest, OpsBreakHoldsPastTheDwellUntilReleased) {
  ShardHealthMonitor mon(HealthConfig{}, 2);
  const double last = warmUp(mon, 0, 10);
  mon.breakShard(0, last);
  EXPECT_TRUE(mon.excluded(0));
  // Far past any dwell: no probe is admitted.
  EXPECT_FALSE(mon.routable(0, last + 60.0));
  EXPECT_EQ(mon.state(0, last + 60.0), HealthState::kQuarantined);
  // Release heals at once, and the hold's silence does not trip phi.
  mon.release(0, last + 60.0);
  EXPECT_FALSE(mon.excluded(0));
  EXPECT_EQ(mon.state(0, last + 60.001), HealthState::kHealthy);
  EXPECT_TRUE(mon.routable(0, last + 60.001));
  EXPECT_EQ(mon.trips(), 1u);
  EXPECT_EQ(mon.quarantines(), 0u);
}

TEST(ShardHealthMonitorTest, RouteFallsBackPastQuarantineButNotExclusion) {
  const HashRing ring(2, 64);
  ProblemKey k;
  k.n = 64;
  k.b = 16;
  while (ring.route(k, nullptr) != 0) {
    ++k.seed;
  }
  ShardHealthMonitor mon(HealthConfig{}, 2);
  mon.noteStraggler(0, 0.0);
  mon.noteStraggler(0, 0.0);  // two strikes: a soft quarantine
  ASSERT_EQ(mon.state(0, 0.0), HealthState::kQuarantined);
  const auto all = [](index_t) { return true; };
  const auto only0 = [](index_t s) { return s == 0; };

  // Steered off the quarantined primary, and counted as a detour.
  EXPECT_EQ(mon.route(ring, k, all, 0.001), 1);
  EXPECT_EQ(mon.detours(), 1u);
  // With no other shard alive, quarantine never starves the key...
  EXPECT_EQ(mon.route(ring, k, only0, 0.001), 0);
  // ...but hard evidence does exclude the shard.
  mon.breakShard(0, 0.002);
  EXPECT_EQ(mon.route(ring, k, only0, 0.003), -1);
  EXPECT_EQ(mon.detours(), 1u);
}

TEST(ShardHealthMonitorTest, SnapshotCarriesTheOpsPicture) {
  ShardHealthMonitor mon(HealthConfig{}, 2);
  const double last = warmUp(mon, 0, 8);
  const ShardHealthMonitor::ShardSnapshot healthy =
      mon.shardSnapshot(0, last + 0.005);
  EXPECT_EQ(healthy.shard, 0);
  EXPECT_EQ(healthy.state, HealthState::kHealthy);
  EXPECT_EQ(healthy.heartbeats, 8u);
  EXPECT_NEAR(healthy.lastHeartbeatAge, 0.005, 1e-12);
  EXPECT_NEAR(healthy.meanIntervalSeconds, 0.010, 1e-3);
  EXPECT_EQ(healthy.quarantines, 0u);

  const ShardHealthMonitor::ShardSnapshot dead =
      mon.shardSnapshot(0, last + 0.040);
  EXPECT_EQ(dead.state, HealthState::kQuarantined);
  EXPECT_GE(dead.phi, mon.config().quarantinePhi);
  EXPECT_EQ(dead.quarantines, 1u);

  ASSERT_EQ(mon.snapshot(last + 0.041).size(), 2u);
  EXPECT_EQ(mon.snapshot(last + 0.041)[1].heartbeats, 0u);

  EXPECT_STREQ(toString(HealthState::kHealthy), "healthy");
  EXPECT_STREQ(toString(HealthState::kSuspect), "suspect");
  EXPECT_STREQ(toString(HealthState::kQuarantined), "quarantined");
  EXPECT_STREQ(toString(HealthState::kProbing), "probing");
}

TEST(ShardHealthMonitorTest, IdenticalCallSequencesAreBitwiseIdentical) {
  // The detector feeds a deterministic co-simulation (golden trace
  // hashes), so its arithmetic must be a pure function of the call
  // sequence — identical inputs, bitwise-identical phi.
  const auto drive = [](ShardHealthMonitor& mon) {
    double t = 0.0;
    // Jittered but deterministic cadence.
    for (int i = 0; i < 40; ++i) {
      t += 0.008 + 0.004 * ((i * 7) % 3);
      mon.heartbeat(0, t);
    }
    return t;
  };
  ShardHealthMonitor a(HealthConfig{}, 1);
  ShardHealthMonitor b(HealthConfig{}, 1);
  const double ta = drive(a);
  const double tb = drive(b);
  ASSERT_EQ(ta, tb);
  for (double gap = 0.001; gap < 0.050; gap += 0.003) {
    EXPECT_EQ(a.phi(0, ta + gap), b.phi(0, tb + gap)) << "gap " << gap;
    EXPECT_EQ(a.state(0, ta + gap), b.state(0, tb + gap)) << "gap " << gap;
  }
}

}  // namespace
}  // namespace hplmxp::serve
