// Operational tooling: progress monitoring / early termination and the
// slow-node scanner (Sec. VI-B best practices).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "core/dist_context.h"
#include "core/hplai.h"
#include "core/lu_dist.h"
#include "device/shim.h"
#include "gen/matgen.h"
#include "machine/variability.h"
#include "simmpi/runtime.h"
#include "trace/progress.h"
#include "trace/reference.h"
#include "trace/slow_node.h"
#include "util/buffer.h"
#include "util/stats.h"

namespace hplmxp {
namespace {

TEST(ProgressMonitor, HealthyRunNeverTerminates) {
  ProgressMonitor mon(ProgressPolicy{}, [](index_t) { return 0.010; });
  for (index_t k = 0; k < 100; ++k) {
    EXPECT_EQ(mon.observe(k, 0.011), ProgressVerdict::kHealthy);
  }
  EXPECT_FALSE(mon.terminated());
}

TEST(ProgressMonitor, TerminatesAfterConsecutiveSlowIterations) {
  ProgressMonitor mon(
      ProgressPolicy{.slowdownFactor = 2.0, .strikes = 3},
      [](index_t) { return 0.010; });
  EXPECT_EQ(mon.observe(0, 0.050), ProgressVerdict::kSlow);
  EXPECT_EQ(mon.observe(1, 0.050), ProgressVerdict::kSlow);
  EXPECT_EQ(mon.observe(2, 0.050), ProgressVerdict::kTerminate);
  EXPECT_TRUE(mon.terminated());
  // Stays terminated.
  EXPECT_EQ(mon.observe(3, 0.001), ProgressVerdict::kTerminate);
}

TEST(ProgressMonitor, RecoveryResetsStrikes) {
  // A transient hiccup (e.g. one congested iteration) must not kill an
  // otherwise healthy run.
  ProgressMonitor mon(
      ProgressPolicy{.slowdownFactor = 2.0, .strikes = 3},
      [](index_t) { return 0.010; });
  EXPECT_EQ(mon.observe(0, 0.050), ProgressVerdict::kSlow);
  EXPECT_EQ(mon.observe(1, 0.050), ProgressVerdict::kSlow);
  EXPECT_EQ(mon.observe(2, 0.010), ProgressVerdict::kHealthy);
  EXPECT_EQ(mon.consecutiveSlow(), 0);
  EXPECT_EQ(mon.observe(3, 0.050), ProgressVerdict::kSlow);
  EXPECT_FALSE(mon.terminated());
}

TEST(ProgressMonitor, MissingReferenceDisablesCheck) {
  ProgressMonitor mon(ProgressPolicy{.strikes = 1},
                      [](index_t k) { return k < 5 ? -1.0 : 0.010; });
  EXPECT_EQ(mon.observe(0, 99.0), ProgressVerdict::kHealthy);
  EXPECT_EQ(mon.observe(5, 99.0), ProgressVerdict::kTerminate);
}

TEST(ProgressMonitor, ReportLineContainsComponents) {
  ProgressMonitor mon(ProgressPolicy{}, nullptr);
  IterationTrace t;
  t.k = 12;
  t.trailingBlocks = 88;
  t.gemmSeconds = 0.5;
  const std::string line = mon.reportLine(t);
  EXPECT_NE(line.find("iter"), std::string::npos);
  EXPECT_NE(line.find("gemm"), std::string::npos);
  EXPECT_NE(line.find("500.000"), std::string::npos);  // ms formatting
}

TEST(SlowNodeScanner, FlagsDegradedDies) {
  // Simulated fleet with 2% degraded dies: the scanner must flag exactly
  // the degraded ones (their penalty is far below the healthy spread).
  const GcdVariability v(VariabilityConfig{
      .seed = 9, .spread = 0.05, .slowFraction = 0.02, .slowPenalty = 0.3});
  const index_t fleet = 2000;
  std::vector<double> rates;
  std::vector<index_t> expectedFlagged;
  for (index_t i = 0; i < fleet; ++i) {
    rates.push_back(100.0 * v.multiplier(i));
    if (v.isDegraded(i)) {
      expectedFlagged.push_back(i);
    }
  }
  const SlowNodeScanner scanner(ScanPolicy{.threshold = 0.90});
  const ScanReport report = scanner.scan(rates);
  EXPECT_EQ(report.flagged, expectedFlagged);
  // Healthy fleet spread ~5% (Sec. VI-B observation).
  ASSERT_FALSE(expectedFlagged.empty());
  EXPECT_GT(report.keptMinRate, 0.90 * report.median);
}

TEST(SlowNodeScanner, CleanFleetFlagsNothing) {
  const GcdVariability v(VariabilityConfig{.seed = 2, .spread = 0.05});
  std::vector<double> rates;
  for (index_t i = 0; i < 500; ++i) {
    rates.push_back(50.0 * v.multiplier(i));
  }
  const ScanReport report = SlowNodeScanner().scan(rates);
  EXPECT_TRUE(report.flagged.empty());
  EXPECT_NEAR(report.spreadPercent, 5.0, 1.0);
}

TEST(SlowNodeScanner, ExclusionImprovesPipelinePace) {
  // The point of scanning: after excluding flagged dies, the slowest kept
  // die (which paces the synchronous pipeline) is much faster.
  const GcdVariability v(VariabilityConfig{
      .seed = 4, .spread = 0.05, .slowFraction = 0.01, .slowPenalty = 0.25});
  std::vector<double> rates;
  for (index_t i = 0; i < 3000; ++i) {
    rates.push_back(v.multiplier(i));
  }
  const ScanReport report = SlowNodeScanner().scan(rates);
  ASSERT_FALSE(report.flagged.empty());
  const double unscannedMin = summarize(rates).min;
  EXPECT_GT(report.keptMinRate, unscannedMin * 1.15);
}

TEST(SlowNodeScanner, MiniBenchmarkMeasuresRealKernel) {
  // The mini-benchmark is the actual single-device LU; it must produce a
  // positive, repeatable-order rate.
  const double rate = runMiniBenchmark(128, 32, Vendor::kAmd);
  EXPECT_GT(rate, 1e6);  // > 1 MFLOP/s on any machine
}

TEST(SlowNodeScanner, RejectsEmptyAndBadPolicy) {
  EXPECT_THROW(SlowNodeScanner().scan({}), CheckError);
  EXPECT_THROW(SlowNodeScanner(ScanPolicy{.threshold = 1.5}), CheckError);
}

TEST(ProgressIntegration, MonitorAbortsFunctionalDistributedRun) {
  // Wire a ProgressMonitor into the real distributed factorization with an
  // impossible reference time: the run must stop early and collectively on
  // every rank (Sec. VI-B early termination).
  HplaiConfig cfg;
  cfg.n = 128;
  cfg.b = 16;
  cfg.pr = 2;
  cfg.pc = 2;
  const index_t nb = cfg.n / cfg.b;
  std::vector<index_t> stepsPerRank(static_cast<std::size_t>(4), -1);
  simmpi::run(cfg.worldSize(), [&](simmpi::Comm& world) {
    DistContext ctx(world, cfg);
    ProblemGenerator gen(cfg.seed, cfg.n);
    Buffer<float> local(ctx.localRows() * ctx.localCols());
    const BlockCyclic& layout = ctx.layout();
    for (index_t lj = 0; lj < ctx.localCols() / cfg.b; ++lj) {
      for (index_t li = 0; li < ctx.localRows() / cfg.b; ++li) {
        gen.fillTile<float>(layout.globalBlockRow(ctx.myRow(), li) * cfg.b,
                            layout.globalBlockCol(ctx.myCol(), lj) * cfg.b,
                            cfg.b, cfg.b,
                            local.data() + li * cfg.b +
                                lj * cfg.b * ctx.localRows(),
                            ctx.localRows());
      }
    }
    BlasShim shim(cfg.vendor);
    DistLU lu(ctx, cfg, shim);
    // Reference of ~0 seconds: everything looks catastrophically slow.
    ProgressMonitor monitor(
        ProgressPolicy{.slowdownFactor = 2.0, .strikes = 2},
        [](index_t) { return 1e-12; });
    lu.setProgressCallback([&](index_t k, double seconds) {
      return monitor.observe(k, seconds) == ProgressVerdict::kTerminate;
    });
    lu.factor(local.data(), ctx.localRows());
    EXPECT_TRUE(lu.aborted());
    stepsPerRank[static_cast<std::size_t>(world.rank())] =
        lu.stepsCompleted();
  });
  // Strikes=2 -> terminated after 2 steps, on every rank identically.
  for (index_t s : stepsPerRank) {
    EXPECT_EQ(s, 2);
  }
  EXPECT_LT(stepsPerRank[0], nb);
}

TEST(ReferenceTrace, SaveLoadRoundTrips) {
  std::vector<IterationTrace> trace(3);
  for (index_t k = 0; k < 3; ++k) {
    auto& t = trace[static_cast<std::size_t>(k)];
    t.k = k;
    t.trailingBlocks = 2 - k;
    t.diagSeconds = 0.001 * static_cast<double>(k + 1);
    t.trsmSeconds = 0.002;
    t.castSeconds = 0.0005;
    t.bcastSeconds = 0.003;
    t.gemmSeconds = 0.02 / static_cast<double>(k + 1);
  }
  const std::string path = "/tmp/hplmxp_test_reference.csv";
  saveReferenceTrace(path, trace);
  const auto loaded = loadReferenceTrace(path);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].k, trace[i].k);
    EXPECT_EQ(loaded[i].trailingBlocks, trace[i].trailingBlocks);
    EXPECT_DOUBLE_EQ(loaded[i].gemmSeconds, trace[i].gemmSeconds);
    EXPECT_DOUBLE_EQ(iterationSeconds(loaded[i]),
                     iterationSeconds(trace[i]));
  }
  std::remove(path.c_str());
}

TEST(ReferenceTrace, LoadRejectsGarbage) {
  EXPECT_THROW(loadReferenceTrace("/nonexistent/ref.csv"), CheckError);
  const std::string path = "/tmp/hplmxp_bad_reference.csv";
  {
    std::ofstream f(path);
    f << "wrong,header\n1,2,3\n";
  }
  EXPECT_THROW(loadReferenceTrace(path), CheckError);
  std::remove(path.c_str());
}

TEST(ReferenceTrace, FunctionCoversRecordedRangeOnly) {
  std::vector<IterationTrace> trace(2);
  trace[0].gemmSeconds = 0.5;
  trace[1].gemmSeconds = 0.25;
  const auto ref = referenceFromTrace(trace);
  EXPECT_DOUBLE_EQ(ref(0), 0.5);
  EXPECT_DOUBLE_EQ(ref(1), 0.25);
  EXPECT_LT(ref(2), 0.0);   // beyond the recording: unmonitored
  EXPECT_LT(ref(-1), 0.0);
}

TEST(ReferenceTrace, DrivesAbortThroughRunHplai) {
  // Record a healthy run, then monitor a second run against a reference
  // scaled down 1000x: it must abort early and report it.
  HplaiConfig cfg;
  cfg.n = 128;
  cfg.b = 16;
  cfg.pr = 2;
  cfg.pc = 2;
  cfg.collectTrace = true;
  const HplaiResult healthy = runHplai(cfg);
  ASSERT_FALSE(healthy.trace.empty());

  auto tight = healthy.trace;
  for (auto& t : tight) {
    t.diagSeconds /= 1000.0;
    t.trsmSeconds /= 1000.0;
    t.castSeconds /= 1000.0;
    t.bcastSeconds /= 1000.0;
    t.gemmSeconds /= 1000.0;
  }
  auto monitor = std::make_shared<ProgressMonitor>(
      ProgressPolicy{.slowdownFactor = 1.5, .strikes = 2},
      referenceFromTrace(tight));
  cfg.progressCallback = [monitor](index_t k, double seconds) {
    return monitor->observe(k, seconds) == ProgressVerdict::kTerminate;
  };
  const HplaiResult watched = runHplai(cfg);
  EXPECT_TRUE(watched.aborted);
  EXPECT_FALSE(watched.converged);

  // With the true reference the same run completes.
  auto okMonitor = std::make_shared<ProgressMonitor>(
      ProgressPolicy{.slowdownFactor = 50.0, .strikes = 3},
      referenceFromTrace(healthy.trace));
  cfg.progressCallback = [okMonitor](index_t k, double seconds) {
    return okMonitor->observe(k, seconds) == ProgressVerdict::kTerminate;
  };
  const HplaiResult ok = runHplai(cfg);
  EXPECT_FALSE(ok.aborted);
  EXPECT_TRUE(ok.converged);
}

TEST(ProgressIntegration, HealthyRunCompletesWithMonitorAttached) {
  HplaiConfig cfg;
  cfg.n = 96;
  cfg.b = 16;
  cfg.pr = 2;
  cfg.pc = 2;
  simmpi::run(cfg.worldSize(), [&](simmpi::Comm& world) {
    DistContext ctx(world, cfg);
    ProblemGenerator gen(cfg.seed, cfg.n);
    Buffer<float> local(ctx.localRows() * ctx.localCols());
    const BlockCyclic& layout = ctx.layout();
    for (index_t lj = 0; lj < ctx.localCols() / cfg.b; ++lj) {
      for (index_t li = 0; li < ctx.localRows() / cfg.b; ++li) {
        gen.fillTile<float>(layout.globalBlockRow(ctx.myRow(), li) * cfg.b,
                            layout.globalBlockCol(ctx.myCol(), lj) * cfg.b,
                            cfg.b, cfg.b,
                            local.data() + li * cfg.b +
                                lj * cfg.b * ctx.localRows(),
                            ctx.localRows());
      }
    }
    BlasShim shim(cfg.vendor);
    DistLU lu(ctx, cfg, shim);
    ProgressMonitor monitor(ProgressPolicy{},
                            [](index_t) { return 3600.0; });  // generous
    lu.setProgressCallback([&](index_t k, double seconds) {
      return monitor.observe(k, seconds) == ProgressVerdict::kTerminate;
    });
    lu.factor(local.data(), ctx.localRows());
    EXPECT_FALSE(lu.aborted());
    EXPECT_EQ(lu.stepsCompleted(), cfg.n / cfg.b);
  });
}

}  // namespace
}  // namespace hplmxp
