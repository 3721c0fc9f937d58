// Kernel flop-rate models and the Eq. 1-5 analytic bounds: the paper's
// tuning conclusions must fall out of the model (B selection, N_L
// selection, LDA pathology, GETRF-on-the-critical-path behaviour).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "perfmodel/autotune.h"
#include "perfmodel/kernel_model.h"
#include "perfmodel/param_search.h"
#include "perfmodel/runtime_model.h"

namespace hplmxp {
namespace {

TEST(KernelModel, RatesAreBoundedByPeaks) {
  for (MachineKind kind : {MachineKind::kSummit, MachineKind::kFrontier}) {
    const KernelModel m(kind);
    const MachineSpec& spec = machineSpec(kind);
    for (double size : {128.0, 1024.0, 8192.0, 65536.0}) {
      const double r = m.gemmRate(size, size, 1024.0);
      EXPECT_GT(r, 0.0);
      EXPECT_LE(r, spec.fp16TflopsPerGcd * 1e12);
      EXPECT_LE(m.gemm64Rate(size, size, 256.0),
                spec.fp64TflopsPerGcd * 1e12);
    }
  }
}

TEST(KernelModel, GemmRateGrowsWithBlockSize) {
  // Fig. 5/6: every kernel's rate grows with B at fixed trailing size.
  for (MachineKind kind : {MachineKind::kSummit, MachineKind::kFrontier}) {
    const KernelModel m(kind);
    double prev = 0.0;
    for (double b : {256.0, 512.0, 1024.0, 2048.0, 4096.0}) {
      const double r = m.gemmRate(30000.0, 30000.0, b);
      EXPECT_GT(r, prev) << toString(kind) << " b=" << b;
      prev = r;
    }
    EXPECT_GT(m.getrfRate(2048.0), m.getrfRate(512.0));
    EXPECT_GT(m.trsmRate(2048.0, 30000.0), m.trsmRate(512.0, 30000.0));
  }
}

TEST(KernelModel, Mi250xNeedsLargerBlocksThanV100) {
  // The structural reason B=3072 on Frontier vs 768-1024 on Summit: at
  // small B the V100 is much closer to its peak than the MI250X.
  const KernelModel v100(MachineKind::kSummit);
  const KernelModel mi250x(MachineKind::kFrontier);
  // Isolate the B (k-dimension) effect with saturated m/n extents.
  const double big = 2e5;
  const double fracV100 = v100.gemmRate(big, big, 768) / v100.gemmPeak();
  const double fracMi = mi250x.gemmRate(big, big, 768) / mi250x.gemmPeak();
  EXPECT_GT(fracV100, 0.80);
  EXPECT_LT(fracMi, 0.70);
  // At B=3072 the MI250X has largely caught up.
  EXPECT_GT(mi250x.gemmRate(big, big, 3072) / mi250x.gemmPeak(), 0.75);
  EXPECT_GT(mi250x.gemmRate(big, big, 3072),
            1.15 * mi250x.gemmRate(big, big, 768));
}

TEST(KernelModel, LdaPathologyOnlyOnMi250x) {
  // Fig. 7: LDA = 122880 is significantly slower; 119808 is not; the V100
  // model has no such sensitivity.
  const KernelModel mi250x(MachineKind::kFrontier);
  const double good = mi250x.gemmRate(60000, 60000, 3072, 119808);
  const double bad = mi250x.gemmRate(60000, 60000, 3072, 122880);
  EXPECT_LT(bad, 0.75 * good);
  const KernelModel v100(MachineKind::kSummit);
  EXPECT_DOUBLE_EQ(v100.gemmRate(30000, 30000, 768, 122880),
                   v100.gemmRate(30000, 30000, 768, 119808));
  EXPECT_TRUE(isPathologicalLda(122880));
  EXPECT_FALSE(isPathologicalLda(119808));
  EXPECT_FALSE(isPathologicalLda(4096));  // small strides are fine
}

TEST(KernelModel, AlignmentBandsInHeatMap) {
  // Fig. 3 / Finding 2: peak rate is not uniformly achievable; tile-
  // aligned sizes are faster.
  const KernelModel m(MachineKind::kFrontier);
  const double aligned = m.gemmRate(20000, 20000, 3072);
  const double misaligned = m.gemmRate(20000, 20000, 3000);
  EXPECT_GT(aligned, misaligned);
}

TEST(KernelModel, RocsolverGetrfUnderperforms) {
  // Finding 3: the critical-path GETRF is relatively slower on Frontier.
  const KernelModel v100(MachineKind::kSummit);
  const KernelModel mi250x(MachineKind::kFrontier);
  EXPECT_GT(v100.getrfRate(1024) / v100.gemmPeak(),
            mi250x.getrfRate(1024) / mi250x.gemmPeak());
}

TEST(RuntimeModel, SerialBoundDecomposes) {
  const KernelModel m(MachineKind::kSummit);
  const double t = serialIterationBound(m, 61440, 768);
  EXPECT_GT(t, 0.0);
  // GEMM dominates the serial iteration at realistic sizes.
  const double gemmOnly =
      61440.0 * 61440.0 * 768.0 / m.gemmRate(61440, 61440, 768);
  EXPECT_GT(gemmOnly / t, 0.5);
}

TEST(RuntimeModel, ParallelBoundTermsScaleWithGrid) {
  const KernelModel m(MachineKind::kFrontier);
  ModelInput in{.n = 119808 * 8, .b = 3072, .pr = 8, .pc = 8, .nbb = 10e9};
  const ParallelBound b8 = projectedParallelBound(m, in);
  in.pr = in.pc = 16;
  in.n = 119808 * 16;
  const ParallelBound b16 = projectedParallelBound(m, in);
  // GETRF term grows with N (it is serial across the critical path).
  EXPECT_GT(b16.getrf, b8.getrf);
  // Look-ahead total is never worse than the plain sum.
  EXPECT_LE(b8.totalWithLookahead(), b8.total());
  EXPECT_LE(b16.totalWithLookahead(), b16.total());
}

TEST(RuntimeModel, LookaheadBoundNeverExceedsThePlainSum) {
  // Look-ahead hides the panel broadcast behind the GEMM, so at every
  // size it is never worse than the plain sum of the phases, and GETRF
  // and the GEMM itself always stay on the critical path.
  const KernelModel m(MachineKind::kFrontier);
  for (const index_t p : {4, 8, 16}) {
    ModelInput in{.n = 119808 * p, .b = 3072, .pr = p, .pc = p,
                  .nbb = 10e9};
    const ParallelBound b = projectedParallelBound(m, in);
    EXPECT_LE(b.totalWithLookahead(), b.total());
    EXPECT_GE(b.totalWithLookahead(), b.getrf + b.gemm);
  }
}

TEST(RuntimeModel, Eq5PrefersBalancedGrids) {
  ModelInput in{.n = 958464, .b = 3072, .pr = 8, .pc = 8, .nbb = 10e9};
  const ProcessGrid balanced = ProcessGrid::nodeLocal(8, 8, 2, 4);
  const ProcessGrid skinny = ProcessGrid::nodeLocal(8, 8, 8, 1);
  EXPECT_LT(interNodeCommTime(in, balanced, 25e9),
            interNodeCommTime(in, skinny, 25e9));
}

TEST(RuntimeModel, EffectiveRateConvention) {
  // (2/3 N^3 + 3/2 N^2) / (P * t).
  const double r = effectiveRatePerGcd(1000, 10, 2.0);
  EXPECT_DOUBLE_EQ(
      r, ((2.0 / 3.0) * 1e9 + 1.5 * 1e6) / 20.0);
}

TEST(ParamSearch, PicksPaperBlockSizes) {
  // Summit: B = 768 or 1024; Frontier: B = 3072.
  {
    const KernelModel m(MachineKind::kSummit);
    ModelInput in{.n = 61440 * 54, .b = 0, .pr = 54, .pc = 54, .nbb = 4e9};
    const BSearchResult r = searchBlockSize(m, in);
    EXPECT_TRUE(r.bestB == 768 || r.bestB == 1024)
        << "Summit best B = " << r.bestB;
  }
  {
    const KernelModel m(MachineKind::kFrontier);
    ModelInput in{.n = 119808 * 32, .b = 0, .pr = 32, .pc = 32, .nbb = 8e9};
    const BSearchResult r = searchBlockSize(m, in);
    EXPECT_EQ(r.bestB, 3072) << "Frontier best B = " << r.bestB;
  }
}

TEST(ParamSearch, AdmissibilityBoundsBlockSizeBothWays) {
  // The selection rule rejects small B (GEMM far below its plateau) AND
  // huge B (GETRF exceeds 5% of the per-iteration GEMM — the critical
  // path rule of Sec. V-C).
  const KernelModel m(MachineKind::kFrontier);
  ModelInput in{.n = 119808 * 32, .b = 0, .pr = 32, .pc = 32, .nbb = 8e9};
  const BSearchResult r = searchBlockSize(m, in, {256, 3072, 4096});
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_FALSE(r.entries[0].admissible) << "B=256: GEMM too far off peak";
  EXPECT_TRUE(r.entries[1].admissible);
  EXPECT_FALSE(r.entries[2].admissible) << "B=4096: GETRF over 5% of GEMM";
  EXPECT_GT(r.entries[2].getrfOverGemm, 0.05);
  EXPECT_LT(r.entries[1].getrfOverGemm, 0.05);
}

TEST(KernelModelCalibrate, MeasuredCurvesReplaceAnalyticOnes) {
  KernelModel m(MachineKind::kFrontier);
  EXPECT_FALSE(m.calibrated());

  MeasuredKernelCurves curves;
  // Deliberately unsorted: calibrate() must sort by size.
  curves.gemm = {{1024.0, 40e9}, {128.0, 4e9}, {512.0, 20e9}};
  curves.getrf = {{256.0, 2e9}, {64.0, 0.5e9}};
  m.calibrate(curves);
  ASSERT_TRUE(m.calibrated());

  // Exact sample points come back verbatim (gemm keys on cbrt(m*n*k)).
  EXPECT_DOUBLE_EQ(m.gemmRate(128.0, 128.0, 128.0), 4e9);
  EXPECT_DOUBLE_EQ(m.gemmRate(1024.0, 1024.0, 1024.0), 40e9);
  EXPECT_DOUBLE_EQ(m.getrfRate(64.0), 0.5e9);

  // Clamped outside the measured range, monotone-bounded inside it.
  EXPECT_DOUBLE_EQ(m.gemmRate(16.0, 16.0, 16.0), 4e9);
  EXPECT_DOUBLE_EQ(m.gemmRate(8192.0, 8192.0, 8192.0), 40e9);
  const double mid = m.gemmRate(256.0, 256.0, 256.0);
  EXPECT_GT(mid, 4e9);
  EXPECT_LT(mid, 20e9);

  // The trsm curve was left empty: that kernel keeps its analytic rate.
  const KernelModel analytic(MachineKind::kFrontier);
  EXPECT_DOUBLE_EQ(m.trsmRate(512.0, 4096.0), analytic.trsmRate(512.0, 4096.0));

  // Calibrated rates ignore the vendor LDA pathology: the measurement IS
  // the ground truth for this host.
  EXPECT_DOUBLE_EQ(m.gemmRate(512.0, 512.0, 512.0, 122880),
                   m.gemmRate(512.0, 512.0, 512.0, 0));
}

TEST(Autotune, SweepInstallsABlockingAndMeasuresRates) {
  ThreadPool pool(2);
  const blas::GemmBlocking before = blas::gemmBlocking();
  const GemmTuneResult r = autotuneGemmBlocking(96, &pool, 1);
  EXPECT_EQ(r.problemSize, 96);
  EXPECT_EQ(r.candidatesTried, 27);
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_GE(r.gflops, r.baseline);
  // The winner is installed process-wide.
  EXPECT_EQ(blas::gemmBlocking().mc, r.blocking.mc);
  EXPECT_EQ(blas::gemmBlocking().nc, r.blocking.nc);
  EXPECT_EQ(blas::gemmBlocking().kc, r.blocking.kc);
  blas::setGemmBlocking(before);
}

TEST(Autotune, MeasuredCurvesFeedCalibration) {
  ThreadPool pool(2);
  const MeasuredKernelCurves curves = measureKernelCurves({32, 64}, &pool, 1);
  ASSERT_EQ(curves.gemm.size(), 2u);
  ASSERT_EQ(curves.getrf.size(), 2u);
  ASSERT_EQ(curves.trsm.size(), 2u);
  for (const auto& vec : {curves.gemm, curves.getrf, curves.trsm}) {
    for (const auto& s : vec) {
      EXPECT_GT(s.rate, 0.0);
    }
  }
  KernelModel m(MachineKind::kSummit);
  m.calibrate(curves);
  EXPECT_TRUE(m.calibrated());
  EXPECT_DOUBLE_EQ(m.gemmRate(32.0, 32.0, 32.0), curves.gemm[0].rate);
}

TEST(Autotune, TuneTableRoundTripsThroughDisk) {
  GemmTuneResult tune;
  tune.blocking = blas::GemmBlocking{64, 96, 128};
  tune.gflops = 12.5;
  MeasuredKernelCurves curves;
  curves.gemm = {{64.0, 1e9}, {128.0, 2e9}};
  curves.getrf = {{64.0, 3e8}};
  curves.trsm = {{64.0, 5e8}};

  const std::string path =
      ::testing::TempDir() + "hplmxp_tune_table_test.txt";
  ASSERT_TRUE(saveTuneTable(path, tune, curves));

  GemmTuneResult loadedTune;
  MeasuredKernelCurves loadedCurves;
  ASSERT_TRUE(loadTuneTable(path, &loadedTune, &loadedCurves));
  EXPECT_EQ(loadedTune.blocking.mc, 64);
  EXPECT_EQ(loadedTune.blocking.nc, 96);
  EXPECT_EQ(loadedTune.blocking.kc, 128);
  EXPECT_DOUBLE_EQ(loadedTune.gflops, 12.5);
  ASSERT_EQ(loadedCurves.gemm.size(), 2u);
  EXPECT_DOUBLE_EQ(loadedCurves.gemm[1].rate, 2e9);
  ASSERT_EQ(loadedCurves.getrf.size(), 1u);
  ASSERT_EQ(loadedCurves.trsm.size(), 1u);
  EXPECT_DOUBLE_EQ(loadedCurves.trsm[0].size, 64.0);

  EXPECT_FALSE(loadTuneTable(path + ".missing", nullptr, nullptr));
  std::remove(path.c_str());
}

TEST(ParamSearch, LocalSizePrefers119808Over122880) {
  // The Sec. V-D result: N_L = 119808 beats 122880 despite being smaller,
  // because LDA = 122880 hits the rocBLAS stride pathology.
  const KernelModel m(MachineKind::kFrontier);
  const auto entries =
      searchLocalSize(m, 3072, 32, 32, 8e9, {119808, 122880});
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_GT(entries[0].gemmRateAtScale, entries[1].gemmRateAtScale);
  EXPECT_GT(entries[0].ratePerGcd, entries[1].ratePerGcd);
}

}  // namespace
}  // namespace hplmxp
