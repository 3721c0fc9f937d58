// Problem-size adjustment (Sec. III-C), config validation, result
// accounting, and grid-mapping invariance of the functional runtime.
#include <gtest/gtest.h>

#include <vector>

#include "cli/options.h"
#include "core/config.h"
#include "core/hplai.h"
#include "core/verify.h"
#include "gen/matgen.h"
#include "simmpi/recovery.h"

namespace hplmxp {
namespace {

TEST(AdjustProblemSize, RoundsToMultipleOfBlockAndGridLcm) {
  // B=32, grid 2x3: unit = 32 * lcm(2,3) = 192.
  EXPECT_EQ(adjustProblemSize(192, 32, 2, 3), 192);
  EXPECT_EQ(adjustProblemSize(200, 32, 2, 3), 192);   // nearest down
  EXPECT_EQ(adjustProblemSize(300, 32, 2, 3), 384);   // nearest up
  // 288 is equidistant (96 both ways): the tie keeps the smaller size.
  EXPECT_EQ(adjustProblemSize(288, 32, 2, 3), 192);
  EXPECT_EQ(adjustProblemSize(287, 32, 2, 3), 192);
  // Tiny requests round UP to one full unit.
  EXPECT_EQ(adjustProblemSize(1, 32, 2, 3), 192);
  EXPECT_EQ(adjustProblemSize(10, 16, 2, 2), 32);
}

TEST(AdjustProblemSize, GridLcmNotProduct) {
  // lcm(4, 6) = 12, not 24.
  EXPECT_EQ(adjustProblemSize(12 * 16, 16, 4, 6), 192);
  EXPECT_EQ(adjustProblemSize(1000, 16, 4, 6), 960);
}

TEST(AdjustProblemSize, PaperScales) {
  // Frontier's achievement N is already a clean multiple.
  EXPECT_EQ(adjustProblemSize(20606976, 3072, 172, 172), 20606976);
}

TEST(AdjustProblemSize, AdjustedSizeAlwaysValidates) {
  for (index_t n : {1, 100, 777, 5000}) {
    for (index_t b : {16, 32}) {
      for (index_t pr : {1, 2, 3}) {
        for (index_t pc : {1, 2}) {
          const index_t adj = adjustProblemSize(n, b, pr, pc);
          EXPECT_EQ(adj % b, 0);
          EXPECT_EQ((adj / b) % pr, 0);
          EXPECT_EQ((adj / b) % pc, 0);
        }
      }
    }
  }
}

TEST(HplaiConfig, ValidationCatchesBadInputs) {
  HplaiConfig cfg;
  cfg.n = 128;
  cfg.b = 16;
  EXPECT_NO_THROW(cfg.validate());
  cfg.b = 24;  // n % b != 0
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.b = 16;
  cfg.pr = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.pr = 1;
  cfg.maxIrIterations = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(HplaiResult, AccountingConventions) {
  HplaiResult r;
  r.n = 100;
  r.ranks = 4;
  r.totalSeconds = 2.0;
  const double d = 100.0;
  EXPECT_DOUBLE_EQ(r.effectiveFlops(),
                   (2.0 / 3.0) * d * d * d + 1.5 * d * d);
  EXPECT_DOUBLE_EQ(r.gflopsTotal(), r.effectiveFlops() / 2.0 / 1e9);
  EXPECT_DOUBLE_EQ(r.gflopsPerRank() * 4.0, r.gflopsTotal());
  r.threshold = 0.0;
  EXPECT_DOUBLE_EQ(r.scaledResidual(), 0.0);  // no division by zero
}

TEST(GridMapping, NodeLocalMappingGivesIdenticalSolution) {
  // The node-local grid only permutes which rank sits at which grid
  // coordinate: every mapping must converge to the same solution (the
  // performance difference is a network-placement effect, Eq. 4/5).
  HplaiConfig colMajor;
  colMajor.n = 192;
  colMajor.b = 16;
  colMajor.pr = 2;
  colMajor.pc = 3;
  colMajor.gridOrder = GridOrder::kColumnMajor;

  HplaiConfig nodeLocal = colMajor;
  nodeLocal.gridOrder = GridOrder::kNodeLocal;
  nodeLocal.qr = 2;
  nodeLocal.qc = 1;

  std::vector<double> xCol, xNode;
  const HplaiResult rCol = runHplai(colMajor, &xCol);
  const HplaiResult rNode = runHplai(nodeLocal, &xNode);
  EXPECT_TRUE(rCol.converged);
  EXPECT_TRUE(rNode.converged);
  ASSERT_EQ(xCol.size(), xNode.size());
  // The mapping permutes which rank contributes where in the Allreduce
  // trees, so the last bits of the FP64 refinement can differ; both are
  // converged to FP64 accuracy and must agree far below the threshold.
  for (std::size_t i = 0; i < xCol.size(); ++i) {
    EXPECT_NEAR(xCol[i], xNode[i], 1e-12) << "i=" << i;
  }
}

TEST(GridMapping, InvalidNodeLocalGridRejected) {
  HplaiConfig cfg;
  cfg.n = 128;
  cfg.b = 16;
  cfg.pr = 2;
  cfg.pc = 2;
  cfg.gridOrder = GridOrder::kNodeLocal;
  cfg.qr = 3;  // does not divide pr
  EXPECT_THROW(runHplai(cfg), CheckError);
}

class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, EverySeedConvergesAndVerifies) {
  // Conditioning of the generated problem must be robust across seeds —
  // the diagonal-dominance construction cannot get unlucky.
  HplaiConfig cfg;
  cfg.n = 128;
  cfg.b = 16;
  cfg.pr = 2;
  cfg.pc = 2;
  cfg.seed = GetParam();
  std::vector<double> x;
  const HplaiResult r = runHplai(cfg, &x);
  EXPECT_TRUE(r.converged) << "seed " << GetParam();
  EXPECT_TRUE(hplaiValid(ProblemGenerator(cfg.seed, cfg.n), x));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(0, 1, 2, 7, 42, 1234, 99999,
                                           0xDEADBEEF, 0xFFFFFFFFFFFFFFFFULL));

TEST(RecoveryConfigValidation, RejectsDegenerateKnobs) {
  simmpi::RecoveryConfig rc;
  EXPECT_NO_THROW(rc.validate());  // defaults are sane
  rc.checkpointEveryK = 0;
  EXPECT_THROW(rc.validate(), CheckError);
  rc.checkpointEveryK = 1;
  rc.maxResurrections = 0;
  EXPECT_THROW(rc.validate(), CheckError);
  rc.maxResurrections = 1;
  // compress/verify are pure policy toggles: any combination is valid.
  rc.compressCheckpoints = false;
  rc.verifyCheckpoints = false;
  EXPECT_NO_THROW(rc.validate());
}

TEST(EffectiveCheckpointCadence, ClampsCheckpointNeverCadences) {
  using simmpi::effectiveCheckpointCadence;
  // A cadence below the panel count is honored as requested.
  EXPECT_EQ(effectiveCheckpointCadence(4, 12), 4);
  EXPECT_EQ(effectiveCheckpointCadence(11, 12), 11);
  // cadence >= panel count would only ever take the free step-0 base
  // ("checkpoint never"): clamp to the largest useful cadence.
  EXPECT_EQ(effectiveCheckpointCadence(12, 12), 11);
  EXPECT_EQ(effectiveCheckpointCadence(1000, 12), 11);
  // Degenerate single-panel runs keep cadence 1 without complaint.
  EXPECT_EQ(effectiveCheckpointCadence(1, 1), 1);
  EXPECT_EQ(effectiveCheckpointCadence(5, 1), 1);
  // Unknown geometry (no panel count yet) passes through untouched.
  EXPECT_EQ(effectiveCheckpointCadence(64, 0), 64);
}

TEST(RecoveryConfigKeys, ConfKeysRoundTripThroughOptions) {
  // The same keys cmdBench/cmdChaos/cmdRecover read from hplmxp.conf.
  const cli::Options opts = cli::Options::parseArgs(
      {"--recovery.enabled", "on", "--recovery.every-k", "6",
       "--recovery.max-resurrections", "3", "--recovery.compress", "off",
       "--recovery.verify", "off"});
  simmpi::RecoveryConfig rc;
  rc.enabled = opts.getBool("recovery.enabled", false);
  rc.checkpointEveryK = opts.getInt("recovery.every-k", 8);
  rc.maxResurrections = opts.getInt("recovery.max-resurrections", 8);
  rc.compressCheckpoints = opts.getBool("recovery.compress", true);
  rc.verifyCheckpoints = opts.getBool("recovery.verify", true);
  EXPECT_TRUE(rc.enabled);
  EXPECT_EQ(rc.checkpointEveryK, 6);
  EXPECT_EQ(rc.maxResurrections, 3);
  EXPECT_FALSE(rc.compressCheckpoints);
  EXPECT_FALSE(rc.verifyCheckpoints);
  EXPECT_NO_THROW(rc.validate());
  // Unset keys fall back to the documented defaults.
  const cli::Options empty = cli::Options::parseArgs({});
  EXPECT_FALSE(empty.getBool("recovery.enabled", false));
  EXPECT_EQ(empty.getInt("recovery.every-k", 8), 8);
  EXPECT_EQ(empty.getInt("recovery.max-resurrections", 8), 8);
  EXPECT_TRUE(empty.getBool("recovery.compress", true));
  EXPECT_TRUE(empty.getBool("recovery.verify", true));
}

}  // namespace
}  // namespace hplmxp
