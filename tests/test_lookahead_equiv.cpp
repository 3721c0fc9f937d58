// Equivalence of the look-ahead pipeline (Sec. IV-B) against the plain
// barriered loop. The mathematical argument: look-ahead only splits step
// k's trailing update into the strips step k+1 needs first and the bulk
// after, and every trailing-matrix element's update is still one
// fixed-order dot product over the inner dimension B — so the split and
// the reordered panel work cannot change a single bit of the factors.
// These tests enforce that claim on every rank across grids, shapes,
// broadcast strategies, randomized property-based configs, fault
// injection, and the degenerate geometries where a pipeline that assumed
// "every step has work on every rank" would deadlock.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/dist_context.h"
#include "core/dist_kernels.h"
#include "core/hplai.h"
#include "core/ir_dist.h"
#include "core/lu_dist.h"
#include "device/shim.h"
#include "gen/matgen.h"
#include "simmpi/faults.h"
#include "simmpi/runtime.h"
#include "util/buffer.h"

namespace hplmxp {
namespace {

HplaiConfig baseConfig(index_t n, index_t b, index_t pr, index_t pc) {
  HplaiConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.pr = pr;
  cfg.pc = pc;
  cfg.seed = 2022;
  return cfg;
}

/// Factors under cfg on every rank and returns each rank's factored local
/// matrix (the complete distributed factor, not just rank 0's shard).
std::vector<std::vector<float>> factorAllRanks(
    const HplaiConfig& cfg,
    const simmpi::RunOptions& opts = simmpi::RunOptions{}) {
  std::vector<std::vector<float>> locals(
      static_cast<std::size_t>(cfg.worldSize()));
  simmpi::run(cfg.worldSize(), [&](simmpi::Comm& world) {
    DistContext ctx(world, cfg);
    const ProblemGenerator gen(cfg.seed, cfg.n);
    const index_t lda = ctx.localRows();
    Buffer<float> local(ctx.localRows() * ctx.localCols());
    fillOwnedTiles(ctx, gen, local.data(), lda);
    BlasShim shim(cfg.vendor);
    DistLU lu(ctx, cfg, shim);
    lu.factor(local.data(), lda);
    locals[static_cast<std::size_t>(world.rank())].assign(
        local.data(), local.data() + local.size());
  }, opts);
  return locals;
}

void expectBitwiseEqual(const std::vector<std::vector<float>>& plain,
                        const std::vector<std::vector<float>>& pipelined,
                        const std::string& label) {
  ASSERT_EQ(plain.size(), pipelined.size()) << label;
  for (std::size_t r = 0; r < plain.size(); ++r) {
    ASSERT_EQ(plain[r].size(), pipelined[r].size())
        << label << " rank " << r;
    for (std::size_t i = 0; i < plain[r].size(); ++i) {
      ASSERT_EQ(plain[r][i], pipelined[r][i])
          << label << " rank " << r << " element " << i
          << " (bitwise mismatch)";
    }
  }
}

void expectLookaheadMatches(HplaiConfig cfg, const std::string& label) {
  cfg.lookahead = false;
  const auto plain = factorAllRanks(cfg);
  cfg.lookahead = true;
  const auto pipelined = factorAllRanks(cfg);
  expectBitwiseEqual(plain, pipelined, label);
}

TEST(LookaheadEquiv, BitwiseAcrossGridsShapesAndBcasts) {
  struct Case {
    index_t n, b, pr, pc;
    simmpi::BcastStrategy strategy;
  };
  const Case cases[] = {
      {96, 16, 1, 1, simmpi::BcastStrategy::kBcast},
      {96, 16, 2, 2, simmpi::BcastStrategy::kBcast},
      {128, 16, 2, 2, simmpi::BcastStrategy::kRing2M},
      {96, 16, 3, 2, simmpi::BcastStrategy::kRing1},
      {144, 16, 2, 3, simmpi::BcastStrategy::kRing1M},
      {128, 32, 2, 2, simmpi::BcastStrategy::kIbcast},
      {192, 32, 3, 3, simmpi::BcastStrategy::kRing2M},
      // Grids where a rank off the next panel's path runs its bulk GEMM
      // before the panel receives: 2x1 is mxp_solve's grid, 4x1 with
      // kBcast has a tree forwarder (root-relative rank 1 sends to 3), and
      // the rings chain bulk-first forwarders.
      {128, 16, 2, 1, simmpi::BcastStrategy::kBcast},
      {128, 16, 1, 2, simmpi::BcastStrategy::kBcast},
      {128, 16, 4, 1, simmpi::BcastStrategy::kBcast},
      {128, 16, 4, 1, simmpi::BcastStrategy::kRing1},
      {128, 16, 1, 4, simmpi::BcastStrategy::kRing1M},
      {160, 16, 4, 2, simmpi::BcastStrategy::kRing2M},
  };
  for (const Case& c : cases) {
    HplaiConfig cfg = baseConfig(c.n, c.b, c.pr, c.pc);
    cfg.panelBcast = c.strategy;
    expectLookaheadMatches(
        cfg, "n=" + std::to_string(c.n) + " b=" + std::to_string(c.b) +
                 " grid=" + std::to_string(c.pr) + "x" +
                 std::to_string(c.pc) + " bcast=" +
                 simmpi::toString(c.strategy));
  }
}

TEST(LookaheadEquiv, PropertyRandomizedConfigs) {
  // ~50 randomized (seed, N, B, Pr x Pc, bcast) draws. Every one must
  // produce bitwise-identical factors on every rank with look-ahead off and
  // on. Problem sizes follow the paper's adjustment rule so all ranks own
  // full blocks.
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> gridDim(1, 3);
  std::uniform_int_distribution<int> bPick(0, 2);
  std::uniform_int_distribution<int> blocksPick(2, 5);
  std::uniform_int_distribution<int> bcastPick(0, 4);
  std::uniform_int_distribution<std::uint64_t> seedPick(1, 1u << 20);
  const simmpi::BcastStrategy strategies[] = {
      simmpi::BcastStrategy::kBcast, simmpi::BcastStrategy::kIbcast,
      simmpi::BcastStrategy::kRing1, simmpi::BcastStrategy::kRing1M,
      simmpi::BcastStrategy::kRing2M};
  const index_t blockSizes[] = {8, 16, 32};

  int executed = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const index_t pr = gridDim(rng);
    const index_t pc = gridDim(rng);
    const index_t b = blockSizes[bPick(rng)];
    const index_t maxDim = std::max(pr, pc);
    // n = b * (multiple of lcm(pr,pc)) >= b * maxDim, capped for runtime.
    const index_t requested = b * maxDim * blocksPick(rng);
    const index_t n = adjustProblemSize(requested, b, pr, pc);
    if (n > 240 || n / b < maxDim) {
      continue;  // keep the sweep cheap; the shape mix stays rich
    }
    HplaiConfig cfg = baseConfig(n, b, pr, pc);
    cfg.seed = seedPick(rng);
    cfg.panelBcast = strategies[bcastPick(rng)];
    expectLookaheadMatches(
        cfg, "trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " b=" + std::to_string(b) + " grid=" + std::to_string(pr) +
                 "x" + std::to_string(pc) + " seed=" +
                 std::to_string(cfg.seed));
    ++executed;
  }
  // The cap above must not hollow the sweep out.
  EXPECT_GE(executed, 35);
}

TEST(LookaheadEquiv, IrResidualTrajectoriesIdentical) {
  // The IR trajectory is a deterministic function of the factors, so
  // bitwise-equal factors imply an identical residual path. Enforce it
  // directly: refine under increasing iteration budgets and compare the
  // residual after every budget — that is the trajectory point j — plus
  // the full FP64 solution vector bitwise at the end.
  HplaiConfig cfg = baseConfig(128, 16, 2, 2);
  cfg.panelBcast = simmpi::BcastStrategy::kRing2M;
  const int budgets = 5;

  struct Trajectory {
    std::vector<double> residuals;
    std::vector<index_t> iterations;
    std::vector<double> solution;
  };
  auto runOne = [&](bool lookahead) {
    HplaiConfig c = cfg;
    c.lookahead = lookahead;
    Trajectory t;
    simmpi::run(c.worldSize(), [&](simmpi::Comm& world) {
      DistContext ctx(world, c);
      const ProblemGenerator gen(c.seed, c.n);
      const index_t lda = ctx.localRows();
      Buffer<float> local(ctx.localRows() * ctx.localCols());
      fillOwnedTiles(ctx, gen, local.data(), lda);
      BlasShim shim(c.vendor);
      DistLU lu(ctx, c, shim);
      lu.factor(local.data(), lda);
      for (int j = 1; j <= budgets; ++j) {
        HplaiConfig cj = c;
        cj.maxIrIterations = j;
        cj.irDivergenceStrikes = 0;  // pure classical IR path
        DistIR ir(ctx, cj, gen);
        std::vector<double> x(static_cast<std::size_t>(c.n));
        for (index_t i = 0; i < c.n; ++i) {
          x[static_cast<std::size_t>(i)] = gen.rhs(i) / gen.entry(i, i);
        }
        const IrOutcome out = ir.refine(local.data(), lda, x);
        if (world.rank() == 0) {
          t.residuals.push_back(out.residualInf);
          t.iterations.push_back(out.iterations);
          if (j == budgets) {
            t.solution = x;
          }
        }
      }
    });
    return t;
  };

  const Trajectory plain = runOne(false);
  const Trajectory pipelined = runOne(true);
  ASSERT_EQ(plain.residuals.size(), static_cast<std::size_t>(budgets));
  ASSERT_EQ(pipelined.residuals.size(), static_cast<std::size_t>(budgets));
  for (int j = 0; j < budgets; ++j) {
    // Bitwise: both paths walked the same residual trajectory.
    EXPECT_EQ(plain.residuals[static_cast<std::size_t>(j)],
              pipelined.residuals[static_cast<std::size_t>(j)])
        << "residual after IR budget " << (j + 1);
    EXPECT_EQ(plain.iterations[static_cast<std::size_t>(j)],
              pipelined.iterations[static_cast<std::size_t>(j)]);
  }
  ASSERT_EQ(plain.solution.size(), pipelined.solution.size());
  for (std::size_t i = 0; i < plain.solution.size(); ++i) {
    ASSERT_EQ(plain.solution[i], pipelined.solution[i])
        << "solution element " << i;
  }
}

TEST(LookaheadEquiv, EndToEndResultsMatch) {
  HplaiConfig cfg = baseConfig(128, 16, 2, 2);
  cfg.lookahead = false;
  std::vector<double> xPlain;
  const HplaiResult plain = runHplai(cfg, &xPlain);
  cfg.lookahead = true;
  std::vector<double> xPipelined;
  const HplaiResult pipelined = runHplai(cfg, &xPipelined);
  for (const HplaiResult* r : {&plain, &pipelined}) {
    EXPECT_TRUE(r->converged);
    EXPECT_LT(r->scaledResidual(), 1.0);
  }
  // And the numeric outputs agree bitwise between the two paths.
  EXPECT_EQ(plain.irIterations, pipelined.irIterations);
  EXPECT_EQ(plain.residualInf, pipelined.residualInf);
  ASSERT_EQ(xPlain.size(), xPipelined.size());
  EXPECT_EQ(0, std::memcmp(xPlain.data(), xPipelined.data(),
                           xPlain.size() * sizeof(double)));
}

TEST(LookaheadEquiv, EquivalentUnderDelayFaultInjection) {
  // Timing faults (random injected delays, a stalling rank) perturb the
  // pipeline without corrupting data: the look-ahead factors must stay
  // bitwise identical to a clean run without look-ahead. This is the
  // chaos harness aimed at the pipeline.
  HplaiConfig cfg = baseConfig(96, 16, 2, 2);
  cfg.lookahead = false;
  const auto clean = factorAllRanks(cfg);

  for (const char* scenario : {"delay", "stall"}) {
    simmpi::RunOptions opts;
    opts.faults = std::make_shared<simmpi::FaultInjector>(
        simmpi::faultScenario(scenario, 7, cfg.worldSize()),
        cfg.worldSize());
    opts.timeout = std::chrono::milliseconds(20000);
    HplaiConfig la = cfg;
    la.lookahead = true;
    const auto faulted = factorAllRanks(la, opts);
    expectBitwiseEqual(clean, faulted, std::string("scenario=") + scenario);
  }
}

TEST(LookaheadEquiv, ProgressHookAbortsCollectivelyWithoutLookahead) {
  // The per-step abort poll must stop every rank at the same step without
  // hanging: abort after step 2 via the progress hook. (ProgressIntegration
  // in test_trace covers the look-ahead path.)
  HplaiConfig cfg = baseConfig(128, 16, 2, 2);
  cfg.lookahead = false;
  cfg.progressCallback = [](index_t k, double) { return k >= 2; };
  const HplaiResult r = runHplai(cfg);
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.converged);
}

// ---- Deadlock/starvation regressions: degenerate geometries ------------

TEST(LookaheadDeadlock, SingleTileMatrixTerminates) {
  // N == B: the whole matrix is one tile; there is no step k+1 to look
  // ahead to (no panels, no trailing update, no broadcasts).
  HplaiConfig cfg = baseConfig(32, 32, 1, 1);
  expectLookaheadMatches(cfg, "single-tile");
}

TEST(LookaheadDeadlock, OneByOneGridTerminates) {
  // All collectives are single-member no-ops; every step must still be
  // locally satisfiable.
  HplaiConfig cfg = baseConfig(128, 16, 1, 1);
  expectLookaheadMatches(cfg, "1x1-grid");
}

TEST(LookaheadDeadlock, MinimalLocalExtentTerminates) {
  // Each rank owns exactly one block (N_L == B): the trailing region on
  // every rank empties after its first step, so most steps have zero
  // local tiles — the classic shape for a pipeline that assumes "every
  // step has work on every rank" to hang on.
  HplaiConfig cfg = baseConfig(64, 32, 2, 2);
  expectLookaheadMatches(cfg, "one-block-per-rank");
}

TEST(LookaheadDeadlock, UnevenBlockDistributionTerminates) {
  // n/b = 3 on a 2x2 grid: ranks own 1 or 2 blocks per dimension, so
  // local extents differ across the grid and some ranks run out of
  // trailing tiles steps before others.
  HplaiConfig cfg = baseConfig(48, 16, 2, 2);
  expectLookaheadMatches(cfg, "uneven-blocks");
}

TEST(LookaheadDeadlock, StalledRankTerminatesOrFailsStructured) {
  // A chaos `stall` fault parks one rank inside comm ops. With a comm
  // timeout armed the look-ahead run must either complete with correct
  // factors or fail with a structured error — never hang ctest. The 4x1
  // Ring1 grid puts the stall inside a chain of bulk-first forwarders.
  HplaiConfig grids[] = {baseConfig(96, 16, 2, 2),
                         baseConfig(128, 16, 4, 1)};
  grids[1].panelBcast = simmpi::BcastStrategy::kRing1;
  for (HplaiConfig cfg : grids) {
    SCOPED_TRACE("grid=" + std::to_string(cfg.pr) + "x" +
                 std::to_string(cfg.pc) + " bcast=" +
                 simmpi::toString(cfg.panelBcast));
    cfg.lookahead = true;

    simmpi::FaultConfig faults = simmpi::faultScenario("stall", 3, 4);
    simmpi::RunOptions opts;
    opts.faults = std::make_shared<simmpi::FaultInjector>(faults, 4);
    opts.timeout = std::chrono::milliseconds(2000);

    bool structuredError = false;
    std::vector<std::vector<float>> locals;
    try {
      locals = factorAllRanks(cfg, opts);
    } catch (const CheckError&) {
      structuredError = true;  // CommTimeoutError / MultiRankError etc.
    }
    if (!structuredError) {
      // Completed despite the stall: results must be correct.
      cfg.lookahead = false;
      const auto clean = factorAllRanks(cfg);
      expectBitwiseEqual(clean, locals, "stall-completed");
    }
  }
  SUCCEED();  // reaching here at all proves termination
}

}  // namespace
}  // namespace hplmxp
