// Pinned answers of every single-device path whose FP64 residual or
// mat-vec regenerates A: the batched refinement behind the serve layer,
// the single-device GMRES rescue, and the dense FP64 HPL check. Each pin
// is an FNV-1a hash over the bits of the solutions and residual
// trajectories, so any change to the order in which a residual sums its
// terms, or to the thresholds and norms next to it, fails here. The
// hashes were captured from the row-at-a-time residuals that
// ProblemGenerator::addProduct replaced.
//
// The distributed pins hash runHplai's solution on 2x1 and 2x2 grids
// with look-ahead on and off, so the bits of the distributed LU (GETRF, the
// two panel TRSMs, CAST/TRANS_CAST and the FP16 trailing GEMM on every
// kernel path) and of its refinement are checked too. They were captured
// on the scalar kernels, before the AVX-512 path existed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/hpl64.h"
#include "core/hplai.h"
#include "core/precision_ladder.h"
#include "core/single_solver.h"
#include "gen/matgen.h"

namespace hplmxp {
namespace {

class Fnv1a {
 public:
  void add(double v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 1099511628211ull;
    }
  }
  void add(const std::vector<double>& v) {
    for (const double e : v) {
      add(e);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

struct SolveManyPins {
  std::uint64_t solutions = 0;
  std::uint64_t histories = 0;  // residual trajectories, thresholds, counts
  index_t minIterations = 0;
  index_t maxIterations = 0;
};

SolveManyPins pinSolveMany(const ProblemGenerator& gen, index_t b,
                           const std::vector<std::uint64_t>& seeds) {
  const Factorization f = factorMixedSingle(gen, b, Vendor::kAmd);
  std::vector<std::vector<double>> xs;
  const SolveManyResult r = solveManyMixedSingle(f, gen, seeds, xs);
  EXPECT_TRUE(r.allConverged());
  Fnv1a solutions;
  Fnv1a histories;
  SolveManyPins pins;
  pins.minIterations = r.columns[0].irIterations;
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    const index_t it = r.columns[c].irIterations;
    solutions.add(xs[c]);
    histories.add(r.columns[c].residualHistory);
    histories.add(r.columns[c].threshold);
    histories.add(static_cast<double>(it));
    pins.minIterations = std::min(pins.minIterations, it);
    pins.maxIterations = std::max(pins.maxIterations, it);
  }
  pins.solutions = solutions.value();
  pins.histories = histories.value();
  return pins;
}

TEST(ResidualPins, SolveManyServeShape) {
  // The serve_zipf shape: n=256, b=64, a batch of four right-hand sides.
  const ProblemGenerator gen(5, 256);
  const SolveManyPins pins = pinSolveMany(gen, 64, {11, 22, 33, 44});
  EXPECT_EQ(pins.solutions, 10650992476949343869ull);
  EXPECT_EQ(pins.histories, 15312330118688557841ull);
}

TEST(ResidualPins, SolveManyEarlyFreeze) {
  // The milder shift of SolveMany.EarlyConvergingColumnFreezesWhile-
  // BatchMatesIterate: these seeds need different iteration counts, so
  // columns freeze while batch-mates keep iterating.
  const ProblemGenerator gen(7, 96, 3.0);
  const std::vector<std::uint64_t> seeds = {500, 501, 502, 503,
                                            504, 505, 506, 507};
  const SolveManyPins pins = pinSolveMany(gen, 16, seeds);
  EXPECT_LT(pins.minIterations, pins.maxIterations);
  EXPECT_EQ(pins.solutions, 8459932391283549417ull);
  EXPECT_EQ(pins.histories, 1828667181458602420ull);
}

TEST(ResidualPins, GmresSingleRescue) {
  // The regime where classical IR on fp16 factors diverges and GMRES-IR
  // rescues the solve (tests/test_precision_ladder.cpp).
  const ProblemGenerator gen(7, 256, 3.0);
  const Factorization f = factorMixedSingle(gen, 32, Vendor::kAmd);
  std::vector<double> x(256, 0.0);
  const GmresSingleResult g = refineGmresSingle(f, gen, x);
  ASSERT_TRUE(g.converged);
  Fnv1a h;
  h.add(x);
  h.add(g.residualHistory);
  h.add(g.threshold);
  h.add(static_cast<double>(g.iterations));
  EXPECT_EQ(h.value(), 10558904957957913111ull);
}

TEST(ResidualPins, Hpl64ScaledResidual) {
  const ProblemGenerator gen(200, 160);
  std::vector<double> x;
  const Hpl64Result r = runHpl64(gen, x);
  Fnv1a h;
  h.add(r.scaledResidual);
  EXPECT_EQ(h.value(), 18378300616107194755ull);
}

std::uint64_t pinDistributed(index_t pr, index_t pc, bool lookahead) {
  HplaiConfig cfg;
  cfg.n = 512;
  cfg.b = 64;
  cfg.pr = pr;
  cfg.pc = pc;
  cfg.lookahead = lookahead;
  std::vector<double> x;
  const HplaiResult r = runHplai(cfg, &x);
  EXPECT_TRUE(r.converged);
  Fnv1a h;
  h.add(x);
  return h.value();
}

TEST(ResidualPins, DistributedBulk2x1) {
  EXPECT_EQ(pinDistributed(2, 1, true), 7836117434415997328ull);
}

TEST(ResidualPins, DistributedBulk2x2) {
  EXPECT_EQ(pinDistributed(2, 2, true), 13837586214871384392ull);
}

TEST(ResidualPins, DistributedNoLookahead2x1) {
  EXPECT_EQ(pinDistributed(2, 1, false), 7836117434415997328ull);
}

TEST(ResidualPins, DistributedNoLookahead2x2) {
  EXPECT_EQ(pinDistributed(2, 2, false), 13837586214871384392ull);
}

}  // namespace
}  // namespace hplmxp
