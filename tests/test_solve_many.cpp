// Blocked multi-RHS refinement: the bitwise contract behind the serving
// subsystem. A batch of k right-hand sides refined together must produce,
// per column, exactly the bits a k=1 solve of the same rhs seed produces —
// same solutions, same iteration counts, same residual trajectory — and
// strsmMixed (the panel kernel carrying the correction solves) must match
// strsvMixed column for column.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "blas/trsm.h"
#include "blas/trsv.h"
#include "core/single_solver.h"
#include "gen/matgen.h"
#include "util/buffer.h"
#include "util/thread_pool.h"

namespace hplmxp {
namespace {

/// Deterministic well-conditioned triangular test matrix in FP32.
Buffer<float> triangularMatrix(index_t n, std::uint64_t seed) {
  const ProblemGenerator gen(seed, n);  // diagonally dominant by default
  Buffer<float> a(n * n);
  gen.fillTile<float>(0, 0, n, n, a.data(), n);
  return a;
}

std::vector<double> rhsColumns(index_t n, index_t k, std::uint64_t seed) {
  std::vector<double> x(static_cast<std::size_t>(n * k));
  const ProblemGenerator gen(seed, n * k);
  gen.fillRhs<double>(0, n * k, x.data());
  return x;
}

TEST(StrsmMixed, MatchesStrsvMixedBitwisePerColumn) {
  // Shapes straddle the 8-double vector width (short, exact multiple,
  // ragged tail); batches of 1, 3 and 8 columns run on one lane, and on
  // three lanes that split a batch into chunks.
  ThreadPool solo(1);
  ThreadPool three(3);
  for (const index_t n : {1, 7, 63, 64, 65, 128, 130}) {
    for (const index_t k : {1, 2, 3, 5, 8}) {
      const Buffer<float> a = triangularMatrix(n, 77);
      for (const blas::Uplo uplo : {blas::Uplo::kLower, blas::Uplo::kUpper}) {
        for (const blas::Diag diag :
             {blas::Diag::kUnit, blas::Diag::kNonUnit}) {
          for (ThreadPool* pool : {&solo, &three}) {
            const std::vector<double> rhs = rhsColumns(n, k, 99);
            std::vector<double> panel = rhs;
            blas::strsmMixed(uplo, diag, n, k, a.data(), n, panel.data(), n,
                             pool);
            for (index_t c = 0; c < k; ++c) {
              std::vector<double> ref(
                  rhs.begin() + static_cast<std::ptrdiff_t>(c * n),
                  rhs.begin() + static_cast<std::ptrdiff_t>((c + 1) * n));
              blas::strsvMixed(uplo, diag, n, a.data(), n, ref.data());
              EXPECT_EQ(0, std::memcmp(ref.data(),
                                       panel.data() +
                                           static_cast<std::size_t>(c * n),
                                       sizeof(double) *
                                           static_cast<std::size_t>(n)))
                  << "n=" << n << " k=" << k << " col=" << c
                  << " uplo=" << (uplo == blas::Uplo::kLower ? "L" : "U")
                  << " diag=" << (diag == blas::Diag::kUnit ? "unit" : "non")
                  << " lanes=" << pool->laneCount();
            }
          }
        }
      }
    }
  }
}

TEST(StrsmMixed, ThreadCountDoesNotChangeBits) {
  const index_t n = 96;
  const index_t k = 6;
  const Buffer<float> a = triangularMatrix(n, 5);
  const std::vector<double> rhs = rhsColumns(n, k, 6);

  ThreadPool solo(1);
  ThreadPool wide(4);
  std::vector<double> x1 = rhs;
  std::vector<double> x4 = rhs;
  blas::strsmMixed(blas::Uplo::kLower, blas::Diag::kUnit, n, k, a.data(), n,
                   x1.data(), n, &solo);
  blas::strsmMixed(blas::Uplo::kLower, blas::Diag::kUnit, n, k, a.data(), n,
                   x4.data(), n, &wide);
  EXPECT_EQ(0, std::memcmp(x1.data(), x4.data(), sizeof(double) * x1.size()));
}

TEST(SolveMany, BatchedColumnsMatchIndependentSolvesBitwise) {
  const index_t n = 64;
  const index_t b = 16;
  const ProblemGenerator gen(31, n);
  const Factorization f = factorMixedSingle(gen, b, Vendor::kAmd);

  const std::vector<std::uint64_t> seeds = {101, 202, 303, 404, 31};
  std::vector<std::vector<double>> batchX;
  const SolveManyResult batch = solveManyMixedSingle(f, gen, seeds, batchX);
  ASSERT_EQ(batch.k, static_cast<index_t>(seeds.size()));
  EXPECT_TRUE(batch.allConverged());

  for (std::size_t c = 0; c < seeds.size(); ++c) {
    std::vector<std::vector<double>> soloX;
    const SolveManyResult solo =
        solveManyMixedSingle(f, gen, {seeds[c]}, soloX);
    ASSERT_TRUE(solo.columns[0].converged);
    // Same iteration count, same residual trajectory, same solution bits.
    EXPECT_EQ(solo.columns[0].irIterations, batch.columns[c].irIterations);
    ASSERT_EQ(solo.columns[0].residualHistory.size(),
              batch.columns[c].residualHistory.size());
    for (std::size_t i = 0; i < solo.columns[0].residualHistory.size(); ++i) {
      EXPECT_EQ(solo.columns[0].residualHistory[i],
                batch.columns[c].residualHistory[i])
          << "seed=" << seeds[c] << " iter=" << i;
    }
    EXPECT_EQ(solo.columns[0].threshold, batch.columns[c].threshold);
    EXPECT_EQ(solo.columns[0].residualInf, batch.columns[c].residualInf);
    ASSERT_EQ(soloX[0].size(), batchX[c].size());
    EXPECT_EQ(0, std::memcmp(soloX[0].data(), batchX[c].data(),
                             sizeof(double) * soloX[0].size()))
        << "seed=" << seeds[c];
  }
}

TEST(SolveMany, EarlyConvergingColumnFreezesWhileBatchMatesIterate) {
  // Scan a deterministic seed pool for two rhs whose k=1 solves need
  // different iteration counts, then batch them: the early column must
  // freeze (same count as solo) while the late one keeps iterating.
  // A milder diagonal shift than the benchmark default weakens the FP16
  // factorization enough that IR iteration counts actually vary by rhs.
  const index_t n = 96;
  const index_t b = 16;
  const ProblemGenerator gen(7, n, 3.0);
  const Factorization f = factorMixedSingle(gen, b, Vendor::kAmd);

  std::uint64_t earlySeed = 0;
  std::uint64_t lateSeed = 0;
  index_t earlyIters = 0;
  index_t lateIters = 0;
  for (std::uint64_t s = 500; s < 560; ++s) {
    std::vector<std::vector<double>> xs;
    const SolveManyResult r = solveManyMixedSingle(f, gen, {s}, xs);
    if (!r.columns[0].converged) {
      continue;
    }
    const index_t it = r.columns[0].irIterations;
    if (earlySeed == 0 || it < earlyIters) {
      earlySeed = s;
      earlyIters = it;
    }
    if (lateSeed == 0 || it > lateIters) {
      lateSeed = s;
      lateIters = it;
    }
    if (earlySeed != 0 && lateSeed != 0 && earlyIters != lateIters) {
      break;
    }
  }
  if (earlyIters == lateIters) {
    GTEST_SKIP() << "every scanned rhs converged in the same iteration "
                    "count; early-freeze path not reachable at this size";
  }

  std::vector<std::vector<double>> xs;
  const SolveManyResult r =
      solveManyMixedSingle(f, gen, {earlySeed, lateSeed}, xs);
  EXPECT_TRUE(r.allConverged());
  EXPECT_EQ(r.columns[0].irIterations, earlyIters);
  EXPECT_EQ(r.columns[1].irIterations, lateIters);
  EXPECT_LT(r.columns[0].irIterations, r.columns[1].irIterations);
  // The frozen column recorded exactly as many residuals as its solo run.
  EXPECT_EQ(r.columns[0].residualHistory.size(),
            static_cast<std::size_t>(earlyIters) + 1);
}

TEST(SolveMany, FactorizationHandleIsReusable) {
  const index_t n = 64;
  const ProblemGenerator gen(13, n);
  const Factorization f = factorMixedSingle(gen, 16, Vendor::kAmd);
  EXPECT_EQ(f.n, n);
  EXPECT_EQ(f.seed, 13u);
  EXPECT_GT(f.diagInfNorm, 0.0);
  EXPECT_GT(f.bytes(), sizeof(Factorization));

  std::vector<std::vector<double>> first;
  std::vector<std::vector<double>> second;
  const SolveManyResult r1 = solveManyMixedSingle(f, gen, {42}, first);
  const SolveManyResult r2 = solveManyMixedSingle(f, gen, {42}, second);
  EXPECT_EQ(r1.columns[0].irIterations, r2.columns[0].irIterations);
  EXPECT_EQ(0, std::memcmp(first[0].data(), second[0].data(),
                           sizeof(double) * first[0].size()));
}

TEST(SolveMany, SingleSolveIsTheKEqualsOneCase) {
  const index_t n = 64;
  const index_t b = 16;
  const ProblemGenerator gen(57, n);

  std::vector<double> xSingle;
  const SingleSolveResult single =
      solveMixedSingle(gen, b, Vendor::kAmd, xSingle);
  ASSERT_TRUE(single.converged);

  const Factorization f = factorMixedSingle(gen, b, Vendor::kAmd);
  std::vector<std::vector<double>> xs;
  const SolveManyResult many =
      solveManyMixedSingle(f, gen, {gen.seed()}, xs);
  EXPECT_EQ(single.irIterations, many.columns[0].irIterations);
  EXPECT_EQ(single.residualInf, many.columns[0].residualInf);
  EXPECT_EQ(single.threshold, many.columns[0].threshold);
  EXPECT_EQ(0, std::memcmp(xSingle.data(), xs[0].data(),
                           sizeof(double) * xSingle.size()));
}

}  // namespace
}  // namespace hplmxp
