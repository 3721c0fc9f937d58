#include "core/single_solver.h"

#include <algorithm>
#include <cmath>

#include "blas/blas.h"
#include "core/verify.h"
#include "device/shim.h"
#include "lowp/traits.h"
#include "util/timer.h"

namespace hplmxp {

namespace {

/// The blocked factorization loop, templated on the trailing-update
/// storage type. The FP32 control flow (GETRF, the two TRSMs, the NVIDIA
/// workspace protocol) is rung-independent; only the CAST / TRANS_CAST /
/// GEMM trio changes. Rungs with kNeedsTileScale store panel/scale and
/// fold the two per-panel scales into the GEMM's alpha — exact powers of
/// two, so alpha itself is exact in FP32. The half16 instantiation is the
/// historical factorMixedSingle path, call for call.
template <typename TLow>
void factorLowpCore(index_t n, index_t b, float* a, index_t lda,
                    Vendor vendor) {
  HPLMXP_REQUIRE(n > 0 && b > 0 && n % b == 0, "need N a multiple of B");
  BlasShim shim(vendor);
  Buffer<TLow> lLow(n * b);
  Buffer<TLow> uLow(n * b);

  for (index_t k = 0; k < n; k += b) {
    float* diag = a + k + k * lda;
    if (vendor == Vendor::kNvidia) {
      (void)shim.getrfBufferSize(b, lda);
    }
    shim.getrf(b, diag, lda);
    const index_t rest = n - k - b;
    if (rest == 0) {
      break;
    }
    // Panel solves in FP32.
    float* uPanel = a + k + (k + b) * lda;
    float* lPanel = a + (k + b) + k * lda;
    shim.trsm(blas::Side::kLeft, blas::Uplo::kLower, blas::Diag::kUnit, b,
              rest, 1.0f, diag, lda, uPanel, lda);
    shim.trsm(blas::Side::kRight, blas::Uplo::kUpper, blas::Diag::kNonUnit,
              rest, b, 1.0f, diag, lda, lPanel, lda);
    // CAST / TRANS_CAST to the storage rung, then the mixed trailing
    // update.
    float alpha = -1.0f;
    if constexpr (lowp::StorageTraits<TLow>::kNeedsTileScale) {
      const float sL =
          blas::castToLowpScaled(rest, b, lPanel, lda, lLow.data(), rest);
      const float sU = blas::transCastToLowpScaled(b, rest, uPanel, lda,
                                                   uLow.data(), rest);
      alpha = -(sL * sU);
    } else {
      blas::castToLowp(rest, b, lPanel, lda, lLow.data(), rest);
      blas::transCastToLowp(b, rest, uPanel, lda, uLow.data(), rest);
    }
    shim.gemmExLowp(blas::Trans::kNoTrans, blas::Trans::kTrans, rest, rest,
                    b, alpha, lLow.data(), rest, uLow.data(), rest, 1.0f,
                    a + (k + b) + (k + b) * lda, lda);
  }
}

}  // namespace

void factorMixedSingle(index_t n, index_t b, float* a, index_t lda,
                       Vendor vendor) {
  factorLowpCore<half16>(n, b, a, lda, vendor);
}

void factorStorageSingle(index_t n, index_t b, float* a, index_t lda,
                         Vendor vendor, lowp::StoragePrecision precision) {
  switch (precision) {
    case lowp::StoragePrecision::kFp16:
      factorLowpCore<half16>(n, b, a, lda, vendor);
      return;
    case lowp::StoragePrecision::kBf16:
      factorLowpCore<lowp::bfloat16>(n, b, a, lda, vendor);
      return;
    case lowp::StoragePrecision::kFp8E4M3:
      factorLowpCore<lowp::fp8e4m3>(n, b, a, lda, vendor);
      return;
    case lowp::StoragePrecision::kFp8E5M2:
      factorLowpCore<lowp::fp8e5m2>(n, b, a, lda, vendor);
      return;
  }
  HPLMXP_REQUIRE(false, "unreachable: bad storage precision");
}

Factorization factorStorageSingle(const ProblemGenerator& gen, index_t b,
                                  Vendor vendor,
                                  lowp::StoragePrecision precision) {
  const index_t n = gen.n();
  Factorization f;
  f.n = n;
  f.b = b;
  f.seed = gen.seed();
  f.vendor = vendor;
  f.precision = precision;
  f.lu.allocate(n * n);
  gen.fillTile<float>(0, 0, n, n, f.lu.data(), n);

  Timer timer;
  factorStorageSingle(n, b, f.lu.data(), n, vendor, precision);
  f.factorSeconds = timer.seconds();
  f.diagInfNorm = gen.diagInfNorm();
  return f;
}

Factorization factorMixedSingle(const ProblemGenerator& gen, index_t b,
                                Vendor vendor) {
  return factorStorageSingle(gen, b, vendor, lowp::StoragePrecision::kFp16);
}

SolveManyResult solveManyMixedSingle(const Factorization& f,
                                     const ProblemGenerator& gen,
                                     const std::vector<std::uint64_t>& rhsSeeds,
                                     std::vector<std::vector<double>>& xs,
                                     index_t maxIrIterations,
                                     ThreadPool* pool) {
  const index_t n = f.n;
  HPLMXP_REQUIRE(gen.n() == n, "factorization / generator order mismatch");
  HPLMXP_REQUIRE(gen.seed() == f.seed,
                 "factorization was built from a different problem seed");
  const index_t k = static_cast<index_t>(rhsSeeds.size());
  SolveManyResult result;
  result.n = n;
  result.b = f.b;
  result.k = k;
  result.columns.resize(rhsSeeds.size());
  xs.assign(rhsSeeds.size(), {});
  if (k == 0) {
    return result;
  }

  Timer timer;
  const double diagInf = f.diagInfNorm;

  // diag(A) once for every column's Jacobi-style initial guess — the same
  // per-element arithmetic as the single-RHS path, amortized across the
  // batch.
  std::vector<double> diag(static_cast<std::size_t>(n));
  gen.fillDiagonal(diag.data());

  // Per-column rhs, its norm, and the solution. Column c's rhs is the rhs
  // stream of a generator seeded with rhsSeeds[c] over the same order.
  std::vector<std::vector<double>> bvecs(rhsSeeds.size());
  std::vector<double> bInf(rhsSeeds.size(), 0.0);
  for (std::size_t c = 0; c < rhsSeeds.size(); ++c) {
    const ProblemGenerator rhsGen(rhsSeeds[c], n);
    bvecs[c].resize(static_cast<std::size_t>(n));
    rhsGen.fillRhs<double>(0, n, bvecs[c].data());
    bInf[c] = infNorm(bvecs[c]);
    result.columns[c].rhsSeed = rhsSeeds[c];
    xs[c].resize(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      xs[c][static_cast<std::size_t>(i)] =
          bvecs[c][static_cast<std::size_t>(i)] /
          diag[static_cast<std::size_t>(i)];
    }
  }

  // The still-active columns, packed side by side in increasing c: their
  // solutions, and their residuals, which the blocked strsmMixed pair
  // turns into corrections in place.
  std::vector<std::size_t> activeCols(rhsSeeds.size());
  for (std::size_t c = 0; c < activeCols.size(); ++c) {
    activeCols[c] = c;
  }
  Buffer<double> xPanel(n * k);
  Buffer<double> panel(n * k);

  for (index_t iter = 0; iter <= maxIrIterations; ++iter) {
    // r = b - A x for every active column in one streamed pass over A:
    // each regenerated FP64 column of A serves the whole batch.
    const auto packed = static_cast<index_t>(activeCols.size());
    for (index_t p = 0; p < packed; ++p) {
      const std::size_t c = activeCols[static_cast<std::size_t>(p)];
      std::copy(xs[c].begin(), xs[c].end(), xPanel.data() + p * n);
      std::copy(bvecs[c].begin(), bvecs[c].end(), panel.data() + p * n);
    }
    gen.addProduct(-1.0, packed, xPanel.data(), n, panel.data(), n);

    // A column that meets its threshold is frozen while its batch-mates
    // iterate on; the rest close ranks in the panel.
    index_t kept = 0;
    for (index_t p = 0; p < packed; ++p) {
      const std::size_t c = activeCols[static_cast<std::size_t>(p)];
      const double* rc = panel.data() + p * n;
      double rInf = 0.0;
      for (index_t i = 0; i < n; ++i) {
        rInf = std::max(rInf, std::fabs(rc[i]));
      }
      SolveManyColumn& col = result.columns[c];
      col.residualInf = rInf;
      col.threshold = hplaiThreshold(n, diagInf, infNorm(xs[c]), bInf[c]);
      col.residualHistory.push_back(rInf);
      if (rInf < col.threshold) {
        col.converged = true;
        continue;
      }
      if (kept != p) {
        std::copy(rc, rc + n, panel.data() + kept * n);
      }
      activeCols[static_cast<std::size_t>(kept)] = c;
      ++kept;
    }
    activeCols.resize(static_cast<std::size_t>(kept));
    if (iter == maxIrIterations || kept == 0) {
      break;
    }

    // d = U^{-1} (L^{-1} r) for every active column at once.
    blas::strsmMixed(blas::Uplo::kLower, blas::Diag::kUnit, n, kept,
                     f.lu.data(), n, panel.data(), n, pool);
    blas::strsmMixed(blas::Uplo::kUpper, blas::Diag::kNonUnit, n, kept,
                     f.lu.data(), n, panel.data(), n, pool);
    for (index_t p = 0; p < kept; ++p) {
      const std::size_t c = activeCols[static_cast<std::size_t>(p)];
      const double* d = panel.data() + p * n;
      double* xc = xs[c].data();
      for (index_t i = 0; i < n; ++i) {
        xc[static_cast<std::size_t>(i)] += d[i];
      }
      ++result.columns[c].irIterations;
    }
  }
  result.solveSeconds = timer.seconds();
  return result;
}

SingleSolveResult solveMixedSingle(const ProblemGenerator& gen, index_t b,
                                   Vendor vendor, std::vector<double>& x,
                                   index_t maxIrIterations) {
  // The single-RHS solve is the k=1 case of the batched engine: factor
  // into a handle, then refine the generator's own rhs stream against it.
  const Factorization f = factorMixedSingle(gen, b, vendor);
  std::vector<std::vector<double>> xs;
  const SolveManyResult many =
      solveManyMixedSingle(f, gen, {gen.seed()}, xs, maxIrIterations);
  x = std::move(xs[0]);

  SingleSolveResult result;
  result.n = f.n;
  result.b = b;
  result.factorSeconds = f.factorSeconds;
  result.irSeconds = many.solveSeconds;
  result.irIterations = many.columns[0].irIterations;
  result.converged = many.columns[0].converged;
  result.residualInf = many.columns[0].residualInf;
  result.threshold = many.columns[0].threshold;
  return result;
}

}  // namespace hplmxp
