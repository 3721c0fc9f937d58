// Shared distributed kernels used by both the HPL-AI refinement path and
// the FP64 HPL baseline: the regenerate-and-Allreduce residual GEMV and
// the distributed block triangular solve.
#pragma once

#include <string>
#include <vector>

#include "blas/scan.h"
#include "blas/trsv.h"
#include "blas/types.h"
#include "core/dist_context.h"
#include "gen/matgen.h"
#include "util/buffer.h"

namespace hplmxp {

/// Fills this rank's owned blocks of A into its local col-major matrix `a`
/// (leading dimension `ld`), one fillTile walk per block: the initial fill
/// of both factorizations, and the recovery regenerator that rebuilds it.
template <typename T>
void fillOwnedTiles(const DistContext& ctx, const ProblemGenerator& gen,
                    T* a, index_t ld) {
  const index_t b = ctx.layout().blockSize();
  ctx.forEachOwnedBlock([&](index_t gi, index_t gj, index_t li, index_t lj) {
    gen.fillTile<T>(gi * b, gj * b, b, b, a + li * b + lj * b * ld, ld);
  });
}

/// r = b - A*x in FP64 with A regenerated tile-by-tile from the generator;
/// each rank covers its owned blocks, one Allreduce sums the partials, and
/// every rank adds its regenerated copy of b. All ranks return the full r.
void distributedResidual(DistContext& ctx, const ProblemGenerator& gen,
                         const std::vector<double>& x,
                         std::vector<double>& r);

namespace detail {
/// acc[0:m) += block(m x n) * y with FP64 accumulation; TFactor is the
/// stored factor precision (float for HPL-AI, double for HPL).
template <typename TFactor>
void gemvAccum(index_t m, index_t n, const TFactor* block, index_t lda,
               const double* y, double* acc) {
  for (index_t j = 0; j < n; ++j) {
    const TFactor* col = block + j * lda;
    const double yj = y[j];
    for (index_t i = 0; i < m; ++i) {
      acc[i] += static_cast<double>(col[i]) * yj;
    }
  }
}

inline void trsvMixedDispatch(blas::Uplo uplo, blas::Diag diag, index_t n,
                              const float* a, index_t lda, double* x) {
  blas::strsvMixed(uplo, diag, n, a, lda, x);
}
inline void trsvMixedDispatch(blas::Uplo uplo, blas::Diag diag, index_t n,
                              const double* a, index_t lda, double* x) {
  blas::dtrsv(uplo, diag, n, a, lda, x);
}
}  // namespace detail

/// Distributed block TRSV: solves op(T) d = rhs in place, where T is the
/// unit-lower (kLower) or upper (kUpper) triangular factor stored
/// block-cyclically in `localLU` (precision TFactor; the vector and all
/// accumulation are FP64). `rhs` is replicated; every rank finishes with
/// the full solution.
///
/// Step k: partial off-diagonal contributions for block row k are summed
/// across the owning process row, the diagonal owner solves the B x B
/// triangle, the segment is broadcast world-wide, and owners of column k
/// push updates into their later rows — the communication pattern of
/// Algorithm 1's TRSV phase.
template <typename TFactor>
void distributedBlockTrsv(DistContext& ctx, index_t b, blas::Uplo uplo,
                          const TFactor* localLU, index_t lda,
                          std::vector<double>& rhs) {
  const BlockCyclic& layout = ctx.layout();
  const index_t n = layout.n();
  const index_t nb = layout.globalBlocks();
  HPLMXP_REQUIRE(static_cast<index_t>(rhs.size()) == n, "rhs size mismatch");
  HPLMXP_REQUIRE(b == layout.blockSize(), "block size mismatch");

  std::vector<double> pacc(static_cast<std::size_t>(n), 0.0);
  const bool lower = uplo == blas::Uplo::kLower;

  for (index_t step = 0; step < nb; ++step) {
    const index_t k = lower ? step : nb - 1 - step;
    const index_t pir = k % layout.pr();
    const index_t pic = k % layout.pc();

    if (ctx.myRow() == pir) {
      ctx.rowComm().allreduceSum(pacc.data() + k * b, b);
      if (ctx.myCol() == pic) {
        double* y = rhs.data() + k * b;
        const double* acc = pacc.data() + k * b;
        for (index_t i = 0; i < b; ++i) {
          y[i] -= acc[i];
        }
        const TFactor* diag = localLU + layout.localBlockRow(k) * b +
                              layout.localBlockCol(k) * b * lda;
        detail::trsvMixedDispatch(
            uplo, lower ? blas::Diag::kUnit : blas::Diag::kNonUnit, b, diag,
            lda, y);
      }
    }
    ctx.world().bcast(ctx.rankAt(pir, pic), rhs.data() + k * b, b);

    if (ctx.myCol() == pic) {
      const index_t lj = layout.localBlockCol(k);
      const index_t lbr = layout.localBlockRows(ctx.myRow());
      for (index_t li = 0; li < lbr; ++li) {
        const index_t gi = layout.globalBlockRow(ctx.myRow(), li);
        if ((lower && gi > k) || (!lower && gi < k)) {
          detail::gemvAccum(b, b, localLU + li * b + lj * b * lda, lda,
                            rhs.data() + k * b, pacc.data() + gi * b);
        }
      }
    }
  }
}

/// y = A*x (FP64, regenerated A) distributed over owned blocks with one
/// Allreduce: the matrix-vector product used by the GMRES refiner.
void distributedMatVec(DistContext& ctx, const ProblemGenerator& gen,
                       const std::vector<double>& x, std::vector<double>& y);

/// ||A||_inf computed by regeneration over owned blocks + one Allreduce
/// (row sums) — needed by the HPL validity check.
double distributedMatrixInfNorm(DistContext& ctx,
                                const ProblemGenerator& gen);

/// Guard scan for replicated FP64 vectors (residuals, corrections): throws
/// blas::AbnormalValueError naming `what` when any entry is non-finite or
/// exceeds `magnitudeLimit`. A corrupted residual poisons every rank
/// identically (the Allreduce replicates it), so one local scan suffices.
void guardVector(const char* what, const std::vector<double>& v,
                 double magnitudeLimit);

}  // namespace hplmxp
