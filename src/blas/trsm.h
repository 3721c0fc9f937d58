// Triangular solve with multiple right-hand sides:
//   Side::kLeft :  op(A) * X = alpha * B   (X overwrites B)
//   Side::kRight:  X * op(A) = alpha * B
//
// Algorithm 1 uses two variants per iteration ("Panel Update"):
//   * TRSM_L_LOW  — Left / Lower / Unit: U(k, k+1:n) = L11^{-1} A(k, k+1:n)
//   * TRSM_R_UP   — Right / Upper / NonUnit: L(k+1:n, k) = A(k+1:n, k) U11^{-1}
//
// The triangular matrix A is B x B (small); B has panel shape. FP32
// (Left, Lower) and (Right, Upper) — Algorithm 1's two panel solves and
// the two inside getrfNoPiv — run a lane kernel on the path the process
// selected (blas/isa.h). Each right-hand side is an independent solve, so
// 32 of them sit in the lanes of a slab (a (Left, Lower) tile is
// transposed into it), and the kernel solves the slab left-looking against
// the triangle, packed once per call, holding 8 of its columns in
// registers. Every element still receives its products one at a time in
// ascending order, one multiply then one subtract, then its divide, so the
// lane kernel is bitwise the stripe substitution. The other variants, and
// dtrsm, run the stripe substitution over the whole triangle. Both are
// parallelized over right-hand-side columns (kLeft) or rows (kRight); the
// lane kernel gives each lane of the pool one range of tiles.
#pragma once

#include "blas/types.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace hplmxp::blas {

/// FP32 TRSM (no transpose of the triangular factor; both side/uplo/diag
/// combinations used by HPL-AI and their mirrors are supported).
void strsm(Side side, Uplo uplo, Diag diag, index_t m, index_t n, float alpha,
           const float* a, index_t lda, float* b, index_t ldb,
           ThreadPool* pool = nullptr);

/// FP64 TRSM for the HPL comparison path.
void dtrsm(Side side, Uplo uplo, Diag diag, index_t m, index_t n, double alpha,
           const double* a, index_t lda, double* b, index_t ldb,
           ThreadPool* pool = nullptr);

/// Mixed-precision TRSM over the whole n x n factor: FP32 triangular
/// factor, FP64 right-hand sides and accumulation — the multi-RHS
/// analogue of strsvMixed (trsv.h) used by batched iterative refinement.
/// X is n x nrhs column-major with leading dimension ldx; op(A) is
/// NoTrans. Each right-hand-side column is one strsvMixed solve, and the
/// columns are spread over the pool's lanes. A batch saves the work around
/// the solves (one residual sweep per step for all columns), not the
/// solves: a scalar solve blocked into stripes of the factor reused across
/// columns took 1.5-2.1x as long as one vectorised solve per column at
/// every n and nrhs measured.
///
/// Bitwise contract: every column of X receives exactly the FP operation
/// sequence strsvMixed would apply to it in isolation, so batched
/// refinement trajectories are bit-for-bit identical to single-RHS ones
/// (tests/test_solve_many.cpp).
void strsmMixed(Uplo uplo, Diag diag, index_t n, index_t nrhs, const float* a,
                index_t lda, double* x, index_t ldx,
                ThreadPool* pool = nullptr);

/// Full-surface TRSM with an op(A) transpose flag (the complete BLAS
/// signature; op(A)=A^T solves arise in left-looking LU and least-squares
/// variants). The four-argument overloads above are the NoTrans shorthand.
void strsm(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n,
           float alpha, const float* a, index_t lda, float* b, index_t ldb,
           ThreadPool* pool = nullptr);
void dtrsm(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n,
           double alpha, const double* a, index_t lda, double* b, index_t ldb,
           ThreadPool* pool = nullptr);

/// Flop count convention for TRSM: m*n*k where k is the triangle order
/// (i.e. n*m^2 for Left, m*n^2 for Right).
constexpr double trsmFlops(Side side, index_t m, index_t n) {
  return side == Side::kLeft
             ? static_cast<double>(n) * static_cast<double>(m) *
                   static_cast<double>(m)
             : static_cast<double>(m) * static_cast<double>(n) *
                   static_cast<double>(n);
}

}  // namespace hplmxp::blas
