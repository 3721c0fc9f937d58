// Triangular matrix-vector solve: op(A) * x = b, x overwrites b.
//
// Iterative refinement solves L*(U*d) = r with TRSV_LOW then TRSV_UP on
// the CPU (Algorithm 1, line 47). The factors are FP32 but the solve
// accumulates in FP64 ("mixed FP32/FP64, stored in double"), which
// strsvMixed reproduces. It is column-oriented: once x[j] is solved (one
// scalar divide by the diagonal when non-unit), column j's update of the
// rows below (Lower) or above (Upper) it is one widening axpy, which runs
// 8 doubles per op on the AVX-512 path (blas/isa.h) with the scalar loop's
// multiply and subtract per element, so both paths give the same bits.
#pragma once

#include "blas/types.h"
#include "util/common.h"

namespace hplmxp::blas {

/// FP64 TRSV.
void dtrsv(Uplo uplo, Diag diag, index_t n, const double* a, index_t lda,
           double* x);

/// FP32 TRSV.
void strsv(Uplo uplo, Diag diag, index_t n, const float* a, index_t lda,
           float* x);

/// Mixed-precision TRSV: FP32 triangular factor, FP64 right-hand side and
/// accumulation. This matches the paper's IR correction solve.
void strsvMixed(Uplo uplo, Diag diag, index_t n, const float* a, index_t lda,
                double* x);

}  // namespace hplmxp::blas
