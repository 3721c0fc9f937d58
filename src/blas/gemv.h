// Mixed-precision matrix-vector product: y += A * x with an FP32 matrix and
// FP64 vectors and accumulation.
//
// The distributed block TRSV of iterative refinement (core/dist_kernels.h,
// Algorithm 1, line 47) pushes each solved segment into the rows below (or
// above) it with this product over the rank's FP32 LU blocks. The FP64
// residual r = b - A*x never forms A; it regenerates A tile by tile
// (ProblemGenerator::accumulateTile).
#pragma once

#include "blas/types.h"
#include "util/common.h"

namespace hplmxp::blas {

/// y[0:m) += A(m x n) * x[0:n): FP32 A (column-major, leading dimension
/// lda), FP64 x and y. Each y[i] receives its products one column at a
/// time in ascending j, one multiply then one add, so the result is bitwise
/// the plain column loop on every path.
void gemvMixed(index_t m, index_t n, const float* a, index_t lda,
               const double* x, double* y);

}  // namespace hplmxp::blas
