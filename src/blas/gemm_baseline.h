// The pre-rewrite cache-blocked GEMM, retained verbatim as an oracle.
//
// The register-blocked kernel in gemm.cpp must produce bitwise-identical
// results to this implementation (both accumulate each C element in
// ascending-k order with the same per-step arithmetic), which is what lets
// the look-ahead equivalence suite and the IR trajectory stay stable across
// the rewrite. Tests assert the identity; the kernel benchmarks use this
// as the before/after baseline. Not for production call sites.
#pragma once

#include "blas/types.h"
#include "fp16/half.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace hplmxp::blas::baseline {

void sgemm(Trans transA, Trans transB, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b,
           index_t ldb, float beta, float* c, index_t ldc,
           ThreadPool* pool = nullptr);

void dgemm(Trans transA, Trans transB, index_t m, index_t n, index_t k,
           double alpha, const double* a, index_t lda, const double* b,
           index_t ldb, double beta, double* c, index_t ldc,
           ThreadPool* pool = nullptr);

void gemmMixed(Trans transA, Trans transB, index_t m, index_t n, index_t k,
               float alpha, const half16* a, index_t lda, const half16* b,
               index_t ldb, float beta, float* c, index_t ldc,
               ThreadPool* pool = nullptr);

}  // namespace hplmxp::blas::baseline
