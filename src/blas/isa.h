// The BLAS kernels' paths: the instruction-set seam.
//
// The hot kernels of Algorithm 1 — the packed FP32-accumulate GEMM
// (sgemm, gemmMixed/gemmLowp), binary16 CAST and TRANS_CAST, and the
// FP32 panel TRSM with the LU panel around it — each have a portable
// scalar path and an AVX-512 path, picked once from CPUID (util/isa.h).
// Both paths do the same arithmetic per element (a multiply, then an add,
// in ascending k; binary16 rounding to nearest even), so they produce
// identical bits. The one FMA is the AVX-512 binary16 GEMM's with alpha
// = +1 or -1: there every product is exact in binary32, so the fused
// multiply-add rounds exactly as the multiply and the add do.
//
// blas::detail below is the internal seam that runs a kernel on an
// explicitly named path. The public kernels pass hostIsa(); the tests pass
// every path the host supports and memcmp the results.
#pragma once

#include "blas/types.h"
#include "fp16/half.h"
#include "util/common.h"
#include "util/isa.h"
#include "util/thread_pool.h"

namespace hplmxp::blas {

namespace detail {

/// C = alpha * op(A) * op(B) + beta * C with FP32 C and accumulation on
/// path `isa`. TIn is float (sgemm) or a storage-ladder type (gemmLowp).
template <typename TIn>
void gemm(Isa isa, Trans transA, Trans transB, index_t m, index_t n,
          index_t k, float alpha, const TIn* a, index_t lda, const TIn* b,
          index_t ldb, float beta, float* c, index_t ldc, ThreadPool* pool);

/// dst[i] = half16(src[i]) for i < count, on path `isa`.
void narrowToHalf(Isa isa, index_t count, const float* src, half16* dst);

/// castToHalf / transCastToHalf on path `isa`.
void castToHalf(Isa isa, index_t m, index_t n, const float* src,
                index_t ldSrc, half16* dst, index_t ldDst, ThreadPool* pool);
void transCastToHalf(Isa isa, index_t m, index_t n, const float* src,
                     index_t ldSrc, half16* dst, index_t ldDst,
                     ThreadPool* pool);

/// strsm (no transpose) on path `isa`: (Left, Lower) and (Right, Upper)
/// run the lane kernel, the other two run strsmUnblocked.
void strsm(Isa isa, Side side, Uplo uplo, Diag diag, index_t m, index_t n,
           float alpha, const float* a, index_t lda, float* b, index_t ldb,
           ThreadPool* pool);

/// The unblocked stripe substitution over the whole triangle, portable
/// code on every path: the solver of the other two variants, and the lane
/// kernel's reference.
void strsmUnblocked(Side side, Uplo uplo, Diag diag, index_t m, index_t n,
                    float alpha, const float* a, index_t lda, float* b,
                    index_t ldb, ThreadPool* pool);

}  // namespace detail

}  // namespace hplmxp::blas
