// Instruction-set paths of the BLAS kernels.
//
// The hot kernels of Algorithm 1 — the packed FP32-accumulate GEMM
// (sgemm, gemmMixed/gemmLowp), binary16 CAST and TRANS_CAST, and the
// blocked FP32 TRSM with the LU panel around it — each have a portable
// scalar path and an AVX-512F+F16C path. The process picks one path once,
// from CPUID, the first time it asks (hostIsa()); there is no option,
// environment variable or config field. Both paths do the same arithmetic
// per element (a multiply, then an add, in ascending k; binary16 rounding
// to nearest even), so they produce identical bits. The scalar path runs
// on hosts without AVX-512 and is the reference the tests compare with.
//
// blas::detail below is the internal seam that runs a kernel on an
// explicitly named path. The public kernels pass hostIsa(); the tests pass
// every path the host supports and memcmp the results.
#pragma once

#include "blas/types.h"
#include "fp16/half.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace hplmxp::blas {

enum class Isa {
  kScalar,  // portable C++, the build's baseline ISA
  kAvx512,  // AVX-512F + F16C, per-function target attributes
};

/// The path this process runs: kAvx512 when CPUID reports AVX-512F and
/// F16C (with OS support for the zmm state), else kScalar. Detected once.
[[nodiscard]] Isa hostIsa();

/// True when kernels of `isa` can execute on this host.
[[nodiscard]] bool isaSupported(Isa isa);

/// "scalar" or "avx512".
[[nodiscard]] const char* isaName(Isa isa);

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
/// are blocked, the other two run strsmUnblocked.
void strsm(Isa isa, Side side, Uplo uplo, Diag diag, index_t m, index_t n,
           float alpha, const float* a, index_t lda, float* b, index_t ldb,
           ThreadPool* pool);

/// The unblocked stripe substitution over the whole triangle: the
/// in-block solver of the blocked strsm, and its reference.
void strsmUnblocked(Isa isa, Side side, Uplo uplo, Diag diag, index_t m,
                    index_t n, float alpha, const float* a, index_t lda,
                    float* b, index_t ldb, ThreadPool* pool);

}  // namespace detail

}  // namespace hplmxp::blas
