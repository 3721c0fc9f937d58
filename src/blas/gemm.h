// General matrix-matrix multiply: C = alpha * op(A) * op(B) + beta * C.
//
// Three instantiations mirror the paper's kernels:
//   * sgemm  — FP32 x FP32 -> FP32 (panel-sized products inside GETRF/TRSM)
//   * dgemm  — FP64 path used by the HPL comparison and verification
//   * gemmMixed — FP16 inputs, FP32 accumulate: the heart of HPL-AI
//     (cublasSgemmEx / rocblas_gemm_ex with HALF inputs, FLOAT compute).
//
// Implementation: BLIS-style register-blocked packing GEMM. Per k panel,
// op(A) and op(B) are packed once into zero-padded microkernel strips in a
// persistent pool-owned arena (packed A is shared across all column blocks
// and packed B across all row blocks — nothing is re-packed, and the hot
// loop never touches the allocator), then an MR x NR register-accumulator
// microkernel sweeps (mc x nc) macro-tiles under 2D parallelism on the
// shared ThreadPool. The packing step performs both the transposition
// and, for gemmMixed, the half->float widening, which is exactly the data
// flow of a tensor-core MMA pipeline: FP16 operands are widened on load
// and accumulated in FP32. The FP32-accumulate kernels run on the path the
// process selected from CPUID (blas/isa.h): a 24x2 scalar tile, or a 32x8
// AVX-512 tile whose binary16 packing widens with vcvtph2ps. dgemm always
// runs the scalar kernel.
//
// Determinism contract: every C element accumulates its k contributions in
// ascending order, one multiply and then one add per step, independent of
// the kernel path, the thread count and the (mc, nc, kc) blocking (see
// blas/tune.h). Never an FMA: a fused multiply-add rounds once where the
// contract rounds twice, so it would change every bit of the LU. The
// AVX-512 path runs on hosts that have FMA, and GCC's default
// -ffp-contract=fast fuses even an intrinsic _mm512_mul_ps feeding
// _mm512_add_ps into vfmadd, so src/blas compiles with -ffp-contract=off.
// Results are bitwise identical to the pre-rewrite kernel
// (blas/gemm_baseline.h) on every path, which the look-ahead equivalence
// suite and the pinned answers depend on.
#pragma once

#include "blas/types.h"
#include "fp16/half.h"
#include "lowp/bfloat16.h"
#include "lowp/fp8.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace hplmxp::blas {

/// FP32 GEMM.
void sgemm(Trans transA, Trans transB, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b,
           index_t ldb, float beta, float* c, index_t ldc,
           ThreadPool* pool = nullptr);

/// FP64 GEMM.
void dgemm(Trans transA, Trans transB, index_t m, index_t n, index_t k,
           double alpha, const double* a, index_t lda, const double* b,
           index_t ldb, double beta, double* c, index_t ldc,
           ThreadPool* pool = nullptr);

/// Mixed-precision GEMM over the storage ladder: A and B are a
/// low-precision storage type (binary16 / bfloat16 / fp8e4m3 / fp8e5m2),
/// C and the accumulator are FP32. Operands widen to FP32 during packing,
/// so every rung shares the identical accumulation path — only the
/// widening table differs. Instantiated for the four ladder rungs.
template <typename TLow>
void gemmLowp(Trans transA, Trans transB, index_t m, index_t n, index_t k,
              float alpha, const TLow* a, index_t lda, const TLow* b,
              index_t ldb, float beta, float* c, index_t ldc,
              ThreadPool* pool = nullptr);

/// Mixed-precision GEMM: A and B are binary16, C and the accumulator are
/// FP32. This is the "Update Trailing Matrix" kernel of Algorithm 1.
/// (The binary16 instantiation of gemmLowp, kept under its historical
/// name; bitwise-identical to the pre-ladder kernel.)
void gemmMixed(Trans transA, Trans transB, index_t m, index_t n, index_t k,
               float alpha, const half16* a, index_t lda, const half16* b,
               index_t ldb, float beta, float* c, index_t ldc,
               ThreadPool* pool = nullptr);

/// Flop count convention for GEMM: 2*m*n*k.
constexpr double gemmFlops(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace hplmxp::blas
