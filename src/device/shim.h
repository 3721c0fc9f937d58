// Cross-platform BLAS dispatch shim (Table II).
//
// The paper built "a thin shim layer using a macro approach" because HIP
// alone did not cover every library-API difference between CUDA and ROCm —
// the worked example being GETRF, where cuSOLVER needs an explicit
// workspace query (cusolverDnSgetrf_bufferSize) before the factorization
// while rocSOLVER is a single call. This module reproduces that design as
// a typed dispatch object: both vendors route to the same CPU kernels, but
// the NVIDIA backend *enforces* the two-step GETRF protocol and each
// backend reports its vendor routine names, so the cross-platform quirks
// stay visible and testable.
#pragma once

#include <cstddef>
#include <string>

#include "blas/blas.h"
#include "device/device.h"
#include "fp16/half.h"
#include "util/common.h"

namespace hplmxp {

/// Per-routine vendor names, as in Table II.
struct ShimRoutineNames {
  std::string gemm;
  std::string trsm;
  std::string getrf;
  std::string trsv;
};

/// Counters so tests/benches can observe the dispatch behaviour.
struct ShimCallCounts {
  long gemm = 0;
  long trsm = 0;
  long getrf = 0;
  long getrfBufferSize = 0;
  long trsv = 0;
};

/// The vendor-parameterized BLAS entry point used by the core algorithm.
class BlasShim {
 public:
  explicit BlasShim(Vendor vendor, ThreadPool* pool = nullptr);

  [[nodiscard]] Vendor vendor() const { return vendor_; }
  [[nodiscard]] const ShimRoutineNames& routineNames() const {
    return names_;
  }
  [[nodiscard]] const ShimCallCounts& callCounts() const { return counts_; }

  /// The GEMM macro-blocking gemmEx currently dispatches into — the
  /// process-wide setting installed by the autotuner (perfmodel/autotune.h).
  [[nodiscard]] blas::GemmBlocking gemmBlocking() const {
    return blas::gemmBlocking();
  }

  /// One-line description of the active kernel configuration, e.g.
  /// "isa=avx512 mr=32 nr=8 mc=128 nc=240 kc=256" (the kernel path chosen
  /// from CPUID, its FP32 microkernel shape, and the macro blocking).
  /// Benches print this next to the vendor routine names so runs record
  /// which tuning they measured.
  [[nodiscard]] std::string kernelConfig() const;

  /// Mixed-precision GEMM (cublasSgemmEx / rocblas_gemm_ex).
  void gemmEx(blas::Trans ta, blas::Trans tb, index_t m, index_t n, index_t k,
              float alpha, const half16* a, index_t lda, const half16* b,
              index_t ldb, float beta, float* c, index_t ldc);

  /// Mixed-precision GEMM over the other storage-ladder rungs (the
  /// cublasGemmEx compute-type matrix: BF16/FP8 inputs, FP32 compute).
  /// Same dispatch counter as the binary16 overload.
  template <typename TLow>
  void gemmExLowp(blas::Trans ta, blas::Trans tb, index_t m, index_t n,
                  index_t k, float alpha, const TLow* a, index_t lda,
                  const TLow* b, index_t ldb, float beta, float* c,
                  index_t ldc) {
    ++counts_.gemm;
    blas::gemmLowp<TLow>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                         ldc, pool_);
  }

  /// FP32 TRSM (cublasStrsm / rocblas_strsm).
  void trsm(blas::Side side, blas::Uplo uplo, blas::Diag diag, index_t m,
            index_t n, float alpha, const float* a, index_t lda, float* b,
            index_t ldb);

  /// Workspace query required by the cuSOLVER protocol. On the NVIDIA
  /// backend getrf() throws unless the matching bufferSize call was made
  /// first; on AMD it is a harmless no-op (rocSOLVER is single-call).
  [[nodiscard]] std::size_t getrfBufferSize(index_t n, index_t lda);

  /// FP32 no-pivot LU (cusolverDnSgetrf / rocsolver_sgetrf).
  void getrf(index_t n, float* a, index_t lda);

  /// FP32-factor / FP64-vector TRSV (openBLAS on the host in the paper).
  void trsv(blas::Uplo uplo, blas::Diag diag, index_t n, const float* a,
            index_t lda, double* x);

 private:
  Vendor vendor_;
  ThreadPool* pool_;
  ShimRoutineNames names_;
  ShimCallCounts counts_;
  index_t workspaceQueriedFor_ = -1;  // NVIDIA GETRF protocol state
};

}  // namespace hplmxp
