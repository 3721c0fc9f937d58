#include "device/shim.h"

#include <sstream>

namespace hplmxp {

std::string BlasShim::kernelConfig() const {
  const blas::Isa isa = blas::hostIsa();
  const blas::GemmTile tile = blas::gemmTile(isa);
  const blas::GemmBlocking bl = blas::gemmBlocking();
  std::ostringstream os;
  os << "isa=" << blas::isaName(isa) << " mr=" << tile.mr
     << " nr=" << tile.nr << " mc=" << bl.mc << " nc=" << bl.nc
     << " kc=" << bl.kc;
  return os.str();
}

BlasShim::BlasShim(Vendor vendor, ThreadPool* pool)
    : vendor_(vendor), pool_(pool) {
  if (vendor_ == Vendor::kNvidia) {
    names_ = ShimRoutineNames{"cublasSgemmEx", "cublasStrsm",
                              "cusolverDnSgetrf", "openBLAS dtrsv"};
  } else {
    names_ = ShimRoutineNames{"rocblas_gemm_ex", "rocblas_strsm",
                              "rocsolver_sgetrf", "openBLAS dtrsv"};
  }
}

void BlasShim::gemmEx(blas::Trans ta, blas::Trans tb, index_t m, index_t n,
                      index_t k, float alpha, const half16* a, index_t lda,
                      const half16* b, index_t ldb, float beta, float* c,
                      index_t ldc) {
  ++counts_.gemm;
  blas::gemmMixed(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                  pool_);
}

void BlasShim::trsm(blas::Side side, blas::Uplo uplo, blas::Diag diag,
                    index_t m, index_t n, float alpha, const float* a,
                    index_t lda, float* b, index_t ldb) {
  ++counts_.trsm;
  blas::strsm(side, uplo, diag, m, n, alpha, a, lda, b, ldb, pool_);
}

std::size_t BlasShim::getrfBufferSize(index_t n, index_t lda) {
  ++counts_.getrfBufferSize;
  workspaceQueriedFor_ = n;
  // cuSOLVER-style workspace estimate: one panel of the blocked algorithm.
  return static_cast<std::size_t>(lda) * 64 * sizeof(float);
}

void BlasShim::getrf(index_t n, float* a, index_t lda) {
  if (vendor_ == Vendor::kNvidia) {
    // The cuSOLVER protocol: factorization without the prior workspace
    // query is an API-usage error. This is the concrete Table II quirk the
    // paper calls out as needing non-HIP shim code.
    HPLMXP_REQUIRE(workspaceQueriedFor_ == n,
                   "cusolverDnSgetrf requires a matching "
                   "cusolverDnSgetrf_bufferSize call first");
    workspaceQueriedFor_ = -1;
  }
  ++counts_.getrf;
  blas::getrfNoPiv(n, a, lda, pool_);
}

void BlasShim::trsv(blas::Uplo uplo, blas::Diag diag, index_t n,
                    const float* a, index_t lda, double* x) {
  ++counts_.trsv;
  blas::strsvMixed(uplo, diag, n, a, lda, x);
}

}  // namespace hplmxp
