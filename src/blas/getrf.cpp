#include "blas/getrf.h"

#include <cmath>

#include "blas/gemm.h"
#include "blas/isa.h"
#include "util/simd.h"
#include "blas/trsm.h"

namespace hplmxp::blas {

namespace {

constexpr index_t kPanel = 64;  // panel width of the blocked factorization

/// Unblocked no-pivot LU of an m x nb panel (m >= nb): factors the top
/// nb x nb triangle and applies the eliminations to the rows below.
/// Always inlined, so the AVX-512 wrapper below compiles it for AVX-512.
template <typename T>
[[gnu::always_inline]] inline void panelFactorNoPiv(index_t m, index_t nb,
                                                    T* a, index_t lda) {
  for (index_t k = 0; k < nb; ++k) {
    T* col = a + k * lda;
    const T pivot = col[k];
    HPLMXP_REQUIRE(pivot != T{0}, "getrfNoPiv: zero pivot");
    const T inv = T{1} / pivot;
    for (index_t i = k + 1; i < m; ++i) {
      col[i] *= inv;
    }
    for (index_t j = k + 1; j < nb; ++j) {
      T* cj = a + j * lda;
      const T up = cj[k];
      for (index_t i = k + 1; i < m; ++i) {
        cj[i] -= col[i] * up;
      }
    }
  }
}

#if HPLMXP_HAVE_AVX512
// Element-wise (one multiply, then one subtract, per update), so the
// AVX-512 build rounds exactly like the scalar one.
HPLMXP_AVX512 void panelFactorAvx512(index_t m, index_t nb, float* a,
                                     index_t lda) {
  panelFactorNoPiv(m, nb, a, lda);
}
#endif

inline void panelFactor(index_t m, index_t nb, float* a, index_t lda) {
#if HPLMXP_HAVE_AVX512
  if (hostIsa() == Isa::kAvx512) {
    panelFactorAvx512(m, nb, a, lda);
    return;
  }
#endif
  panelFactorNoPiv(m, nb, a, lda);
}
inline void panelFactor(index_t m, index_t nb, double* a, index_t lda) {
  panelFactorNoPiv(m, nb, a, lda);
}

inline void trsmDispatch(Side s, Uplo u, Diag d, index_t m, index_t n,
                         float alpha, const float* a, index_t lda, float* b,
                         index_t ldb, ThreadPool* pool) {
  strsm(s, u, d, m, n, alpha, a, lda, b, ldb, pool);
}
inline void trsmDispatch(Side s, Uplo u, Diag d, index_t m, index_t n,
                         double alpha, const double* a, index_t lda, double* b,
                         index_t ldb, ThreadPool* pool) {
  dtrsm(s, u, d, m, n, alpha, a, lda, b, ldb, pool);
}
inline void gemmDispatch(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                         float alpha, const float* a, index_t lda,
                         const float* b, index_t ldb, float beta, float* c,
                         index_t ldc, ThreadPool* pool) {
  sgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, pool);
}
inline void gemmDispatch(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                         double alpha, const double* a, index_t lda,
                         const double* b, index_t ldb, double beta, double* c,
                         index_t ldc, ThreadPool* pool) {
  dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, pool);
}

template <typename T>
void getrfNoPivCore(index_t n, T* a, index_t lda, ThreadPool* pool) {
  HPLMXP_REQUIRE(n >= 0, "getrf: n must be >= 0");
  HPLMXP_REQUIRE(lda >= (n > 0 ? n : 1), "getrf: lda too small");
  for (index_t k = 0; k < n; k += kPanel) {
    const index_t nb = std::min(kPanel, n - k);
    T* akk = a + k + k * lda;
    panelFactor(n - k, nb, akk, lda);
    const index_t rest = n - k - nb;
    if (rest > 0) {
      // U block row: L11^{-1} * A12.
      trsmDispatch(Side::kLeft, Uplo::kLower, Diag::kUnit, nb, rest, T{1}, akk,
                   lda, akk + nb * lda, lda, pool);
      // Trailing update: A22 -= L21 * U12.
      gemmDispatch(Trans::kNoTrans, Trans::kNoTrans, rest, rest, nb, T{-1},
                   akk + nb, lda, akk + nb * lda, lda, T{1},
                   akk + nb + nb * lda, lda, pool);
    }
  }
}

}  // namespace

void getrfNoPiv(index_t n, float* a, index_t lda, ThreadPool* pool) {
  getrfNoPivCore<float>(n, a, lda, pool);
}

void dgetrfNoPiv(index_t n, double* a, index_t lda, ThreadPool* pool) {
  getrfNoPivCore<double>(n, a, lda, pool);
}

void dgetrf(index_t n, double* a, index_t lda, std::vector<index_t>& ipiv,
            ThreadPool* pool) {
  HPLMXP_REQUIRE(n >= 0, "dgetrf: n must be >= 0");
  HPLMXP_REQUIRE(lda >= (n > 0 ? n : 1), "dgetrf: lda too small");
  ipiv.assign(static_cast<std::size_t>(n), 0);

  for (index_t k0 = 0; k0 < n; k0 += kPanel) {
    const index_t nb = std::min(kPanel, n - k0);
    // Unblocked partial-pivot factorization of the panel [k0:n, k0:k0+nb],
    // applying each row swap across the full matrix width.
    for (index_t k = k0; k < k0 + nb; ++k) {
      // Pivot search in column k below (and including) row k.
      index_t piv = k;
      double best = std::fabs(a[k + k * lda]);
      for (index_t i = k + 1; i < n; ++i) {
        const double v = std::fabs(a[i + k * lda]);
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      HPLMXP_REQUIRE(best != 0.0, "dgetrf: singular matrix");
      ipiv[static_cast<std::size_t>(k)] = piv;
      if (piv != k) {
        for (index_t j = 0; j < n; ++j) {
          std::swap(a[k + j * lda], a[piv + j * lda]);
        }
      }
      double* col = a + k * lda;
      const double inv = 1.0 / col[k];
      for (index_t i = k + 1; i < n; ++i) {
        col[i] *= inv;
      }
      // Rank-1 update restricted to the panel; the block row/trailing
      // matrix are updated with TRSM/GEMM below.
      for (index_t j = k + 1; j < k0 + nb; ++j) {
        double* cj = a + j * lda;
        const double up = cj[k];
        for (index_t i = k + 1; i < n; ++i) {
          cj[i] -= col[i] * up;
        }
      }
    }
    const index_t rest = n - k0 - nb;
    if (rest > 0) {
      double* akk = a + k0 + k0 * lda;
      dtrsm(Side::kLeft, Uplo::kLower, Diag::kUnit, nb, rest, 1.0, akk, lda,
            akk + nb * lda, lda, pool);
      dgemm(Trans::kNoTrans, Trans::kNoTrans, rest, rest, nb, -1.0, akk + nb,
            lda, akk + nb * lda, lda, 1.0, akk + nb + nb * lda, lda, pool);
    }
  }
}

}  // namespace hplmxp::blas
