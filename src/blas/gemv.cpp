#include "blas/gemv.h"

#include <cstdint>

#include "blas/isa.h"
#include "util/simd.h"

namespace hplmxp::blas {

namespace {

template <bool kSubtract>
void axpyMixedScalar(index_t n, const float* a, double s, double* y) {
  for (index_t i = 0; i < n; ++i) {
    if constexpr (kSubtract) {
      y[i] -= static_cast<double>(a[i]) * s;
    } else {
      y[i] += static_cast<double>(a[i]) * s;
    }
  }
}

#if HPLMXP_HAVE_AVX512
// Columns gemvMixed prefetches ahead of the one it works on. With a local
// LU's leading dimension of 1,024 floats or more, each column of a block
// sits on its own 4 KB page, a stride the hardware prefetcher does not
// follow, so without this every column waits on its loads; 8 columns of
// 128 rows put 4 KB in flight.
constexpr index_t kPrefetchColumns = 8;

/// 8 doubles per op: vcvtps2pd widens 8 floats, then vmulpd and vsubpd or
/// vaddpd, the scalar loop's two roundings in its order; the last n % 8
/// elements take the scalar loop.
template <bool kSubtract>
HPLMXP_AVX512 void axpyMixedAvx512(index_t n, const float* a, double s,
                                   double* y) {
  const __m512d vs = _mm512_set1_pd(s);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // The zero-masked form with a full mask is the plain vcvtps2pd; the
    // unmasked intrinsic trips a GCC 12 -Wmaybe-uninitialized false
    // positive on its undefined pass-through.
    const __m512d p =
        _mm512_mul_pd(_mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(a + i)), vs);
    const __m512d v = _mm512_loadu_pd(y + i);
    _mm512_storeu_pd(y + i,
                     kSubtract ? _mm512_sub_pd(v, p) : _mm512_add_pd(v, p));
  }
  axpyMixedScalar<kSubtract>(n - i, a + i, s, y + i);
}

/// gemvMixed's AVX-512 path: one axpy per column, with the column
/// kPrefetchColumns ahead prefetched line by line.
HPLMXP_AVX512 void gemvMixedAvx512(index_t m, index_t n, const float* a,
                                   index_t lda, const double* x, double* y) {
  const auto bytes = static_cast<std::uintptr_t>(m) * sizeof(float);
  for (index_t j = 0; j < n; ++j) {
    const float* col = a + j * lda;
    if (j + kPrefetchColumns < n) {
      const auto ahead =
          reinterpret_cast<std::uintptr_t>(col + kPrefetchColumns * lda);
      for (std::uintptr_t line = ahead & ~std::uintptr_t{63};
           line < ahead + bytes; line += 64) {
        _mm_prefetch(reinterpret_cast<const char*>(line), _MM_HINT_T0);
      }
    }
    axpyMixedAvx512<false>(m, col, x[j], y);
  }
}
#endif

}  // namespace

template <bool kSubtract>
void detail::axpyMixed([[maybe_unused]] Isa isa, index_t n, const float* a,
                       double s, double* y) {
#if HPLMXP_HAVE_AVX512
  if (isa == Isa::kAvx512) {
    axpyMixedAvx512<kSubtract>(n, a, s, y);
    return;
  }
#endif
  axpyMixedScalar<kSubtract>(n, a, s, y);
}

template void detail::axpyMixed<true>(Isa, index_t, const float*, double,
                                      double*);
template void detail::axpyMixed<false>(Isa, index_t, const float*, double,
                                       double*);

void detail::gemvMixed([[maybe_unused]] Isa isa, index_t m, index_t n,
                       const float* a, index_t lda, const double* x,
                       double* y) {
  HPLMXP_REQUIRE(m >= 0 && n >= 0, "gemvMixed: negative extent");
  HPLMXP_REQUIRE(lda >= (m > 0 ? m : 1), "gemvMixed: lda too small");
#if HPLMXP_HAVE_AVX512
  if (isa == Isa::kAvx512) {
    gemvMixedAvx512(m, n, a, lda, x, y);
    return;
  }
#endif
  for (index_t j = 0; j < n; ++j) {
    axpyMixedScalar<false>(m, a + j * lda, x[j], y);
  }
}

void gemvMixed(index_t m, index_t n, const float* a, index_t lda,
               const double* x, double* y) {
  detail::gemvMixed(hostIsa(), m, n, a, lda, x, y);
}

}  // namespace hplmxp::blas
