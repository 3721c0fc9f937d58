#include "blas/trsv.h"

#include "blas/isa.h"

namespace hplmxp::blas {

namespace {

/// Column-oriented substitution. TA: factor type; TX: vector/accumulator
/// type. subtractScaled(len, a, s, y) does y[i] -= TX(a[i]) * s for i <
/// len: the update of column j, with s = x[j] once solved.
template <typename TA, typename TX, typename SubtractScaled>
void trsvCore(Uplo uplo, Diag diag, index_t n, const TA* a, index_t lda,
              TX* x, SubtractScaled subtractScaled) {
  HPLMXP_REQUIRE(n >= 0, "trsv: n must be >= 0");
  HPLMXP_REQUIRE(lda >= (n > 0 ? n : 1), "trsv: lda too small");
  if (uplo == Uplo::kLower) {
    // Forward substitution: column j updates the rows below it.
    for (index_t j = 0; j < n; ++j) {
      const TA* col = a + j * lda;
      if (diag == Diag::kNonUnit) {
        x[j] /= static_cast<TX>(col[j]);
      }
      subtractScaled(n - j - 1, col + j + 1, x[j], x + j + 1);
    }
  } else {
    // Backward substitution: column j updates the rows above it.
    for (index_t j = n - 1; j >= 0; --j) {
      const TA* col = a + j * lda;
      if (diag == Diag::kNonUnit) {
        x[j] /= static_cast<TX>(col[j]);
      }
      subtractScaled(j, col, x[j], x);
    }
  }
}

/// The update of dtrsv and strsv, whose factor and vector share a type.
constexpr auto kSubtractScaled = [](index_t len, const auto* a, auto s,
                                    auto* y) {
  for (index_t i = 0; i < len; ++i) {
    y[i] -= a[i] * s;
  }
};

}  // namespace

void dtrsv(Uplo uplo, Diag diag, index_t n, const double* a, index_t lda,
           double* x) {
  trsvCore(uplo, diag, n, a, lda, x, kSubtractScaled);
}

void strsv(Uplo uplo, Diag diag, index_t n, const float* a, index_t lda,
           float* x) {
  trsvCore(uplo, diag, n, a, lda, x, kSubtractScaled);
}

void detail::strsvMixed(Isa isa, Uplo uplo, Diag diag, index_t n,
                        const float* a, index_t lda, double* x) {
  trsvCore(uplo, diag, n, a, lda, x,
           [isa](index_t len, const float* col, double s, double* y) {
             axpyMixed<true>(isa, len, col, s, y);
           });
}

void strsvMixed(Uplo uplo, Diag diag, index_t n, const float* a, index_t lda,
                double* x) {
  detail::strsvMixed(hostIsa(), uplo, diag, n, a, lda, x);
}

}  // namespace hplmxp::blas
