#include "blas/trsm.h"

#include <type_traits>

#include "blas/gemm.h"
#include "blas/isa.h"
#include "blas/simd.h"

namespace hplmxp::blas {

namespace {

// Number of RHS columns (kLeft) or rows (kRight) per parallel task.
constexpr index_t kStripe = 32;

// Order of the diagonal blocks of the blocked strsm.
constexpr index_t kTrsmBlock = 32;

template <typename T>
void scaleColumns(T* b, index_t ldb, index_t m, index_t j0, index_t j1,
                  T alpha) {
  if (alpha == T{1}) {
    return;
  }
  for (index_t j = j0; j < j1; ++j) {
    T* col = b + j * ldb;
    for (index_t i = 0; i < m; ++i) {
      col[i] *= alpha;
    }
  }
}

/// Left-side solve on columns [j0, j1): op is forward (Lower) or backward
/// (Upper) substitution, column-oriented so the inner update vectorizes.
/// Always inlined, so the AVX-512 wrapper below compiles it for AVX-512.
template <typename T>
[[gnu::always_inline]] inline void leftSolveStripe(Uplo uplo, Diag diag,
                                                   index_t m, const T* a,
                                                   index_t lda, T* b,
                                                   index_t ldb, index_t j0,
                                                   index_t j1) {
  if (uplo == Uplo::kLower) {
    for (index_t l = 0; l < m; ++l) {
      const T* acol = a + l * lda;
      const T pivot = acol[l];
      for (index_t j = j0; j < j1; ++j) {
        T* bcol = b + j * ldb;
        if (diag == Diag::kNonUnit) {
          bcol[l] /= pivot;
        }
        const T x = bcol[l];
        for (index_t i = l + 1; i < m; ++i) {
          bcol[i] -= acol[i] * x;
        }
      }
    }
  } else {
    for (index_t l = m - 1; l >= 0; --l) {
      const T* acol = a + l * lda;
      const T pivot = acol[l];
      for (index_t j = j0; j < j1; ++j) {
        T* bcol = b + j * ldb;
        if (diag == Diag::kNonUnit) {
          bcol[l] /= pivot;
        }
        const T x = bcol[l];
        for (index_t i = 0; i < l; ++i) {
          bcol[i] -= acol[i] * x;
        }
      }
    }
  }
}

/// Left-side TRANSPOSED solve on columns [j0, j1): op(A) = A^T turns the
/// update sweep into dot products down the stored columns of A (still
/// unit-stride). Lower^T solves backward; Upper^T solves forward.
template <typename T>
void leftSolveTransStripe(Uplo uplo, Diag diag, index_t m, const T* a,
                          index_t lda, T* b, index_t ldb, index_t j0,
                          index_t j1) {
  if (uplo == Uplo::kLower) {
    // op(A) is upper: backward substitution, dotting A's column below the
    // diagonal against already-solved entries.
    for (index_t l = m - 1; l >= 0; --l) {
      const T* acol = a + l * lda;
      for (index_t j = j0; j < j1; ++j) {
        T* bcol = b + j * ldb;
        T acc = bcol[l];
        for (index_t i = l + 1; i < m; ++i) {
          acc -= acol[i] * bcol[i];
        }
        bcol[l] = diag == Diag::kUnit ? acc : acc / acol[l];
      }
    }
  } else {
    // op(A) is lower: forward substitution over A's column above the
    // diagonal.
    for (index_t l = 0; l < m; ++l) {
      const T* acol = a + l * lda;
      for (index_t j = j0; j < j1; ++j) {
        T* bcol = b + j * ldb;
        T acc = bcol[l];
        for (index_t i = 0; i < l; ++i) {
          acc -= acol[i] * bcol[i];
        }
        bcol[l] = diag == Diag::kUnit ? acc : acc / acol[l];
      }
    }
  }
}

/// Right-side solve on rows [i0, i1): rows of B are independent, so each
/// stripe runs the full column recurrence X * op(A) = B on its rows.
template <typename T>
[[gnu::always_inline]] inline void rightSolveStripe(Uplo uplo, Diag diag,
                                                    index_t n, const T* a,
                                                    index_t lda, T* b,
                                                    index_t ldb, index_t i0,
                                                    index_t i1) {
  if (uplo == Uplo::kUpper) {
    for (index_t j = 0; j < n; ++j) {
      const T* acol = a + j * lda;
      T* bcol = b + j * ldb;
      for (index_t l = 0; l < j; ++l) {
        const T ax = acol[l];
        const T* xcol = b + l * ldb;
        for (index_t i = i0; i < i1; ++i) {
          bcol[i] -= xcol[i] * ax;
        }
      }
      if (diag == Diag::kNonUnit) {
        const T pivot = acol[j];
        for (index_t i = i0; i < i1; ++i) {
          bcol[i] /= pivot;
        }
      }
    }
  } else {
    for (index_t j = n - 1; j >= 0; --j) {
      const T* acol = a + j * lda;
      T* bcol = b + j * ldb;
      for (index_t l = j + 1; l < n; ++l) {
        const T ax = acol[l];
        const T* xcol = b + l * ldb;
        for (index_t i = i0; i < i1; ++i) {
          bcol[i] -= xcol[i] * ax;
        }
      }
      if (diag == Diag::kNonUnit) {
        const T pivot = acol[j];
        for (index_t i = i0; i < i1; ++i) {
          bcol[i] /= pivot;
        }
      }
    }
  }
}

/// Right-side TRANSPOSED solve on rows [i0, i1): X * A^T = B is solved by
/// the recurrence over columns with op(A)[l][j] = A[j][l] (row access).
template <typename T>
void rightSolveTransStripe(Uplo uplo, Diag diag, index_t n, const T* a,
                           index_t lda, T* b, index_t ldb, index_t i0,
                           index_t i1) {
  if (uplo == Uplo::kUpper) {
    // op(A) is lower: process columns descending.
    for (index_t j = n - 1; j >= 0; --j) {
      T* bcol = b + j * ldb;
      for (index_t l = j + 1; l < n; ++l) {
        const T ax = a[j + l * lda];  // op(A)[l][j] = A[j][l]
        const T* xcol = b + l * ldb;
        for (index_t i = i0; i < i1; ++i) {
          bcol[i] -= xcol[i] * ax;
        }
      }
      if (diag == Diag::kNonUnit) {
        const T pivot = a[j + j * lda];
        for (index_t i = i0; i < i1; ++i) {
          bcol[i] /= pivot;
        }
      }
    }
  } else {
    // op(A) is upper: process columns ascending.
    for (index_t j = 0; j < n; ++j) {
      T* bcol = b + j * ldb;
      for (index_t l = 0; l < j; ++l) {
        const T ax = a[j + l * lda];
        const T* xcol = b + l * ldb;
        for (index_t i = i0; i < i1; ++i) {
          bcol[i] -= xcol[i] * ax;
        }
      }
      if (diag == Diag::kNonUnit) {
        const T pivot = a[j + j * lda];
        for (index_t i = i0; i < i1; ++i) {
          bcol[i] /= pivot;
        }
      }
    }
  }
}

#if HPLMXP_HAVE_AVX512
// The no-transpose stripe solves are element-wise (one multiply, then one
// subtract or divide, per update), so their AVX-512 build rounds exactly
// like the scalar one.
HPLMXP_AVX512 void leftSolveStripeAvx512(Uplo uplo, Diag diag, index_t m,
                                         const float* a, index_t lda,
                                         float* b, index_t ldb, index_t j0,
                                         index_t j1) {
  leftSolveStripe(uplo, diag, m, a, lda, b, ldb, j0, j1);
}

HPLMXP_AVX512 void rightSolveStripeAvx512(Uplo uplo, Diag diag, index_t n,
                                          const float* a, index_t lda,
                                          float* b, index_t ldb, index_t i0,
                                          index_t i1) {
  rightSolveStripe(uplo, diag, n, a, lda, b, ldb, i0, i1);
}
#endif

template <typename T>
void leftSolve([[maybe_unused]] Isa isa, Uplo uplo, Diag diag, index_t m,
               const T* a, index_t lda, T* b, index_t ldb, index_t j0,
               index_t j1) {
#if HPLMXP_HAVE_AVX512
  if constexpr (std::is_same_v<T, float>) {
    if (isa == Isa::kAvx512) {
      leftSolveStripeAvx512(uplo, diag, m, a, lda, b, ldb, j0, j1);
      return;
    }
  }
#endif
  leftSolveStripe(uplo, diag, m, a, lda, b, ldb, j0, j1);
}

template <typename T>
void rightSolve([[maybe_unused]] Isa isa, Uplo uplo, Diag diag, index_t n,
                const T* a, index_t lda, T* b, index_t ldb, index_t i0,
                index_t i1) {
#if HPLMXP_HAVE_AVX512
  if constexpr (std::is_same_v<T, float>) {
    if (isa == Isa::kAvx512) {
      rightSolveStripeAvx512(uplo, diag, n, a, lda, b, ldb, i0, i1);
      return;
    }
  }
#endif
  rightSolveStripe(uplo, diag, n, a, lda, b, ldb, i0, i1);
}

/// The unblocked solve: stripe substitution over the whole triangle,
/// parallel over right-hand-side columns (kLeft) or rows (kRight).
template <typename T>
void trsmCore(Isa isa, Side side, Uplo uplo, Trans trans, Diag diag,
              index_t m, index_t n, T alpha, const T* a, index_t lda, T* b,
              index_t ldb, ThreadPool* pool) {
  HPLMXP_REQUIRE(m >= 0 && n >= 0, "trsm dims must be >= 0");
  if (m == 0 || n == 0) {
    return;
  }
  const index_t triOrder = (side == Side::kLeft) ? m : n;
  HPLMXP_REQUIRE(lda >= triOrder, "trsm: lda too small");
  HPLMXP_REQUIRE(ldb >= m, "trsm: ldb too small");
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }

  // Chunked dispatch: each task receives a contiguous column (kLeft) or
  // row (kRight) range directly — no type-erased call per stripe.
  if (side == Side::kLeft) {
    pool->parallelForChunked(
        0, n,
        [&](index_t j0, index_t j1) {
          scaleColumns(b, ldb, m, j0, j1, alpha);
          if (trans == Trans::kNoTrans) {
            leftSolve(isa, uplo, diag, m, a, lda, b, ldb, j0, j1);
          } else {
            leftSolveTransStripe(uplo, diag, m, a, lda, b, ldb, j0, j1);
          }
        },
        ceilDiv(n, kStripe));
  } else {
    pool->parallelForChunked(
        0, m,
        [&](index_t i0, index_t i1) {
          if (alpha != T{1}) {
            for (index_t j = 0; j < n; ++j) {
              T* col = b + j * ldb;
              for (index_t i = i0; i < i1; ++i) {
                col[i] *= alpha;
              }
            }
          }
          if (trans == Trans::kNoTrans) {
            rightSolve(isa, uplo, diag, n, a, lda, b, ldb, i0, i1);
          } else {
            rightSolveTransStripe(uplo, diag, n, a, lda, b, ldb, i0, i1);
          }
        },
        ceilDiv(m, kStripe));
  }
}

/// A one-lane pool for the work inside a blocked solve's chunk, whose
/// chunks already occupy every lane of the caller's pool. Concurrent
/// chunks share it safely: a one-lane parallel-for runs inline, and each
/// caller leases its own pack arena.
ThreadPool& oneLanePool() {
  static ThreadPool pool(1);
  return pool;
}

/// Blocked (Left, Lower) or (Right, Upper) solve: the stripe substitution
/// solves each kTrsmBlock diagonal block, and one GEMM per block applies
/// the solved block to the rest, C += A * (-X) with beta = 1. Every element
/// still receives its updates one at a time in ascending l, and
/// acc + a * (-x) == acc - a * x exactly, so the result is bitwise the
/// unblocked solve's. Right-hand sides are independent, so each lane runs
/// the whole blocked solve on its own columns (kLeft) or rows (kRight):
/// one dispatch per solve, however many blocks it has.
void strsmBlocked(Isa isa, Side side, Diag diag, index_t m, index_t n,
                  float alpha, const float* a, index_t lda, float* b,
                  index_t ldb, ThreadPool* pool) {
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  if (alpha != 1.0f) {
    pool->parallelForChunked(
        0, n,
        [&](index_t j0, index_t j1) {
          scaleColumns(b, ldb, m, j0, j1, alpha);
        },
        ceilDiv(n, kStripe));
  }
  ThreadPool* lane = &oneLanePool();
  if (side == Side::kLeft) {
    pool->parallelForChunked(
        0, n,
        [&](index_t j0, index_t j1) {
          float* x = b + j0 * ldb;
          for (index_t p = 0; p < m; p += kTrsmBlock) {
            const index_t pb = std::min(kTrsmBlock, m - p);
            trsmCore<float>(isa, Side::kLeft, Uplo::kLower, Trans::kNoTrans,
                            diag, pb, j1 - j0, 1.0f, a + p + p * lda, lda,
                            x + p, ldb, lane);
            const index_t rest = m - p - pb;
            if (rest > 0) {
              detail::gemm<float>(isa, Trans::kNoTrans, Trans::kNoTrans,
                                  rest, j1 - j0, pb, -1.0f,
                                  a + p + pb + p * lda, lda, x + p, ldb, 1.0f,
                                  x + p + pb, ldb, lane);
            }
          }
        },
        pool->laneCount());
  } else {
    pool->parallelForChunked(
        0, m,
        [&](index_t i0, index_t i1) {
          float* x = b + i0;
          for (index_t p = 0; p < n; p += kTrsmBlock) {
            const index_t pb = std::min(kTrsmBlock, n - p);
            trsmCore<float>(isa, Side::kRight, Uplo::kUpper, Trans::kNoTrans,
                            diag, i1 - i0, pb, 1.0f, a + p + p * lda, lda,
                            x + p * ldb, ldb, lane);
            const index_t rest = n - p - pb;
            if (rest > 0) {
              detail::gemm<float>(isa, Trans::kNoTrans, Trans::kNoTrans,
                                  i1 - i0, rest, pb, -1.0f, x + p * ldb, ldb,
                                  a + p + (p + pb) * lda, lda, 1.0f,
                                  x + (p + pb) * ldb, ldb, lane);
            }
          }
        },
        pool->laneCount());
  }
}

}  // namespace

void detail::strsm(Isa isa, Side side, Uplo uplo, Diag diag, index_t m,
                   index_t n, float alpha, const float* a, index_t lda,
                   float* b, index_t ldb, ThreadPool* pool) {
  const bool blocked = (side == Side::kLeft && uplo == Uplo::kLower) ||
                       (side == Side::kRight && uplo == Uplo::kUpper);
  if (!blocked) {
    strsmUnblocked(isa, side, uplo, diag, m, n, alpha, a, lda, b, ldb, pool);
    return;
  }
  HPLMXP_REQUIRE(m >= 0 && n >= 0, "trsm dims must be >= 0");
  if (m == 0 || n == 0) {
    return;
  }
  HPLMXP_REQUIRE(lda >= (side == Side::kLeft ? m : n), "trsm: lda too small");
  HPLMXP_REQUIRE(ldb >= m, "trsm: ldb too small");
  strsmBlocked(isa, side, diag, m, n, alpha, a, lda, b, ldb, pool);
}

void detail::strsmUnblocked(Isa isa, Side side, Uplo uplo, Diag diag,
                            index_t m, index_t n, float alpha, const float* a,
                            index_t lda, float* b, index_t ldb,
                            ThreadPool* pool) {
  trsmCore<float>(isa, side, uplo, Trans::kNoTrans, diag, m, n, alpha, a, lda,
                  b, ldb, pool);
}

void strsm(Side side, Uplo uplo, Diag diag, index_t m, index_t n, float alpha,
           const float* a, index_t lda, float* b, index_t ldb,
           ThreadPool* pool) {
  detail::strsm(hostIsa(), side, uplo, diag, m, n, alpha, a, lda, b, ldb,
                pool);
}

void dtrsm(Side side, Uplo uplo, Diag diag, index_t m, index_t n, double alpha,
           const double* a, index_t lda, double* b, index_t ldb,
           ThreadPool* pool) {
  trsmCore<double>(Isa::kScalar, side, uplo, Trans::kNoTrans, diag, m, n,
                   alpha, a, lda, b, ldb, pool);
}

void strsm(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n,
           float alpha, const float* a, index_t lda, float* b, index_t ldb,
           ThreadPool* pool) {
  if (trans == Trans::kNoTrans) {
    strsm(side, uplo, diag, m, n, alpha, a, lda, b, ldb, pool);
    return;
  }
  trsmCore<float>(hostIsa(), side, uplo, trans, diag, m, n, alpha, a, lda, b,
                  ldb, pool);
}

void dtrsm(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n,
           double alpha, const double* a, index_t lda, double* b, index_t ldb,
           ThreadPool* pool) {
  trsmCore<double>(Isa::kScalar, side, uplo, trans, diag, m, n, alpha, a, lda,
                   b, ldb, pool);
}

namespace {

// Stripe width for the mixed multi-RHS solve: wide enough that the
// triangular block and sub-panel stay resident while every column of the
// chunk streams through them, small enough that a stripe of the factor
// fits in L1/L2 alongside a handful of FP64 columns.
constexpr index_t kMixedStripe = 64;

/// One chunk of right-hand-side columns, forward substitution. Each
/// column-j axpy of the column-oriented TRSV is split at the stripe edge;
/// per (element, column) the update order over j is unchanged, which is
/// what makes the batched solve bitwise-equal to strsvMixed per column.
void mixedLowerColumns(Diag diag, index_t n, const float* a, index_t lda,
                       double* x, index_t ldx, index_t c0, index_t c1) {
  for (index_t s0 = 0; s0 < n; s0 += kMixedStripe) {
    const index_t s1 = std::min(n, s0 + kMixedStripe);
    for (index_t c = c0; c < c1; ++c) {
      double* xc = x + c * ldx;
      // In-stripe substitution on the triangular block.
      for (index_t j = s0; j < s1; ++j) {
        const float* col = a + j * lda;
        if (diag == Diag::kNonUnit) {
          xc[j] /= static_cast<double>(col[j]);
        }
        const double xj = xc[j];
        for (index_t i = j + 1; i < s1; ++i) {
          xc[i] -= static_cast<double>(col[i]) * xj;
        }
      }
      // Panel update of the rows below the stripe (the TRSM "GEMM"
      // stage, kept as ordered axpys for the bitwise contract).
      for (index_t j = s0; j < s1; ++j) {
        const float* col = a + j * lda;
        const double xj = xc[j];
        for (index_t i = s1; i < n; ++i) {
          xc[i] -= static_cast<double>(col[i]) * xj;
        }
      }
    }
  }
}

/// One chunk of right-hand-side columns, backward substitution (mirror of
/// mixedLowerColumns: stripes and columns walk downward).
void mixedUpperColumns(Diag diag, index_t n, const float* a, index_t lda,
                       double* x, index_t ldx, index_t c0, index_t c1) {
  for (index_t s1 = n; s1 > 0; s1 -= std::min(s1, kMixedStripe)) {
    const index_t s0 = s1 - std::min(s1, kMixedStripe);
    for (index_t c = c0; c < c1; ++c) {
      double* xc = x + c * ldx;
      for (index_t j = s1 - 1; j >= s0; --j) {
        const float* col = a + j * lda;
        if (diag == Diag::kNonUnit) {
          xc[j] /= static_cast<double>(col[j]);
        }
        const double xj = xc[j];
        for (index_t i = s0; i < j; ++i) {
          xc[i] -= static_cast<double>(col[i]) * xj;
        }
      }
      for (index_t j = s1 - 1; j >= s0; --j) {
        const float* col = a + j * lda;
        const double xj = xc[j];
        for (index_t i = 0; i < s0; ++i) {
          xc[i] -= static_cast<double>(col[i]) * xj;
        }
      }
    }
  }
}

}  // namespace

void strsmMixed(Uplo uplo, Diag diag, index_t n, index_t nrhs, const float* a,
                index_t lda, double* x, index_t ldx, ThreadPool* pool) {
  HPLMXP_REQUIRE(n >= 0 && nrhs >= 0, "strsmMixed: negative extent");
  if (n == 0 || nrhs == 0) {
    return;
  }
  HPLMXP_REQUIRE(lda >= n, "strsmMixed: lda too small");
  HPLMXP_REQUIRE(ldx >= n, "strsmMixed: ldx too small");
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  // Columns are independent solves; chunking over them keeps each stripe
  // of the factor hot across a chunk's columns with zero synchronization.
  pool->parallelForChunked(
      0, nrhs,
      [&](index_t c0, index_t c1) {
        if (uplo == Uplo::kLower) {
          mixedLowerColumns(diag, n, a, lda, x, ldx, c0, c1);
        } else {
          mixedUpperColumns(diag, n, a, lda, x, ldx, c0, c1);
        }
      },
      nrhs);
}

}  // namespace hplmxp::blas
