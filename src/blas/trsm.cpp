#include "blas/trsm.h"

#include <algorithm>

#include "blas/isa.h"
#include "blas/trsv.h"
#include "util/simd.h"

namespace hplmxp::blas {

namespace {

// Number of RHS columns (kLeft) or rows (kRight) per parallel task.
constexpr index_t kStripe = 32;

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
template <typename T>
void leftSolveStripe(Uplo uplo, Diag diag, index_t m, const T* a, index_t lda,
                     T* b, index_t ldb, index_t j0, index_t j1) {
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
void rightSolveStripe(Uplo uplo, Diag diag, index_t n, const T* a, index_t lda,
                      T* b, index_t ldb, index_t i0, index_t i1) {
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

/// The unblocked solve: stripe substitution over the whole triangle,
/// parallel over right-hand-side columns (kLeft) or rows (kRight).
template <typename T>
void trsmCore(Side side, Uplo uplo, Trans trans, Diag diag, index_t m,
              index_t n, T alpha, const T* a, index_t lda, T* b, index_t ldb,
              ThreadPool* pool) {
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
            leftSolveStripe(uplo, diag, m, a, lda, b, ldb, j0, j1);
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
            rightSolveStripe(uplo, diag, n, a, lda, b, ldb, i0, i1);
          } else {
            rightSolveTransStripe(uplo, diag, n, a, lda, b, ldb, i0, i1);
          }
        },
        ceilDiv(m, kStripe));
  }
}

// ---------------------------------------------------------------------------
// The lane kernel of the two panel solves.
//
// (Right, Upper) solves X U = B row by row, and (Left, Lower) solves
// L X = B column by column, that is X^T L^T = B^T. Both are Y U = C with U
// upper, for independent rows of Y. A tile of kLaneRows such rows sits in
// the lanes of a slab, l-major (slab[l * kLaneRows + r] = Y(r, l)), so a
// column of the tile is two 16-float vectors. The kernel walks U in blocks
// of kLaneCols columns, left-looking: it holds the block's columns of the
// tile in registers, subtracts X(:, l) * U(l, c) for every solved column
// l < j0, then runs the in-block triangle and, for NonUnit, the divide.
// So every element receives its products in ascending l, one multiply then
// one subtract, and then its divide: strsmUnblocked's sequence, bit for
// bit.
// ---------------------------------------------------------------------------

constexpr index_t kLaneRows = 32;  // independent solves per tile
constexpr index_t kLaneCols = 8;   // columns of U per register block
constexpr index_t kLaneVec = 16;   // floats per vector and transpose block

/// Packs U once per call in blocks of kLaneCols columns: block j0 holds
/// rows l < j0 + kLaneCols of its columns, row-major (dst[l * kLaneCols +
/// c] = U(l, j0 + c)), so the kernel broadcasts a row of the block from
/// one cache line. U is A for (Right, Upper) and L^T for (Left, Lower); the
/// unused triangle is never read. Columns past the order k pad the last
/// block with zeros and a unit diagonal.
void packTriangle(Side side, index_t k, const float* a, index_t lda,
                  float* dst) {
  for (index_t j0 = 0; j0 < k; j0 += kLaneCols) {
    for (index_t l = 0; l < j0 + kLaneCols; ++l) {
      for (index_t c = 0; c < kLaneCols; ++c) {
        const index_t j = j0 + c;
        float u = 0.0f;
        if (j >= k) {
          u = l == j ? 1.0f : 0.0f;
        } else if (l <= j) {
          u = side == Side::kRight ? a[l + j * lda] : a[j + l * lda];
        }
        *dst++ = u;
      }
    }
  }
}

/// (Right, Upper): rows [0, rows) of b, times alpha, into the slab's first
/// k columns. Lanes past `rows` and columns past k are zero.
void gatherRows(const float* b, index_t ldb, index_t k, index_t rows,
                float alpha, index_t slabCols, float* slab) {
  for (index_t l = 0; l < slabCols; ++l) {
    float* dst = slab + l * kLaneRows;
    index_t i = 0;
    if (l < k) {
      const float* src = b + l * ldb;
      for (; i < rows; ++i) {
        dst[i] = alpha == 1.0f ? src[i] : src[i] * alpha;
      }
    }
    for (; i < kLaneRows; ++i) {
      dst[i] = 0.0f;
    }
  }
}

void scatterRows(const float* slab, index_t k, index_t rows, float* b,
                 index_t ldb) {
  for (index_t l = 0; l < k; ++l) {
    const float* src = slab + l * kLaneRows;
    float* dst = b + l * ldb;
    for (index_t i = 0; i < rows; ++i) {
      dst[i] = src[i];
    }
  }
}

/// The scalar lane kernel: the algorithm on float arrays, where the
/// AVX-512 kernel holds a vector.
struct ScalarLanes {
  /// (Left, Lower): columns [0, cols) of b, times alpha, transposed into
  /// the slab's first k columns. Lanes past `cols` and columns past k are
  /// zero.
  static void gatherCols(const float* b, index_t ldb, index_t k,
                         index_t cols, float alpha, index_t slabCols,
                         float* slab) {
    std::fill(slab, slab + slabCols * kLaneRows, 0.0f);
    for (index_t r = 0; r < cols; ++r) {
      const float* src = b + r * ldb;
      for (index_t l = 0; l < k; ++l) {
        slab[l * kLaneRows + r] = alpha == 1.0f ? src[l] : src[l] * alpha;
      }
    }
  }

  static void scatterCols(const float* slab, index_t k, index_t cols,
                          float* b, index_t ldb) {
    for (index_t r = 0; r < cols; ++r) {
      float* dst = b + r * ldb;
      for (index_t l = 0; l < k; ++l) {
        dst[l] = slab[l * kLaneRows + r];
      }
    }
  }

  /// Solves the tile in the slab against the packed triangle u of order
  /// kPad (a multiple of kLaneCols).
  static void solve(Diag diag, index_t kPad, const float* u, float* slab) {
    for (index_t j0 = 0; j0 < kPad; j0 += kLaneCols) {
      float acc[kLaneCols][kLaneRows];
      float* y = slab + j0 * kLaneRows;
      for (index_t c = 0; c < kLaneCols; ++c) {
        for (index_t i = 0; i < kLaneRows; ++i) {
          acc[c][i] = y[c * kLaneRows + i];
        }
      }
      for (index_t l = 0; l < j0; ++l) {
        const float* x = slab + l * kLaneRows;
        const float* ul = u + l * kLaneCols;
        for (index_t c = 0; c < kLaneCols; ++c) {
          const float uv = ul[c];
          for (index_t i = 0; i < kLaneRows; ++i) {
            acc[c][i] -= x[i] * uv;
          }
        }
      }
      const float* ub = u + j0 * kLaneCols;
      for (index_t c = 0; c < kLaneCols; ++c) {
        for (index_t p = 0; p < c; ++p) {
          const float uv = ub[p * kLaneCols + c];
          for (index_t i = 0; i < kLaneRows; ++i) {
            acc[c][i] -= acc[p][i] * uv;
          }
        }
        if (diag == Diag::kNonUnit) {
          const float pivot = ub[c * kLaneCols + c];
          for (index_t i = 0; i < kLaneRows; ++i) {
            acc[c][i] /= pivot;
          }
        }
      }
      for (index_t c = 0; c < kLaneCols; ++c) {
        for (index_t i = 0; i < kLaneRows; ++i) {
          y[c * kLaneRows + i] = acc[c][i];
        }
      }
      u += (j0 + kLaneCols) * kLaneCols;
    }
  }
};

#if HPLMXP_HAVE_AVX512
/// The AVX-512 lane kernel: the scalar kernel's arithmetic with a tile
/// column in two zmm registers, so a 32 x 8 block of the tile lives in 16
/// accumulators. Per update it does _mm512_mul_ps then _mm512_sub_ps,
/// never an FMA, and its divide is _mm512_div_ps, so it rounds exactly
/// like the scalar kernel. (Left, Lower) tiles move between B and the slab
/// through in-register 16 x 16 transposes.
struct Avx512Lanes {
  static constexpr index_t kHalves = kLaneRows / kLaneVec;

  /// Lanes [0, n) of a 16-lane mask, for n in [0, 16] or more.
  static __mmask16 lowLanes(index_t n) {
    return n >= kLaneVec ? __mmask16{0xFFFF}
                         : static_cast<__mmask16>((1u << n) - 1u);
  }

  /// Transposes the 16 x 16 block whose row i is v[i]. The zero-masked
  /// shuffles with a full mask are the unmasked instructions; the unmasked
  /// intrinsics trip a GCC 12 -Wmaybe-uninitialized false positive on
  /// their undefined pass-through.
  [[gnu::always_inline]] HPLMXP_AVX512 static inline void transpose16(
      __m512* v) {
    constexpr __mmask16 kAll = 0xFFFF;
    __m512 t[kLaneVec];
    for (int i = 0; i < 16; i += 2) {
      t[i] = _mm512_maskz_unpacklo_ps(kAll, v[i], v[i + 1]);
      t[i + 1] = _mm512_maskz_unpackhi_ps(kAll, v[i], v[i + 1]);
    }
    for (int i = 0; i < 16; i += 4) {
      v[i] = _mm512_maskz_shuffle_ps(kAll, t[i], t[i + 2], 0x44);
      v[i + 1] = _mm512_maskz_shuffle_ps(kAll, t[i], t[i + 2], 0xEE);
      v[i + 2] = _mm512_maskz_shuffle_ps(kAll, t[i + 1], t[i + 3], 0x44);
      v[i + 3] = _mm512_maskz_shuffle_ps(kAll, t[i + 1], t[i + 3], 0xEE);
    }
    for (int i = 0; i < 4; ++i) {
      t[i] = _mm512_maskz_shuffle_f32x4(kAll, v[i], v[i + 4], 0x88);
      t[i + 4] = _mm512_maskz_shuffle_f32x4(kAll, v[i], v[i + 4], 0xDD);
      t[i + 8] = _mm512_maskz_shuffle_f32x4(kAll, v[i + 8], v[i + 12], 0x88);
      t[i + 12] =
          _mm512_maskz_shuffle_f32x4(kAll, v[i + 8], v[i + 12], 0xDD);
    }
    for (int i = 0; i < 8; ++i) {
      v[i] = _mm512_maskz_shuffle_f32x4(kAll, t[i], t[i + 8], 0x88);
      v[i + 8] = _mm512_maskz_shuffle_f32x4(kAll, t[i], t[i + 8], 0xDD);
    }
  }

  HPLMXP_AVX512 static void gatherCols(const float* b, index_t ldb,
                                       index_t k, index_t cols, float alpha,
                                       index_t slabCols, float* slab) {
    const __m512 av = _mm512_set1_ps(alpha);
    for (index_t g = 0; g < kLaneRows; g += kLaneVec) {
      for (index_t l0 = 0; l0 < slabCols; l0 += kLaneVec) {
        const __mmask16 live = lowLanes(k - l0);
        __m512 v[kLaneVec];
        for (index_t r = 0; r < kLaneVec; ++r) {
          v[r] = g + r < cols
                     ? _mm512_maskz_loadu_ps(live, b + (g + r) * ldb + l0)
                     : _mm512_setzero_ps();
        }
        transpose16(v);
        for (index_t i = 0; i < kLaneVec; ++i) {
          _mm512_store_ps(slab + (l0 + i) * kLaneRows + g,
                          alpha == 1.0f ? v[i] : _mm512_mul_ps(v[i], av));
        }
      }
    }
  }

  HPLMXP_AVX512 static void scatterCols(const float* slab, index_t k,
                                        index_t cols, float* b,
                                        index_t ldb) {
    for (index_t g = 0; g < cols; g += kLaneVec) {
      for (index_t l0 = 0; l0 < k; l0 += kLaneVec) {
        const __mmask16 live = lowLanes(k - l0);
        __m512 v[kLaneVec];
        for (index_t i = 0; i < kLaneVec; ++i) {
          v[i] = _mm512_load_ps(slab + (l0 + i) * kLaneRows + g);
        }
        transpose16(v);
        for (index_t r = 0; r < kLaneVec && g + r < cols; ++r) {
          _mm512_mask_storeu_ps(b + (g + r) * ldb + l0, live, v[r]);
        }
      }
    }
  }

  HPLMXP_AVX512 static void solve(Diag diag, index_t kPad, const float* u,
                                  float* slab) {
    for (index_t j0 = 0; j0 < kPad; j0 += kLaneCols) {
      __m512 acc[kLaneCols][kHalves];
      float* y = slab + j0 * kLaneRows;
      for (index_t c = 0; c < kLaneCols; ++c) {
        for (index_t h = 0; h < kHalves; ++h) {
          acc[c][h] = _mm512_load_ps(y + c * kLaneRows + h * kLaneVec);
        }
      }
      for (index_t l = 0; l < j0; ++l) {
        __m512 x[kHalves];
        for (index_t h = 0; h < kHalves; ++h) {
          x[h] = _mm512_load_ps(slab + l * kLaneRows + h * kLaneVec);
        }
        const float* ul = u + l * kLaneCols;
#pragma GCC unroll 8
        for (index_t c = 0; c < kLaneCols; ++c) {
          const __m512 uv = _mm512_set1_ps(ul[c]);
          for (index_t h = 0; h < kHalves; ++h) {
            acc[c][h] = _mm512_sub_ps(acc[c][h], _mm512_mul_ps(x[h], uv));
          }
        }
      }
      const float* ub = u + j0 * kLaneCols;
#pragma GCC unroll 8
      for (index_t c = 0; c < kLaneCols; ++c) {
#pragma GCC unroll 8
        for (index_t p = 0; p < c; ++p) {
          const __m512 uv = _mm512_set1_ps(ub[p * kLaneCols + c]);
          for (index_t h = 0; h < kHalves; ++h) {
            acc[c][h] = _mm512_sub_ps(acc[c][h], _mm512_mul_ps(acc[p][h], uv));
          }
        }
        if (diag == Diag::kNonUnit) {
          const __m512 pivot = _mm512_set1_ps(ub[c * kLaneCols + c]);
          for (index_t h = 0; h < kHalves; ++h) {
            acc[c][h] = _mm512_div_ps(acc[c][h], pivot);
          }
        }
      }
      for (index_t c = 0; c < kLaneCols; ++c) {
        for (index_t h = 0; h < kHalves; ++h) {
          _mm512_store_ps(y + c * kLaneRows + h * kLaneVec, acc[c][h]);
        }
      }
      u += (j0 + kLaneCols) * kLaneCols;
    }
  }
};
#endif

/// Runs the (Left, Lower) or (Right, Upper) solve on lane kernel Lanes.
/// The call leases one scratch arena: the packed triangle, which every
/// lane reads, and one slab per lane of the pool. Each lane takes one
/// contiguous range of tiles, so a solve is one dispatch.
template <typename Lanes>
void laneSolve(Side side, Diag diag, index_t m, index_t n, float alpha,
               const float* a, index_t lda, float* b, index_t ldb,
               ThreadPool* pool) {
  const bool left = side == Side::kLeft;
  const index_t k = left ? m : n;       // order of the triangle
  const index_t solves = left ? n : m;  // independent rows of Y
  const index_t kPad = roundUp(k, kLaneCols);
  const index_t slabCols = roundUp(k, kLaneVec);
  // packTriangle's blocks hold (j0 + kLaneCols) * kLaneCols floats each.
  const index_t packFloats = kPad * (kPad + kLaneCols) / 2;
  const index_t slabFloats = slabCols * kLaneRows;
  const index_t tiles = ceilDiv(solves, kLaneRows);
  const index_t lanes = std::min(pool->laneCount(), tiles);

  auto lease = pool->scratch();
  Arena& arena = lease.arena();
  arena.reserve(static_cast<std::size_t>(packFloats + lanes * slabFloats) *
                    sizeof(float) +
                2 * 64);
  float* u = arena.alloc<float>(packFloats);
  float* slabs = arena.alloc<float>(lanes * slabFloats);
  packTriangle(side, k, a, lda, u);
  pool->parallelForChunked(
      0, lanes,
      [&](index_t lane0, index_t lane1) {
        for (index_t lane = lane0; lane < lane1; ++lane) {
          float* slab = slabs + lane * slabFloats;
          const index_t t1 = tiles * (lane + 1) / lanes;
          for (index_t t = tiles * lane / lanes; t < t1; ++t) {
            const index_t r0 = t * kLaneRows;
            const index_t rows = std::min(kLaneRows, solves - r0);
            if (left) {
              Lanes::gatherCols(b + r0 * ldb, ldb, k, rows, alpha, slabCols,
                                slab);
              Lanes::solve(diag, kPad, u, slab);
              Lanes::scatterCols(slab, k, rows, b + r0 * ldb, ldb);
            } else {
              gatherRows(b + r0, ldb, k, rows, alpha, slabCols, slab);
              Lanes::solve(diag, kPad, u, slab);
              scatterRows(slab, k, rows, b + r0, ldb);
            }
          }
        }
      },
      lanes);
}

}  // namespace

void detail::strsm(Isa isa, Side side, Uplo uplo, Diag diag, index_t m,
                   index_t n, float alpha, const float* a, index_t lda,
                   float* b, index_t ldb, ThreadPool* pool) {
  const bool panel = (side == Side::kLeft && uplo == Uplo::kLower) ||
                     (side == Side::kRight && uplo == Uplo::kUpper);
  if (!panel) {
    strsmUnblocked(side, uplo, diag, m, n, alpha, a, lda, b, ldb, pool);
    return;
  }
  HPLMXP_REQUIRE(m >= 0 && n >= 0, "trsm dims must be >= 0");
  if (m == 0 || n == 0) {
    return;
  }
  HPLMXP_REQUIRE(lda >= (side == Side::kLeft ? m : n), "trsm: lda too small");
  HPLMXP_REQUIRE(ldb >= m, "trsm: ldb too small");
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
#if HPLMXP_HAVE_AVX512
  if (isa == Isa::kAvx512) {
    laneSolve<Avx512Lanes>(side, diag, m, n, alpha, a, lda, b, ldb, pool);
    return;
  }
#endif
  laneSolve<ScalarLanes>(side, diag, m, n, alpha, a, lda, b, ldb, pool);
}

void detail::strsmUnblocked(Side side, Uplo uplo, Diag diag, index_t m,
                            index_t n, float alpha, const float* a,
                            index_t lda, float* b, index_t ldb,
                            ThreadPool* pool) {
  trsmCore<float>(side, uplo, Trans::kNoTrans, diag, m, n, alpha, a, lda, b,
                  ldb, pool);
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
  trsmCore<double>(side, uplo, Trans::kNoTrans, diag, m, n, alpha, a, lda, b,
                   ldb, pool);
}

void strsm(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n,
           float alpha, const float* a, index_t lda, float* b, index_t ldb,
           ThreadPool* pool) {
  if (trans == Trans::kNoTrans) {
    strsm(side, uplo, diag, m, n, alpha, a, lda, b, ldb, pool);
    return;
  }
  trsmCore<float>(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb, pool);
}

void dtrsm(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n,
           double alpha, const double* a, index_t lda, double* b, index_t ldb,
           ThreadPool* pool) {
  trsmCore<double>(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb, pool);
}

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
  // Columns are independent solves, so lanes share nothing.
  pool->parallelForChunked(
      0, nrhs,
      [&](index_t c0, index_t c1) {
        for (index_t c = c0; c < c1; ++c) {
          strsvMixed(uplo, diag, n, a, lda, x + c * ldx);
        }
      },
      nrhs);
}

}  // namespace hplmxp::blas
