#include "blas/gemm.h"

#include <type_traits>

#include "blas/isa.h"
#include "util/simd.h"
#include "blas/tune.h"

namespace hplmxp::blas {

namespace {

// Upper bound on one GEMM invocation's pack working set; kc is halved (it
// only affects speed, never results) until the packed panels fit.
constexpr std::size_t kPackBytesCap = std::size_t{96} << 20;

template <typename TAcc, typename TIn>
inline TAcc widen(TIn v) {
  return static_cast<TAcc>(v);
}

/// Packs one MR-row strip of op(A)[i0:i0+rows, k0:k0+kc] into dst, laid
/// out l-major (dst[l*MR + i]) and zero-padded to the full MR so the
/// microkernel always streams aligned full-width strips. This is where
/// FP16 operands widen to the FP32 accumulation type: gemmMixed and sgemm
/// share the identical numeric path from here on.
template <index_t MR, typename TAcc, typename TIn>
inline void packAStrip(Trans ta, const TIn* a, index_t lda, index_t i0,
                       index_t rows, index_t k0, index_t kc, TAcc* dst) {
  if (ta == Trans::kNoTrans) {
    for (index_t l = 0; l < kc; ++l) {
      const TIn* src = a + i0 + (k0 + l) * lda;
      TAcc* d = dst + l * MR;
      for (index_t i = 0; i < rows; ++i) {
        d[i] = widen<TAcc>(src[i]);
      }
      for (index_t i = rows; i < MR; ++i) {
        d[i] = TAcc{0};
      }
    }
  } else {
    for (index_t l = 0; l < kc; ++l) {
      const TIn* src = a + (k0 + l) + i0 * lda;
      TAcc* d = dst + l * MR;
      for (index_t i = 0; i < rows; ++i) {
        d[i] = widen<TAcc>(src[i * lda]);
      }
      for (index_t i = rows; i < MR; ++i) {
        d[i] = TAcc{0};
      }
    }
  }
}

/// Packs one NR-column strip of op(B)[k0:k0+kc, j0:j0+cols] into dst,
/// l-major (dst[l*NR + j]), zero-padded to NR, with alpha folded in:
/// alpha * widen(b) is the exact per-step scaling the pre-rewrite kernel
/// applied (bv = alpha * bcol[l]), so results stay bitwise identical.
template <index_t NR, typename TAcc, typename TIn>
inline void packBStrip(Trans tb, const TIn* b, index_t ldb, index_t k0,
                       index_t j0, index_t cols, index_t kc, TAcc alpha,
                       TAcc* dst) {
  if (tb == Trans::kNoTrans) {
    for (index_t l = 0; l < kc; ++l) {
      const TIn* src = b + (k0 + l);
      TAcc* d = dst + l * NR;
      for (index_t j = 0; j < cols; ++j) {
        d[j] = alpha * widen<TAcc>(src[(j0 + j) * ldb]);
      }
      for (index_t j = cols; j < NR; ++j) {
        d[j] = TAcc{0};
      }
    }
  } else {
    for (index_t l = 0; l < kc; ++l) {
      const TIn* src = b + (k0 + l) * ldb;
      TAcc* d = dst + l * NR;
      for (index_t j = 0; j < cols; ++j) {
        d[j] = alpha * widen<TAcc>(src[j0 + j]);
      }
      for (index_t j = cols; j < NR; ++j) {
        d[j] = TAcc{0};
      }
    }
  }
}

/// The scalar kernel (24x2, any accumulation type). Its register-blocked
/// microkernel computes C[0:MR, 0:NR] += Ap * Bp over one packed k panel
/// with an MR x NR accumulator block held in registers. Each C element
/// receives its updates in ascending-k order, one multiply then one add
/// per step, exactly as the pre-rewrite kernel did — the register tile
/// only changes where the partial sums live, not their arithmetic.
template <typename TIn, typename TAcc>
struct ScalarKernel {
  static constexpr index_t kMr = kScalarGemmTile.mr;
  static constexpr index_t kNr = kScalarGemmTile.nr;

  static void packA(Trans ta, const TIn* a, index_t lda, index_t i0,
                    index_t rows, index_t k0, index_t kc, TAcc* dst) {
    packAStrip<kMr>(ta, a, lda, i0, rows, k0, kc, dst);
  }

  static void packB(Trans tb, const TIn* b, index_t ldb, index_t k0,
                    index_t j0, index_t cols, index_t kc, TAcc alpha,
                    TAcc* dst) {
    packBStrip<kNr>(tb, b, ldb, k0, j0, cols, kc, alpha, dst);
  }

  static void micro(index_t kc, const TAcc* ap, const TAcc* bp, TAcc* c,
                    index_t ldc) {
    TAcc acc[kNr][kMr];
    for (index_t j = 0; j < kNr; ++j) {
      for (index_t i = 0; i < kMr; ++i) {
        acc[j][i] = c[i + j * ldc];
      }
    }
    for (index_t l = 0; l < kc; ++l) {
      const TAcc* a = ap + l * kMr;
      const TAcc* b = bp + l * kNr;
      for (index_t j = 0; j < kNr; ++j) {
        const TAcc bv = b[j];
        for (index_t i = 0; i < kMr; ++i) {
          acc[j][i] += a[i] * bv;
        }
      }
    }
    for (index_t j = 0; j < kNr; ++j) {
      for (index_t i = 0; i < kMr; ++i) {
        c[i + j * ldc] = acc[j][i];
      }
    }
  }

  static auto microFor(TAcc /*alpha*/) { return &micro; }
};

#if HPLMXP_HAVE_AVX512
/// The AVX-512 kernel (32x8, FP32 accumulation): the scalar kernel's
/// arithmetic on 16 lanes. The microkernel holds C[0:32, 0:8] in 16 zmm
/// accumulators and per k step does _mm512_mul_ps then _mm512_add_ps, or
/// one _mm512_fmadd_ps where every product is exact (microFor), which
/// rounds the same. binary16 full strips of A (no transpose) and B
/// (transposed), the LU's trailing-update layout, widen with vcvtph2ps,
/// which is exact; every other operand packs through the generic loops.
template <typename TIn>
struct Avx512Kernel {
  static constexpr index_t kMr = kAvx512GemmTile.mr;
  static constexpr index_t kNr = kAvx512GemmTile.nr;

  /// Exact products. A widened binary16 is 0 or has an 11-bit significand
  /// and a magnitude in [2^-24, 65504]. With alpha = +1 or -1, packB
  /// stores b or -b exactly, so every product the microkernel forms is 0
  /// or has at most 22 significant bits and a magnitude in [2^-48, 2^32]:
  /// exact in binary32, never subnormal, never infinite. Then round(a*b)
  /// is a*b, and round(round(a*b) + c) == round(a*b + c) == fma(a, b, c)
  /// bit for bit, the sign of a zero sum included. Any other alpha rounds
  /// alpha*b in packB, bfloat16's products can leave binary32's range and
  /// FP32's products round, so those keep the multiply and the add; so
  /// does fp8, which no LU or serve update runs.
  static constexpr bool kExactProductType = std::is_same_v<TIn, half16>;

  /// vcvtph2ps of 16 binary16 values. The zero-masked form with a full
  /// mask is the same instruction; the unmasked intrinsic trips a GCC 12
  /// -Wmaybe-uninitialized false positive on its undefined pass-through.
  HPLMXP_AVX512 static __m512 widen16(const half16* src) {
    return _mm512_maskz_cvtph_ps(
        0xFFFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)));
  }

  HPLMXP_AVX512 static void packA(Trans ta, const TIn* a, index_t lda,
                                  index_t i0, index_t rows, index_t k0,
                                  index_t kc, float* dst) {
    if constexpr (std::is_same_v<TIn, half16>) {
      if (ta == Trans::kNoTrans && rows == kMr) {
        for (index_t l = 0; l < kc; ++l) {
          const half16* src = a + i0 + (k0 + l) * lda;
          float* d = dst + l * kMr;
          _mm512_store_ps(d, widen16(src));
          _mm512_store_ps(d + 16, widen16(src + 16));
        }
        return;
      }
    }
    packAStrip<kMr>(ta, a, lda, i0, rows, k0, kc, dst);
  }

  HPLMXP_AVX512 static void packB(Trans tb, const TIn* b, index_t ldb,
                                  index_t k0, index_t j0, index_t cols,
                                  index_t kc, float alpha, float* dst) {
    if constexpr (std::is_same_v<TIn, half16>) {
      if (tb == Trans::kTrans && cols == kNr) {
        const __m256 av = _mm256_set1_ps(alpha);
        for (index_t l = 0; l < kc; ++l) {
          const half16* src = b + (k0 + l) * ldb + j0;
          const __m256 v = _mm256_cvtph_ps(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
          _mm256_store_ps(dst + l * kNr, _mm256_mul_ps(av, v));
        }
        return;
      }
    }
    packBStrip<kNr>(tb, b, ldb, k0, j0, cols, kc, alpha, dst);
  }

  /// Out of line, so that each instantiation is one symbol: CI allows FMA
  /// instructions in micro<true> of the binary16 kernel and nowhere else.
  template <bool kExactProducts>
  [[gnu::noinline]] HPLMXP_AVX512 static void micro(index_t kc,
                                                    const float* ap,
                                                    const float* bp, float* c,
                                                    index_t ldc) {
    __m512 lo[kNr];
    __m512 hi[kNr];
    for (index_t j = 0; j < kNr; ++j) {
      lo[j] = _mm512_loadu_ps(c + j * ldc);
      hi[j] = _mm512_loadu_ps(c + j * ldc + 16);
    }
    for (index_t l = 0; l < kc; ++l) {
      const __m512 a0 = _mm512_load_ps(ap + l * kMr);
      const __m512 a1 = _mm512_load_ps(ap + l * kMr + 16);
      const float* b = bp + l * kNr;
#pragma GCC unroll 8
      for (index_t j = 0; j < kNr; ++j) {
        const __m512 bv = _mm512_set1_ps(b[j]);
        if constexpr (kExactProducts) {
          lo[j] = _mm512_fmadd_ps(a0, bv, lo[j]);
          hi[j] = _mm512_fmadd_ps(a1, bv, hi[j]);
        } else {
          lo[j] = _mm512_add_ps(lo[j], _mm512_mul_ps(a0, bv));
          hi[j] = _mm512_add_ps(hi[j], _mm512_mul_ps(a1, bv));
        }
      }
    }
    for (index_t j = 0; j < kNr; ++j) {
      _mm512_storeu_ps(c + j * ldc, lo[j]);
      _mm512_storeu_ps(c + j * ldc + 16, hi[j]);
    }
  }

  /// The microkernel of a call with this alpha: fused where every product
  /// is exact (kExactProductType), so micro<true> exists for binary16 only.
  static auto microFor(float alpha) {
    if constexpr (kExactProductType) {
      if (alpha == 1.0f || alpha == -1.0f) {
        return &micro<true>;
      }
    }
    return &micro<false>;
  }
};
#endif

template <typename Kernel, typename TIn, typename TAcc>
void gemmCore(Trans ta, Trans tb, index_t m, index_t n, index_t k, TAcc alpha,
              const TIn* a, index_t lda, const TIn* b, index_t ldb, TAcc beta,
              TAcc* c, index_t ldc, ThreadPool* pool) {
  constexpr index_t MR = Kernel::kMr;
  constexpr index_t NR = Kernel::kNr;
  HPLMXP_REQUIRE(m >= 0 && n >= 0 && k >= 0, "gemm dims must be >= 0");
  HPLMXP_REQUIRE(ldc >= (m > 0 ? m : 1), "gemm: ldc too small");
  if (m == 0 || n == 0) {
    return;
  }
  const index_t opARows = (ta == Trans::kNoTrans) ? m : k;
  const index_t opBRows = (tb == Trans::kNoTrans) ? k : n;
  HPLMXP_REQUIRE(lda >= (opARows > 0 ? opARows : 1), "gemm: lda too small");
  HPLMXP_REQUIRE(ldb >= (opBRows > 0 ? opBRows : 1), "gemm: ldb too small");

  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }

  // beta-scale all of C once, up front (element-wise, order-free). The
  // LU's trailing updates run with beta == 1 and skip the dispatch.
  if (beta != TAcc{1}) {
    pool->parallelForChunked(0, n, [&](index_t jLo, index_t jHi) {
      for (index_t j = jLo; j < jHi; ++j) {
        TAcc* col = c + j * ldc;
        if (beta == TAcc{0}) {
          for (index_t i = 0; i < m; ++i) {
            col[i] = TAcc{0};
          }
        } else {
          for (index_t i = 0; i < m; ++i) {
            col[i] *= beta;
          }
        }
      }
    });
  }
  if (k == 0 || alpha == TAcc{0}) {
    return;
  }

  GemmBlocking bl = gemmBlocking();
  bl.mc = roundUp(std::max<index_t>(bl.mc, MR), MR);
  bl.nc = roundUp(std::max<index_t>(bl.nc, NR), NR);
  const index_t mPad = roundUp(m, MR);
  const index_t nPad = roundUp(n, NR);
  index_t kcMax = std::min(std::max<index_t>(bl.kc, 1), k);
  while (kcMax > 64 &&
         static_cast<std::size_t>(mPad + nPad) * kcMax * sizeof(TAcc) >
             kPackBytesCap) {
    kcMax /= 2;  // speed-only: the accumulation order is kc-independent
  }

  // Persistent pack arenas: one lease per invocation, shared read-only by
  // every compute task. Steady-state calls never touch the allocator.
  auto lease = pool->scratch();
  Arena& arena = lease.arena();
  arena.reserve(static_cast<std::size_t>(mPad + nPad) * kcMax * sizeof(TAcc) +
                2 * 64);
  TAcc* aPack = arena.alloc<TAcc>(mPad * kcMax);
  TAcc* bPack = arena.alloc<TAcc>(nPad * kcMax);

  const index_t aStrips = mPad / MR;
  const index_t bStrips = nPad / NR;
  // Compute tasks are row ranges of at most mc rows, so that a task's
  // packed A stays in cache, times column ranges of at most nc columns,
  // raised to a multiple of the pool's lanes so that the lanes share the
  // columns evenly. A task walks its NR-column strips of C left to right,
  // each from top to bottom over the task's rows, so in a call no taller
  // than mc every strip runs down the whole height before the next starts.
  const index_t rowTasks = ceilDiv(aStrips, bl.mc / MR);
  const index_t colTasks =
      std::min(bStrips, roundUp(ceilDiv(bStrips, bl.nc / NR),
                                pool->laneCount()));
  const auto micro = Kernel::microFor(alpha);

  for (index_t k0 = 0; k0 < k; k0 += kcMax) {
    const index_t kc = std::min(kcMax, k - k0);

    // Pack phase: every A strip is packed exactly once per k panel and
    // shared across all column blocks (the old kernel re-packed it per
    // column block); the B panel is packed once and shared too.
    pool->parallelForChunked(0, aStrips + bStrips, [&](index_t lo,
                                                       index_t hi) {
      for (index_t u = lo; u < hi; ++u) {
        if (u < aStrips) {
          const index_t i0 = u * MR;
          Kernel::packA(ta, a, lda, i0, std::min(MR, m - i0), k0, kc,
                        aPack + u * (MR * kc));
        } else {
          const index_t j0 = (u - aStrips) * NR;
          Kernel::packB(tb, b, ldb, k0, j0, std::min(NR, n - j0), kc, alpha,
                        bPack + (u - aStrips) * (NR * kc));
        }
      }
    });

    // Compute phase. Each C tile is owned by exactly one task per panel
    // and panels run in ascending-k order behind a barrier, so every
    // element's accumulation order is fixed no matter the thread count,
    // blocking or walk.
    pool->parallelForChunked(0, colTasks * rowTasks, [&](index_t lo,
                                                         index_t hi) {
      for (index_t t = lo; t < hi; ++t) {
        const index_t rt = t / colTasks;
        const index_t ct = t % colTasks;
        const index_t s1 = bStrips * (ct + 1) / colTasks;
        const index_t u0 = aStrips * rt / rowTasks;
        const index_t u1 = aStrips * (rt + 1) / rowTasks;
        for (index_t s = bStrips * ct / colTasks; s < s1; ++s) {
          const index_t jr = s * NR;
          const index_t cols = std::min(NR, n - jr);
          const TAcc* bp = bPack + s * (NR * kc);
          for (index_t u = u0; u < u1; ++u) {
            const index_t ir = u * MR;
            const index_t rows = std::min(MR, m - ir);
            const TAcc* ap = aPack + u * (MR * kc);
            TAcc* ctile = c + ir + jr * ldc;
            if (rows == MR && cols == NR) {
              micro(kc, ap, bp, ctile, ldc);
              continue;
            }
            // Partial tile: run the full-width microkernel on a copy. The
            // packed strips are zero-padded, so the padded lanes are dead
            // weight whose results are dropped, not branches.
            TAcc tile[MR * NR] = {};
            for (index_t j = 0; j < cols; ++j) {
              for (index_t i = 0; i < rows; ++i) {
                tile[i + j * MR] = ctile[i + j * ldc];
              }
            }
            micro(kc, ap, bp, tile, MR);
            for (index_t j = 0; j < cols; ++j) {
              for (index_t i = 0; i < rows; ++i) {
                ctile[i + j * ldc] = tile[i + j * MR];
              }
            }
          }
        }
      }
    });
  }
}

}  // namespace

template <typename TIn>
void detail::gemm([[maybe_unused]] Isa isa, Trans transA, Trans transB,
                  index_t m, index_t n, index_t k, float alpha, const TIn* a,
                  index_t lda, const TIn* b, index_t ldb, float beta,
                  float* c, index_t ldc, ThreadPool* pool) {
#if HPLMXP_HAVE_AVX512
  if (isa == Isa::kAvx512) {
    gemmCore<Avx512Kernel<TIn>>(transA, transB, m, n, k, alpha, a, lda, b,
                                ldb, beta, c, ldc, pool);
    return;
  }
#endif
  gemmCore<ScalarKernel<TIn, float>>(transA, transB, m, n, k, alpha, a, lda,
                                     b, ldb, beta, c, ldc, pool);
}

#define HPLMXP_INSTANTIATE_GEMM(T)                                           \
  template void detail::gemm<T>(Isa, Trans, Trans, index_t, index_t,        \
                                index_t, float, const T*, index_t, const T*, \
                                index_t, float, float*, index_t, ThreadPool*)

HPLMXP_INSTANTIATE_GEMM(float);
HPLMXP_INSTANTIATE_GEMM(half16);
HPLMXP_INSTANTIATE_GEMM(lowp::bfloat16);
HPLMXP_INSTANTIATE_GEMM(lowp::fp8e4m3);
HPLMXP_INSTANTIATE_GEMM(lowp::fp8e5m2);
#undef HPLMXP_INSTANTIATE_GEMM

void sgemm(Trans transA, Trans transB, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b,
           index_t ldb, float beta, float* c, index_t ldc, ThreadPool* pool) {
  detail::gemm<float>(hostIsa(), transA, transB, m, n, k, alpha, a, lda, b,
                      ldb, beta, c, ldc, pool);
}

void dgemm(Trans transA, Trans transB, index_t m, index_t n, index_t k,
           double alpha, const double* a, index_t lda, const double* b,
           index_t ldb, double beta, double* c, index_t ldc,
           ThreadPool* pool) {
  gemmCore<ScalarKernel<double, double>>(transA, transB, m, n, k, alpha, a,
                                         lda, b, ldb, beta, c, ldc, pool);
}

template <typename TLow>
void gemmLowp(Trans transA, Trans transB, index_t m, index_t n, index_t k,
              float alpha, const TLow* a, index_t lda, const TLow* b,
              index_t ldb, float beta, float* c, index_t ldc,
              ThreadPool* pool) {
  detail::gemm<TLow>(hostIsa(), transA, transB, m, n, k, alpha, a, lda, b,
                     ldb, beta, c, ldc, pool);
}

template void gemmLowp<half16>(Trans, Trans, index_t, index_t, index_t, float,
                               const half16*, index_t, const half16*, index_t,
                               float, float*, index_t, ThreadPool*);
template void gemmLowp<lowp::bfloat16>(Trans, Trans, index_t, index_t,
                                       index_t, float, const lowp::bfloat16*,
                                       index_t, const lowp::bfloat16*,
                                       index_t, float, float*, index_t,
                                       ThreadPool*);
template void gemmLowp<lowp::fp8e4m3>(Trans, Trans, index_t, index_t, index_t,
                                      float, const lowp::fp8e4m3*, index_t,
                                      const lowp::fp8e4m3*, index_t, float,
                                      float*, index_t, ThreadPool*);
template void gemmLowp<lowp::fp8e5m2>(Trans, Trans, index_t, index_t, index_t,
                                      float, const lowp::fp8e5m2*, index_t,
                                      const lowp::fp8e5m2*, index_t, float,
                                      float*, index_t, ThreadPool*);

void gemmMixed(Trans transA, Trans transB, index_t m, index_t n, index_t k,
               float alpha, const half16* a, index_t lda, const half16* b,
               index_t ldb, float beta, float* c, index_t ldc,
               ThreadPool* pool) {
  gemmLowp<half16>(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c,
                   ldc, pool);
}

}  // namespace hplmxp::blas
