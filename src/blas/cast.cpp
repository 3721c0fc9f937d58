#include "blas/cast.h"

#include <cmath>
#include <type_traits>

#include "blas/isa.h"
#include "blas/simd.h"
#include "lowp/scale.h"
#include "lowp/traits.h"

namespace hplmxp::blas {

namespace {

constexpr index_t kColChunk = 16;

// Side of the square tiles TRANS_CAST transposes through.
constexpr index_t kTransTile = 32;

void narrowToHalfScalar(index_t count, const float* src, half16* dst) {
  for (index_t i = 0; i < count; ++i) {
    dst[i] = half16(src[i]);
  }
}

#if HPLMXP_HAVE_AVX512
/// vcvtps2ph with round-to-nearest-even, 16 lanes at a time. It rounds
/// every finite value and infinity exactly as half16(float) does, but keeps
/// NaN payload bits where half16(float) writes sign|0x7E00, so a chunk
/// holding a NaN takes the scalar conversion; so does the tail.
HPLMXP_AVX512 void narrowToHalfAvx512(index_t count, const float* src,
                                      half16* dst) {
  index_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512 v = _mm512_loadu_ps(src + i);
    if (_mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q) != 0) {
      narrowToHalfScalar(16, src + i, dst + i);
      continue;
    }
    // The zero-masked form with a full mask is the plain vcvtps2ph; the
    // unmasked intrinsic trips a GCC 12 -Wmaybe-uninitialized false
    // positive on its undefined pass-through.
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm512_maskz_cvtps_ph(0xFFFF, v, _MM_FROUND_TO_NEAREST_INT));
  }
  narrowToHalfScalar(count - i, src + i, dst + i);
}
#endif

/// One TRANS_CAST tile: each source column converts into a stack buffer,
/// then the 16-bit values transpose into dst.
void transCastHalfTile(Isa isa, index_t rows, index_t cols, const float* src,
                       index_t ldSrc, half16* dst, index_t ldDst) {
  half16 buf[kTransTile * kTransTile];
  for (index_t j = 0; j < cols; ++j) {
    detail::narrowToHalf(isa, rows, src + j * ldSrc, buf + j * kTransTile);
  }
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) {
      dst[j + i * ldDst] = buf[i + j * kTransTile];
    }
  }
}

/// Column-parallel cast: convertColumn(s, d) converts the m entries of one
/// source column s into the destination column d.
template <typename TSrc, typename TDst, typename ConvertColumn>
void castColumns(index_t m, index_t n, const TSrc* src, index_t ldSrc,
                 TDst* dst, index_t ldDst, ThreadPool* pool,
                 ConvertColumn convertColumn) {
  HPLMXP_REQUIRE(m >= 0 && n >= 0, "cast dims must be >= 0");
  HPLMXP_REQUIRE(ldSrc >= (m > 0 ? m : 1) && ldDst >= (m > 0 ? m : 1),
                 "cast: leading dimension too small");
  if (m == 0 || n == 0) {
    return;
  }
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  pool->parallelForChunked(
      0, n,
      [&](index_t j0, index_t j1) {
        for (index_t j = j0; j < j1; ++j) {
          convertColumn(src + j * ldSrc, dst + j * ldDst);
        }
      },
      ceilDiv(n, kColChunk));
}

/// castColumns with an element-wise conversion.
template <typename TSrc, typename TDst, typename Convert>
void castCore(index_t m, index_t n, const TSrc* src, index_t ldSrc, TDst* dst,
              index_t ldDst, ThreadPool* pool, Convert convert) {
  castColumns(m, n, src, ldSrc, dst, ldDst, pool,
              [&](const TSrc* s, TDst* d) {
                for (index_t i = 0; i < m; ++i) {
                  d[i] = convert(s[i]);
                }
              });
}

/// Transposing cast over kTransTile x kTransTile tiles. convertTile(i0,
/// j0, rows, cols) converts src[i0:i0+rows, j0:j0+cols] into dst.
template <typename ConvertTile>
void transCastCore(index_t m, index_t n, index_t ldSrc, index_t ldDst,
                   ThreadPool* pool, ConvertTile convertTile) {
  HPLMXP_REQUIRE(m >= 0 && n >= 0, "trans_cast dims must be >= 0");
  HPLMXP_REQUIRE(ldSrc >= (m > 0 ? m : 1), "trans_cast: ldSrc too small");
  HPLMXP_REQUIRE(ldDst >= (n > 0 ? n : 1), "trans_cast: ldDst too small");
  if (m == 0 || n == 0) {
    return;
  }
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  // Tile the transpose so reads and writes both stay cache-friendly.
  const index_t rowTiles = ceilDiv(m, kTransTile);
  const index_t colTiles = ceilDiv(n, kTransTile);
  pool->parallelForChunked(0, rowTiles * colTiles, [&](index_t lo,
                                                       index_t hi) {
    for (index_t t = lo; t < hi; ++t) {
      const index_t i0 = (t % rowTiles) * kTransTile;
      const index_t j0 = (t / rowTiles) * kTransTile;
      convertTile(i0, j0, std::min(kTransTile, m - i0),
                  std::min(kTransTile, n - j0));
    }
  });
}

/// transCastCore with an element-wise conversion.
template <typename TLow, typename Convert>
void transCastElementwise(index_t m, index_t n, const float* src,
                          index_t ldSrc, TLow* dst, index_t ldDst,
                          ThreadPool* pool, Convert convert) {
  transCastCore(m, n, ldSrc, ldDst, pool,
                [&](index_t i0, index_t j0, index_t rows, index_t cols) {
                  for (index_t j = j0; j < j0 + cols; ++j) {
                    for (index_t i = i0; i < i0 + rows; ++i) {
                      dst[j + i * ldDst] = convert(src[i + j * ldSrc]);
                    }
                  }
                });
}

/// Tile amax (max |src(i,j)|), parallel per-chunk maxima folded with
/// std::max — order-free, so the result is thread-count independent.
float tileAmax(index_t m, index_t n, const float* src, index_t ldSrc,
               ThreadPool* pool) {
  if (m == 0 || n == 0) {
    return 0.0f;
  }
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  const index_t chunks = ceilDiv(n, kColChunk);
  std::vector<float> partial(static_cast<std::size_t>(chunks), 0.0f);
  pool->parallelForChunked(
      0, chunks,
      [&](index_t c0, index_t c1) {
        for (index_t c = c0; c < c1; ++c) {
          float best = 0.0f;
          const index_t j1 = std::min(n, (c + 1) * kColChunk);
          for (index_t j = c * kColChunk; j < j1; ++j) {
            const float* s = src + j * ldSrc;
            for (index_t i = 0; i < m; ++i) {
              best = std::max(best, std::fabs(s[i]));
            }
          }
          partial[static_cast<std::size_t>(c)] = best;
        }
      },
      chunks);
  float amax = 0.0f;
  for (float v : partial) {
    amax = std::max(amax, v);
  }
  return amax;
}

}  // namespace

void detail::narrowToHalf([[maybe_unused]] Isa isa, index_t count,
                          const float* src, half16* dst) {
#if HPLMXP_HAVE_AVX512
  if (isa == Isa::kAvx512) {
    narrowToHalfAvx512(count, src, dst);
    return;
  }
#endif
  narrowToHalfScalar(count, src, dst);
}

void detail::castToHalf(Isa isa, index_t m, index_t n, const float* src,
                        index_t ldSrc, half16* dst, index_t ldDst,
                        ThreadPool* pool) {
  castColumns(m, n, src, ldSrc, dst, ldDst, pool,
              [&](const float* s, half16* d) { narrowToHalf(isa, m, s, d); });
}

void detail::transCastToHalf(Isa isa, index_t m, index_t n, const float* src,
                             index_t ldSrc, half16* dst, index_t ldDst,
                             ThreadPool* pool) {
  transCastCore(m, n, ldSrc, ldDst, pool,
                [&](index_t i0, index_t j0, index_t rows, index_t cols) {
                  transCastHalfTile(isa, rows, cols, src + i0 + j0 * ldSrc,
                                    ldSrc, dst + j0 + i0 * ldDst, ldDst);
                });
}

template <typename TLow>
void castToLowp(index_t m, index_t n, const float* src, index_t ldSrc,
                TLow* dst, index_t ldDst, ThreadPool* pool) {
  if constexpr (std::is_same_v<TLow, half16>) {
    detail::castToHalf(hostIsa(), m, n, src, ldSrc, dst, ldDst, pool);
  } else {
    castCore(m, n, src, ldSrc, dst, ldDst, pool,
             [](float v) { return TLow(v); });
  }
}

template <typename TLow>
void transCastToLowp(index_t m, index_t n, const float* src, index_t ldSrc,
                     TLow* dst, index_t ldDst, ThreadPool* pool) {
  if constexpr (std::is_same_v<TLow, half16>) {
    detail::transCastToHalf(hostIsa(), m, n, src, ldSrc, dst, ldDst, pool);
  } else {
    transCastElementwise(m, n, src, ldSrc, dst, ldDst, pool,
                         [](float v) { return TLow(v); });
  }
}

template <typename TLow>
void lowpToFloat(index_t m, index_t n, const TLow* src, index_t ldSrc,
                 float* dst, index_t ldDst, ThreadPool* pool) {
  castCore(m, n, src, ldSrc, dst, ldDst, pool,
           [](TLow v) { return v.toFloat(); });
}

template <typename TLow>
float castToLowpScaled(index_t m, index_t n, const float* src, index_t ldSrc,
                       TLow* dst, index_t ldDst, ThreadPool* pool) {
  const float amax = tileAmax(m, n, src, ldSrc, pool);
  const float s =
      lowp::tileScale(amax, lowp::StorageTraits<TLow>::maxFinite());
  castCore(m, n, src, ldSrc, dst, ldDst, pool,
           [s](float v) { return TLow(v / s); });
  return s;
}

template <typename TLow>
float transCastToLowpScaled(index_t m, index_t n, const float* src,
                            index_t ldSrc, TLow* dst, index_t ldDst,
                            ThreadPool* pool) {
  const float amax = tileAmax(m, n, src, ldSrc, pool);
  const float s =
      lowp::tileScale(amax, lowp::StorageTraits<TLow>::maxFinite());
  transCastElementwise(m, n, src, ldSrc, dst, ldDst, pool,
                       [s](float v) { return TLow(v / s); });
  return s;
}

// The four ladder rungs.
#define HPLMXP_INSTANTIATE_CASTS(T)                                          \
  template void castToLowp<T>(index_t, index_t, const float*, index_t, T*,   \
                              index_t, ThreadPool*);                         \
  template void transCastToLowp<T>(index_t, index_t, const float*, index_t,  \
                                   T*, index_t, ThreadPool*);                \
  template void lowpToFloat<T>(index_t, index_t, const T*, index_t, float*,  \
                               index_t, ThreadPool*);                        \
  template float castToLowpScaled<T>(index_t, index_t, const float*,         \
                                     index_t, T*, index_t, ThreadPool*);     \
  template float transCastToLowpScaled<T>(index_t, index_t, const float*,    \
                                          index_t, T*, index_t, ThreadPool*)

HPLMXP_INSTANTIATE_CASTS(half16);
HPLMXP_INSTANTIATE_CASTS(lowp::bfloat16);
HPLMXP_INSTANTIATE_CASTS(lowp::fp8e4m3);
HPLMXP_INSTANTIATE_CASTS(lowp::fp8e5m2);
#undef HPLMXP_INSTANTIATE_CASTS

void castToHalf(index_t m, index_t n, const float* src, index_t ldSrc,
                half16* dst, index_t ldDst, ThreadPool* pool) {
  castToLowp<half16>(m, n, src, ldSrc, dst, ldDst, pool);
}

void transCastToHalf(index_t m, index_t n, const float* src, index_t ldSrc,
                     half16* dst, index_t ldDst, ThreadPool* pool) {
  transCastToLowp<half16>(m, n, src, ldSrc, dst, ldDst, pool);
}

void castToFloat(index_t m, index_t n, const half16* src, index_t ldSrc,
                 float* dst, index_t ldDst, ThreadPool* pool) {
  lowpToFloat<half16>(m, n, src, ldSrc, dst, ldDst, pool);
}

void narrowToFloat(index_t m, index_t n, const double* src, index_t ldSrc,
                   float* dst, index_t ldDst, ThreadPool* pool) {
  castCore(m, n, src, ldSrc, dst, ldDst, pool,
           [](double v) { return static_cast<float>(v); });
}

void widenToDouble(index_t m, index_t n, const float* src, index_t ldSrc,
                   double* dst, index_t ldDst, ThreadPool* pool) {
  castCore(m, n, src, ldSrc, dst, ldDst, pool,
           [](float v) { return static_cast<double>(v); });
}

}  // namespace hplmxp::blas
