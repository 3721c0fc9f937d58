// Precision conversion kernels: the CAST and TRANS_CAST phases of
// Algorithm 1 (lines 15 and 24), plus the FP64 -> FP32 conversion used when
// staging the generated matrix onto the device.
//
// TRANS_CAST transposes the U panel while casting so the trailing-update
// GEMM can consume both panels with a uniform fast layout — the paper notes
// U "is conveniently transposed and cast simultaneously".
//
// The cast paths are precision-parameterized over the storage ladder
// (lowp/traits.h): castToLowp / transCastToLowp / lowpToFloat are
// instantiated for binary16, bfloat16 and the FP8 pair. The FP8 rungs go
// through the *Scaled variants, which compute a per-tile power-of-two
// scale (lowp/scale.h), store value/scale, and return the scale for the
// caller to fold into the GEMM's alpha — exactly in FP32, so scaling never
// perturbs the rounding arithmetic. castToHalf and friends are the
// historical binary16 names and stay bitwise-identical: they ARE the
// half16 instantiations. On the AVX-512 path (blas/isa.h) the binary16
// CAST and TRANS_CAST convert 16 lanes at a time with vcvtps2ph (round to
// nearest even); a 16-lane chunk holding a NaN takes half16(float), so the
// NaN encoding stays sign|0x7E00 and every output bit matches the scalar
// path.
#pragma once

#include "fp16/half.h"
#include "lowp/bfloat16.h"
#include "lowp/fp8.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace hplmxp::blas {

/// dst(i,j) = TLow(src(i,j)); col-major m x n, round-to-nearest-even.
template <typename TLow>
void castToLowp(index_t m, index_t n, const float* src, index_t ldSrc,
                TLow* dst, index_t ldDst, ThreadPool* pool = nullptr);

/// dst(j,i) = TLow(src(i,j)): transposes m x n src into n x m dst while
/// casting.
template <typename TLow>
void transCastToLowp(index_t m, index_t n, const float* src, index_t ldSrc,
                     TLow* dst, index_t ldDst, ThreadPool* pool = nullptr);

/// dst(i,j) = float(src(i,j)); exact widening.
template <typename TLow>
void lowpToFloat(index_t m, index_t n, const TLow* src, index_t ldSrc,
                 float* dst, index_t ldDst, ThreadPool* pool = nullptr);

/// Scaled cast for the narrow-range rungs: computes the tile's amax,
/// derives the power-of-two scale s = lowp::tileScale(amax, maxFinite),
/// stores dst = TLow(src / s), and returns s. The caller multiplies the
/// consuming GEMM's alpha by s (exact: s is a power of two).
template <typename TLow>
float castToLowpScaled(index_t m, index_t n, const float* src, index_t ldSrc,
                       TLow* dst, index_t ldDst, ThreadPool* pool = nullptr);

/// Transposing flavor of the scaled cast.
template <typename TLow>
float transCastToLowpScaled(index_t m, index_t n, const float* src,
                            index_t ldSrc, TLow* dst, index_t ldDst,
                            ThreadPool* pool = nullptr);

/// dst(i,j) = half(src(i,j)); col-major m x n. (binary16 instantiation of
/// castToLowp, kept under its historical name.)
void castToHalf(index_t m, index_t n, const float* src, index_t ldSrc,
                half16* dst, index_t ldDst, ThreadPool* pool = nullptr);

/// dst(j,i) = half(src(i,j)): transposes m x n src into n x m dst while
/// casting to binary16.
void transCastToHalf(index_t m, index_t n, const float* src, index_t ldSrc,
                     half16* dst, index_t ldDst, ThreadPool* pool = nullptr);

/// dst(i,j) = float(src(i,j)); col-major m x n, binary16 -> FP32 (exact).
void castToFloat(index_t m, index_t n, const half16* src, index_t ldSrc,
                 float* dst, index_t ldDst, ThreadPool* pool = nullptr);

/// FP64 -> FP32 narrowing copy (host matrix -> device matrix staging).
void narrowToFloat(index_t m, index_t n, const double* src, index_t ldSrc,
                   float* dst, index_t ldDst, ThreadPool* pool = nullptr);

/// FP32 -> FP64 widening copy.
void widenToDouble(index_t m, index_t n, const float* src, index_t ldSrc,
                   double* dst, index_t ldDst, ThreadPool* pool = nullptr);

}  // namespace hplmxp::blas
