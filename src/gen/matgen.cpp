#include "gen/matgen.h"

#include <cmath>
#include <vector>

#include "util/buffer.h"
#include "util/simd.h"

namespace hplmxp {

namespace {

/// Rows per vector step of the AVX-512 walker: four streams of 8 lanes.
/// One stream's vpmullq has a long latency; four independent streams hide
/// it.
constexpr index_t kLanes = 32;

/// Lane l of a vector step holds row r + l of the column; its state is
/// the column-row state advanced l steps, (a^l, c_l).
struct LaneTable {
  std::uint64_t mul[kLanes];
  std::uint64_t add[kLanes];
};

constexpr LaneTable makeLaneTable() {
  LaneTable t{};
  for (index_t l = 0; l < kLanes; ++l) {
    const Lcg64::Map m = Lcg64::stepMap(static_cast<std::uint64_t>(l));
    t.mul[l] = m.mul;
    t.add[l] = m.add;
  }
  return t;
}

alignas(64) constexpr LaneTable kLaneTable = makeLaneTable();
constexpr Lcg64::Map kLaneStep = Lcg64::stepMap(kLanes);

/// One tile of A, as the walker sees it: the state of entry (i0, j0), the
/// map from a column's first state to the next's, the tile shape, and the
/// row of column 0 that holds the diagonal (j0 - i0; outside [0, rows)
/// when the diagonal misses that column).
struct Walk {
  std::uint64_t first;
  Lcg64::Map column;
  index_t rows;
  index_t cols;
  index_t diagRow;
  double shift;
};

/// Rows [r0, rows) of column c from `state`, the state of row r0, one
/// entry at a time: the scalar path, and the AVX-512 path's tail.
template <typename Sink>
inline void walkRows(const Walk& w, index_t c, index_t r0,
                     std::uint64_t state, Sink& sink) {
  const index_t diag = w.diagRow + c;
  for (index_t r = r0; r < w.rows; ++r) {
    double v = Lcg64::toUniform(state);
    if (r == diag) {
      v += w.shift;
    }
    sink.scalar(c, r, v);
    state = state * Lcg64::kMultiplier + Lcg64::kIncrement;
  }
}

template <typename Sink>
void walkScalar(const Walk& w, Sink& sink) {
  std::uint64_t start = w.first;
  for (index_t c = 0; c < w.cols; ++c) {
    sink.column(c);
    walkRows(w, c, 0, start, sink);
    start = w.column(start);
  }
}

#if HPLMXP_HAVE_AVX512
/// The AVX-512 walk: per column, four streams of 8 lanes seeded from the
/// lane table step 32 rows at a time by (a^32, c_32) with vpmullq. Each
/// state converts exactly as Lcg64::toUniform does: the top 53 bits to
/// double (exact), times 2^-53 (exact), minus 0.5. The diagonal shift goes
/// to the one lane that holds it. A tail shorter than 32 rows runs
/// walkRows. Where GCC 12's plain form of an intrinsic trips a
/// -Wmaybe-uninitialized false positive on its undefined pass-through, the
/// walker and its sinks use the all-ones maskz form.
template <typename Sink>
HPLMXP_AVX512 void walkAvx512(const Walk& w, Sink& sink) {
  const index_t full = w.rows - w.rows % kLanes;
  if (full == 0) {
    walkScalar(w, sink);
    return;
  }
  __m512i laneMul[4];
  __m512i laneAdd[4];
  for (int q = 0; q < 4; ++q) {
    laneMul[q] = _mm512_load_si512(kLaneTable.mul + 8 * q);
    laneAdd[q] = _mm512_load_si512(kLaneTable.add + 8 * q);
  }
  const __m512i stepMul =
      _mm512_set1_epi64(static_cast<long long>(kLaneStep.mul));
  const __m512i stepAdd =
      _mm512_set1_epi64(static_cast<long long>(kLaneStep.add));
  const __m512d scale = _mm512_set1_pd(1.0 / 9007199254740992.0);  // 2^-53
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d shift = _mm512_set1_pd(w.shift);

  std::uint64_t start = w.first;
  for (index_t c = 0; c < w.cols; ++c) {
    sink.column(c);
    const __m512i first = _mm512_set1_epi64(static_cast<long long>(start));
    __m512i state[4];
    for (int q = 0; q < 4; ++q) {
      state[q] = _mm512_add_epi64(_mm512_mullo_epi64(first, laneMul[q]),
                                  laneAdd[q]);
    }
    const index_t diag = w.diagRow + c;
    for (index_t r = 0; r < full; r += kLanes) {
      __m512d v[4];
      for (int q = 0; q < 4; ++q) {
        const __m512d u =
            _mm512_cvtepu64_pd(_mm512_maskz_srli_epi64(0xFF, state[q], 11));
        v[q] = _mm512_sub_pd(_mm512_mul_pd(u, scale), half);
      }
      const index_t lane = diag - r;
      if (lane >= 0 && lane < kLanes) {
        const auto bit = static_cast<__mmask8>(1U << (lane % 8));
        for (int q = 0; q < 4; ++q) {
          if (lane / 8 == q) {
            v[q] = _mm512_mask_add_pd(v[q], bit, v[q], shift);
          }
        }
      }
      sink.block(c, r, v);
      for (int q = 0; q < 4; ++q) {
        state[q] =
            _mm512_add_epi64(_mm512_mullo_epi64(state[q], stepMul), stepAdd);
      }
    }
    if (full < w.rows) {
      // Lane 0 of stream 0 has reached row `full`.
      alignas(64) std::uint64_t lanes[8];
      _mm512_store_si512(lanes, state[0]);
      walkRows(w, c, full, lanes[0], sink);
    }
    start = w.column(start);
  }
}
#endif

// The sinks. scalar() takes one entry and runs on both paths; block()
// takes the 32 entries of one vector step and runs on the AVX-512 path
// only. Each does the same arithmetic per element in both.

/// out(r, c) = T(v), for T = double or float. vcvtpd2ps rounds to nearest
/// even, as static_cast<float> does.
template <typename T>
struct StoreSink {
  T* out;
  index_t ld;

  void column(index_t /*c*/) {}
  void scalar(index_t c, index_t r, double v) {
    out[r + c * ld] = static_cast<T>(v);
  }
#if HPLMXP_HAVE_AVX512
  HPLMXP_AVX512 void block(index_t c, index_t r, const __m512d* v) {
    T* dst = out + r + c * ld;
    for (int q = 0; q < 4; ++q) {
      if constexpr (std::is_same_v<T, double>) {
        _mm512_storeu_pd(dst + 8 * q, v[q]);
      } else {
        _mm256_storeu_ps(dst + 8 * q, _mm512_maskz_cvtpd_ps(0xFF, v[q]));
      }
    }
  }
#endif
};

/// Panel columns one accumulating walk serves; a wider panel is walked
/// once per group. The serve batch is at most 8 columns by default.
constexpr index_t kPanelGroup = 8;

/// y(r, p) += v * (sign * x(c, p)) for the k <= kPanelGroup panel columns
/// p: multiply, then add.
struct AccumulateSink {
  double sign;
  index_t k;
  const double* x;
  index_t ldx;
  double* y;
  index_t ldy;
  double xs[kPanelGroup] = {};  // sign * x(c, p) of the current column c

  void column(index_t c) {
    for (index_t p = 0; p < k; ++p) {
      xs[p] = sign * x[c + p * ldx];
    }
  }
  void scalar(index_t /*c*/, index_t r, double v) {
    for (index_t p = 0; p < k; ++p) {
      y[r + p * ldy] += v * xs[p];
    }
  }
#if HPLMXP_HAVE_AVX512
  HPLMXP_AVX512 void block(index_t /*c*/, index_t r, const __m512d* v) {
    for (index_t p = 0; p < k; ++p) {
      const __m512d xp = _mm512_set1_pd(xs[p]);
      double* yp = y + r + p * ldy;
      for (int q = 0; q < 4; ++q) {
        const __m512d acc = _mm512_loadu_pd(yp + 8 * q);
        _mm512_storeu_pd(yp + 8 * q,
                         _mm512_add_pd(acc, _mm512_mul_pd(v[q], xp)));
      }
    }
  }
#endif
};

/// sums(r) += |v|.
struct AbsRowSumSink {
  double* sums;

  void column(index_t /*c*/) {}
  void scalar(index_t /*c*/, index_t r, double v) { sums[r] += std::fabs(v); }
#if HPLMXP_HAVE_AVX512
  HPLMXP_AVX512 void block(index_t /*c*/, index_t r, const __m512d* v) {
    for (int q = 0; q < 4; ++q) {
      double* s = sums + r + 8 * q;
      _mm512_storeu_pd(s, _mm512_add_pd(_mm512_loadu_pd(s),
                                        _mm512_abs_pd(v[q])));
    }
  }
#endif
};

}  // namespace

ProblemGenerator::ProblemGenerator(std::uint64_t seed, index_t n,
                                   double diagShift)
    : seed_(seed), n_(n),
      diagShift_(diagShift < 0.0 ? static_cast<double>(n) : diagShift) {
  HPLMXP_REQUIRE(n > 0, "matrix order must be positive");
  columnStep_ = Lcg64::stepMap(static_cast<std::uint64_t>(n));
}

double ProblemGenerator::valueAt(std::uint64_t lcgIndex,
                                 bool onDiagonal) const {
  const std::uint64_t state = Lcg64::jumped(seed_, lcgIndex + 1);
  double v = Lcg64::toUniform(state);
  if (onDiagonal) {
    v += diagShift_;
  }
  return v;
}

double ProblemGenerator::entry(index_t i, index_t j) const {
  HPLMXP_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "entry out of range");
  return valueAt(entryIndex(i, j), i == j);
}

double ProblemGenerator::rhs(index_t i) const {
  HPLMXP_REQUIRE(i >= 0 && i < n_, "rhs index out of range");
  return valueAt(entryIndex(i, n_), false);
}

template <typename Sink>
void ProblemGenerator::walkTile([[maybe_unused]] Isa isa, index_t i0,
                                index_t j0, index_t rows, index_t cols,
                                Sink& sink) const {
  const Walk w{Lcg64::jumped(seed_, entryIndex(i0, j0) + 1), columnStep_,
               rows, cols, j0 - i0, diagShift_};
#if HPLMXP_HAVE_AVX512
  if (isa == Isa::kAvx512) {
    walkAvx512(w, sink);
    return;
  }
#endif
  walkScalar(w, sink);
}

void ProblemGenerator::requireTile(index_t i0, index_t j0, index_t rows,
                                   index_t cols) const {
  HPLMXP_REQUIRE(i0 >= 0 && j0 >= 0 && rows >= 0 && cols >= 0,
                 "tile bounds must be non-negative");
  HPLMXP_REQUIRE(i0 + rows <= n_ && j0 + cols <= n_,
                 "tile exceeds matrix bounds");
}

void ProblemGenerator::storeTile(Isa isa, index_t i0, index_t j0,
                                 index_t rows, index_t cols, double* out,
                                 index_t ld) const {
  StoreSink<double> sink{out, ld};
  walkTile(isa, i0, j0, rows, cols, sink);
}

void ProblemGenerator::storeTile(Isa isa, index_t i0, index_t j0,
                                 index_t rows, index_t cols, float* out,
                                 index_t ld) const {
  StoreSink<float> sink{out, ld};
  walkTile(isa, i0, j0, rows, cols, sink);
}

void ProblemGenerator::fillDiagonal(double* out) const {
  // N + 1 steps: A(i, i) -> A(i + 1, i + 1).
  const Lcg64::Map diagStep = Lcg64::stepMap(entryIndex(1, 1));
  std::uint64_t state = Lcg64::jumped(seed_, 1);
  for (index_t i = 0; i < n_; ++i) {
    out[i] = Lcg64::toUniform(state) + diagShift_;
    state = diagStep(state);
  }
}

double ProblemGenerator::diagInfNorm() const {
  Buffer<double> diag(n_);
  fillDiagonal(diag.data());
  double best = 0.0;
  for (index_t i = 0; i < n_; ++i) {
    best = std::max(best, std::fabs(diag[i]));
  }
  return best;
}

void ProblemGenerator::accumulateTile(index_t i0, index_t j0, index_t rows,
                                      index_t cols, double sign, index_t k,
                                      const double* x, index_t ldx,
                                      double* y, index_t ldy,
                                      Isa isa) const {
  HPLMXP_REQUIRE(sign == 1.0 || sign == -1.0, "product sign must be +1 or -1");
  requireTile(i0, j0, rows, cols);
  HPLMXP_REQUIRE(k >= 0 && ldx >= cols && ldy >= rows,
                 "panel shape does not fit the tile");
  // A(i,j) * (sign * x) is exactly sign * (A(i,j) * x), and adding the
  // negated product is exactly subtracting it.
  for (index_t p0 = 0; p0 < k; p0 += kPanelGroup) {
    AccumulateSink sink{sign, std::min(kPanelGroup, k - p0), x + p0 * ldx,
                        ldx, y + p0 * ldy, ldy};
    walkTile(isa, i0, j0, rows, cols, sink);
  }
}

void ProblemGenerator::accumulateAbsRowSums(index_t i0, index_t j0,
                                            index_t rows, index_t cols,
                                            double* rowSums, Isa isa) const {
  requireTile(i0, j0, rows, cols);
  AbsRowSumSink sink{rowSums};
  walkTile(isa, i0, j0, rows, cols, sink);
}

void ProblemGenerator::addProduct(double sign, index_t k, const double* x,
                                  index_t ldx, double* y, index_t ldy,
                                  Isa isa) const {
  accumulateTile(0, 0, n_, n_, sign, k, x, ldx, y, ldy, isa);
}

double ProblemGenerator::rhsInfNorm() const {
  Buffer<double> b(n_);
  fillRhs<double>(0, n_, b.data());
  double best = 0.0;
  for (index_t i = 0; i < n_; ++i) {
    best = std::max(best, std::fabs(b[i]));
  }
  return best;
}

double ProblemGenerator::matrixInfNorm() const {
  std::vector<double> rowSums(static_cast<std::size_t>(n_), 0.0);
  accumulateAbsRowSums(0, 0, n_, n_, rowSums.data());
  double best = 0.0;
  for (const double rowSum : rowSums) {
    best = std::max(best, rowSum);
  }
  return best;
}

}  // namespace hplmxp
