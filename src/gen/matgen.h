// HPL-AI problem generator.
//
// Generates the dense system A x = b used by the benchmark. Entries are
// uniform in [-0.5, 0.5) from the jump-ahead LCG; the diagonal is shifted
// by +N so A is strictly diagonally dominant. Diagonal dominance bounds the
// condition number and (per the HPL-AI rules the paper describes) justifies
// LU factorization *without pivoting*, which is what makes the GPU-friendly
// no-pivot GETRF legal.
//
// Every entry is a pure function of (seed, i, j), so any rank can generate
// any tile of A — the property Algorithm 1 exploits in both initial fill
// and the iterative-refinement residual.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "gen/lcg.h"
#include "util/common.h"
#include "util/isa.h"

namespace hplmxp {

/// Deterministic generator of the HPL-AI test problem of order N.
///
/// Every sweep over A — fills, the refinement residual, the ||A||_inf row
/// sums — and the rhs fill go through one tile walker (matgen.cpp). It
/// jumps once, in O(log N), to the tile's first entry; consecutive columns
/// are exactly N LCG steps apart, so each next column's first state is one
/// multiply-add by the constant N-step map; rows within a column are
/// consecutive LCG indices. On the AVX-512 path (util/isa.h) it steps 32
/// rows at a time, in four independent streams of 8 lanes. Every entry is
/// the same integer state, the same convert-scale-subtract and the same
/// diagonal add on both paths, so the paths agree bitwise. The trailing
/// `isa` parameters name the path explicitly; callers leave them at the
/// CPUID choice and the tests pass every path the host supports.
class ProblemGenerator {
 public:
  /// `diagShift` < 0 selects the benchmark default (+N), which makes A
  /// strictly diagonally dominant. A shift of 0 produces a plain uniform
  /// random matrix — useful for exercising the pivoted FP64 baseline,
  /// where row interchanges actually engage.
  ProblemGenerator(std::uint64_t seed, index_t n, double diagShift = -1.0);

  [[nodiscard]] index_t n() const { return n_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] double diagShift() const { return diagShift_; }

  /// A(i, j) in FP64. O(log N) per call (LCG jump).
  [[nodiscard]] double entry(index_t i, index_t j) const;

  /// Right-hand side b(i) in FP64.
  [[nodiscard]] double rhs(index_t i) const;

  /// Fills a rows x cols tile starting at global (i0, j0) into col-major
  /// `out` with leading dimension `ld`. T is float, double, or any
  /// storage-ladder type (half16/bfloat16/fp8*: the entry narrows through
  /// float, rounding to nearest-even twice). Cost is one O(log N) jump per
  /// tile plus one multiply-add per entry and per column.
  template <typename T>
  void fillTile(index_t i0, index_t j0, index_t rows, index_t cols, T* out,
                index_t ld, Isa isa = hostIsa()) const;

  /// Fills rhs entries [i0, i0+rows) into out: the walk of one more
  /// column, j = N, which holds b (see entryIndex).
  template <typename T>
  void fillRhs(index_t i0, index_t rows, T* out) const;

  /// diag(A) into out[0, N): one O(log N) jump, then the (N+1)-step map
  /// from each diagonal entry to the next.
  void fillDiagonal(double* out) const;

  /// Y(r, c) += A(i0 + r, j0 + j) * (sign * X(j, c)) for the k columns of
  /// the col-major panels X (cols x k, leading dimension ldx) and Y
  /// (rows x k, ldy), sign = +1 or -1, with the tile of A regenerated in
  /// FP64 and never stored. Every Y(r, c) receives its terms multiply then
  /// add, in increasing j, so the result is bitwise the dot product
  /// `acc = Y(r,c); acc += A(i0+r, j0+j) * (sign*X(j,c))`.
  void accumulateTile(index_t i0, index_t j0, index_t rows, index_t cols,
                      double sign, index_t k, const double* x, index_t ldx,
                      double* y, index_t ldy, Isa isa = hostIsa()) const;

  /// rowSums[r] += |A(i0 + r, j0 + j)| in increasing j: the tile's share
  /// of the ||A||_inf row sums.
  void accumulateAbsRowSums(index_t i0, index_t j0, index_t rows,
                            index_t cols, double* rowSums,
                            Isa isa = hostIsa()) const;

  /// Y(:, c) += sign * A * X(:, c) for the k columns of the col-major
  /// N x k panels X (leading dimension ldx) and Y (ldy), sign = +1 or -1:
  /// the refinement residual and mat-vec of Algorithm 1 without ever
  /// storing A. One accumulateTile over the whole matrix, so each column
  /// of A serves all k columns of X.
  void addProduct(double sign, index_t k, const double* x, index_t ldx,
                  double* y, index_t ldy, Isa isa = hostIsa()) const;

  /// max_i |A(i,i)|; needed by the HPL-AI convergence criterion.
  [[nodiscard]] double diagInfNorm() const;

  /// ||b||_inf, computed by one fillRhs sweep.
  [[nodiscard]] double rhsInfNorm() const;

  /// ||A||_inf (max row sum of |A(i,j)|). O(N^2) sequential draws, row
  /// sums accumulated in a column sweep in increasing j; intended for the
  /// problem sizes used in verification, not extreme-scale runs.
  [[nodiscard]] double matrixInfNorm() const;

 private:
  /// LCG index of entry (i, j): columns are laid out consecutively so that
  /// a column fill costs one jump. Index 0..N^2-1 covers A; N^2..N^2+N-1
  /// covers b, as column j = N.
  [[nodiscard]] std::uint64_t entryIndex(index_t i, index_t j) const {
    return static_cast<std::uint64_t>(j) * static_cast<std::uint64_t>(n_) +
           static_cast<std::uint64_t>(i);
  }

  [[nodiscard]] double valueAt(std::uint64_t lcgIndex, bool onDiagonal) const;

  /// The walker's store entry points (matgen.cpp). j0 may be N, the
  /// column that holds b.
  void storeTile(Isa isa, index_t i0, index_t j0, index_t rows,
                 index_t cols, double* out, index_t ld) const;
  void storeTile(Isa isa, index_t i0, index_t j0, index_t rows,
                 index_t cols, float* out, index_t ld) const;

  /// storeTile for any T: FP64 and FP32 store directly, the narrower
  /// types convert a stack chunk of FP64 entries one by one.
  template <typename T>
  void storeAny(Isa isa, index_t i0, index_t j0, index_t rows, index_t cols,
                T* out, index_t ld) const;

  /// Walks the tile (i0, j0, rows, cols) on path `isa`, handing every
  /// entry of A to `sink` (matgen.cpp).
  template <typename Sink>
  void walkTile(Isa isa, index_t i0, index_t j0, index_t rows, index_t cols,
                Sink& sink) const;

  void requireTile(index_t i0, index_t j0, index_t rows, index_t cols) const;

  std::uint64_t seed_;
  index_t n_;
  double diagShift_;
  Lcg64::Map columnStep_;  // N steps: A(i, j) -> A(i, j + 1)
};

template <typename T>
void ProblemGenerator::fillTile(index_t i0, index_t j0, index_t rows,
                                index_t cols, T* out, index_t ld,
                                Isa isa) const {
  requireTile(i0, j0, rows, cols);
  HPLMXP_REQUIRE(ld >= rows, "leading dimension too small");
  storeAny(isa, i0, j0, rows, cols, out, ld);
}

template <typename T>
void ProblemGenerator::fillRhs(index_t i0, index_t rows, T* out) const {
  HPLMXP_REQUIRE(i0 >= 0 && rows >= 0 && i0 + rows <= n_,
                 "rhs segment out of bounds");
  storeAny(hostIsa(), i0, n_, rows, 1, out, rows);
}

template <typename T>
void ProblemGenerator::storeAny(Isa isa, index_t i0, index_t j0,
                                index_t rows, index_t cols, T* out,
                                index_t ld) const {
  if constexpr (std::is_same_v<T, double> || std::is_same_v<T, float>) {
    storeTile(isa, i0, j0, rows, cols, out, ld);
  } else {
    constexpr index_t kChunk = 2048;
    double chunk[kChunk];
    const index_t rb = std::min(rows, kChunk);
    const index_t cb = std::max<index_t>(1, kChunk / std::max<index_t>(1, rb));
    for (index_t c0 = 0; c0 < cols; c0 += cb) {
      const index_t nc = std::min(cb, cols - c0);
      for (index_t r0 = 0; r0 < rows; r0 += rb) {
        const index_t nr = std::min(rb, rows - r0);
        storeTile(isa, i0 + r0, j0 + c0, nr, nc, chunk, nr);
        for (index_t c = 0; c < nc; ++c) {
          T* col = out + r0 + (c0 + c) * ld;
          for (index_t r = 0; r < nr; ++r) {
            col[r] = static_cast<T>(chunk[r + c * nr]);
          }
        }
      }
    }
  }
}

}  // namespace hplmxp
