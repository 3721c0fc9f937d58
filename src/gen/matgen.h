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

#include <cstdint>

#include "gen/lcg.h"
#include "util/common.h"

namespace hplmxp {

/// Deterministic generator of the HPL-AI test problem of order N.
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
  /// column plus O(rows) sequential draws, because consecutive rows within
  /// a column are consecutive LCG indices.
  template <typename T>
  void fillTile(index_t i0, index_t j0, index_t rows, index_t cols, T* out,
                index_t ld) const;

  /// Fills rhs entries [i0, i0+rows) into out.
  template <typename T>
  void fillRhs(index_t i0, index_t rows, T* out) const;

  /// Y(:, c) += sign * A * X(:, c) for the k columns of the col-major
  /// N x k panels X (leading dimension ldx) and Y (ldy), sign = +1 or -1,
  /// with A regenerated in FP64 — the refinement residual and mat-vec of
  /// Algorithm 1 without ever storing A. A is streamed one column at a
  /// time through fillTile: one O(log N) jump per column plus N^2
  /// sequential draws, where regenerating row by row pays a jump per
  /// entry (N^2 jumps). Each column of A serves all k columns of X. Every
  /// Y(i, c) still receives its N terms in increasing j, so the result is
  /// bitwise the row dot product `acc = Y(i,c); acc += sign*A(i,j)*X(j,c)`.
  void addProduct(double sign, index_t k, const double* x, index_t ldx,
                  double* y, index_t ldy) const;

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
  /// covers b.
  [[nodiscard]] std::uint64_t entryIndex(index_t i, index_t j) const {
    return static_cast<std::uint64_t>(j) * static_cast<std::uint64_t>(n_) +
           static_cast<std::uint64_t>(i);
  }

  [[nodiscard]] double valueAt(std::uint64_t lcgIndex, bool onDiagonal) const;

  std::uint64_t seed_;
  index_t n_;
  double diagShift_;
};

template <typename T>
void ProblemGenerator::fillTile(index_t i0, index_t j0, index_t rows,
                                index_t cols, T* out, index_t ld) const {
  HPLMXP_REQUIRE(i0 >= 0 && j0 >= 0 && rows >= 0 && cols >= 0,
                 "tile bounds must be non-negative");
  HPLMXP_REQUIRE(i0 + rows <= n_ && j0 + cols <= n_,
                 "tile exceeds matrix bounds");
  HPLMXP_REQUIRE(ld >= rows, "leading dimension too small");
  for (index_t c = 0; c < cols; ++c) {
    const index_t j = j0 + c;
    // Jump to the first entry of this column segment, then walk rows.
    std::uint64_t state = Lcg64::jumped(seed_, entryIndex(i0, j) + 1);
    T* col = out + c * ld;
    for (index_t r = 0; r < rows; ++r) {
      const index_t i = i0 + r;
      double v = Lcg64::toUniform(state);
      if (i == j) {
        v += diagShift_;
      }
      col[r] = static_cast<T>(v);
      state = state * Lcg64::kMultiplier + Lcg64::kIncrement;
    }
  }
}

template <typename T>
void ProblemGenerator::fillRhs(index_t i0, index_t rows, T* out) const {
  HPLMXP_REQUIRE(i0 >= 0 && rows >= 0 && i0 + rows <= n_,
                 "rhs segment out of bounds");
  const std::uint64_t base = static_cast<std::uint64_t>(n_) *
                             static_cast<std::uint64_t>(n_);
  std::uint64_t state =
      Lcg64::jumped(seed_, base + static_cast<std::uint64_t>(i0) + 1);
  for (index_t r = 0; r < rows; ++r) {
    out[r] = static_cast<T>(Lcg64::toUniform(state));
    state = state * Lcg64::kMultiplier + Lcg64::kIncrement;
  }
}

}  // namespace hplmxp
