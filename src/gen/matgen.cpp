#include "gen/matgen.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/buffer.h"

namespace hplmxp {

ProblemGenerator::ProblemGenerator(std::uint64_t seed, index_t n,
                                   double diagShift)
    : seed_(seed), n_(n),
      diagShift_(diagShift < 0.0 ? static_cast<double>(n) : diagShift) {
  HPLMXP_REQUIRE(n > 0, "matrix order must be positive");
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
  const std::uint64_t base =
      static_cast<std::uint64_t>(n_) * static_cast<std::uint64_t>(n_);
  return valueAt(base + static_cast<std::uint64_t>(i), false);
}

double ProblemGenerator::diagInfNorm() const {
  double best = 0.0;
  for (index_t i = 0; i < n_; ++i) {
    best = std::max(best, std::fabs(entry(i, i)));
  }
  return best;
}

void ProblemGenerator::addProduct(double sign, index_t k, const double* x,
                                  index_t ldx, double* y,
                                  index_t ldy) const {
  HPLMXP_REQUIRE(sign == 1.0 || sign == -1.0, "product sign must be +1 or -1");
  HPLMXP_REQUIRE(k >= 0 && ldx >= n_ && ldy >= n_,
                 "panel shape does not fit the matrix order");
  Buffer<double> col(n_);
  for (index_t j = 0; j < n_; ++j) {
    fillTile<double>(0, j, n_, 1, col.data(), n_);
    for (index_t c = 0; c < k; ++c) {
      // A(i,j) * (sign * x) is exactly sign * (A(i,j) * x), and adding the
      // negated product is exactly subtracting it.
      const double xj = sign * x[j + c * ldx];
      double* yc = y + c * ldy;
      for (index_t i = 0; i < n_; ++i) {
        yc[i] += col[i] * xj;
      }
    }
  }
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
  Buffer<double> col(n_);
  for (index_t j = 0; j < n_; ++j) {
    fillTile<double>(0, j, n_, 1, col.data(), n_);
    for (index_t i = 0; i < n_; ++i) {
      rowSums[static_cast<std::size_t>(i)] += std::fabs(col[i]);
    }
  }
  double best = 0.0;
  for (const double rowSum : rowSums) {
    best = std::max(best, rowSum);
  }
  return best;
}

}  // namespace hplmxp
