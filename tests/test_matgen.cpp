// Tests of the HPL-AI problem generator: determinism, tile/element
// agreement, diagonal dominance (the no-pivoting justification), norms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gen/matgen.h"

namespace hplmxp {
namespace {

TEST(Matgen, EntryDeterministic) {
  ProblemGenerator g1(7, 64);
  ProblemGenerator g2(7, 64);
  for (index_t i = 0; i < 64; i += 5) {
    for (index_t j = 0; j < 64; j += 3) {
      EXPECT_EQ(g1.entry(i, j), g2.entry(i, j));
    }
  }
}

TEST(Matgen, SeedChangesMatrix) {
  ProblemGenerator g1(1, 32);
  ProblemGenerator g2(2, 32);
  int same = 0;
  for (index_t i = 0; i < 32; ++i) {
    same += g1.entry(i, 0) == g2.entry(i, 0) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Matgen, OffDiagonalRange) {
  ProblemGenerator g(3, 100);
  for (index_t i = 0; i < 100; ++i) {
    for (index_t j = 0; j < 100; ++j) {
      if (i == j) {
        continue;
      }
      const double v = g.entry(i, j);
      EXPECT_GE(v, -0.5);
      EXPECT_LT(v, 0.5);
    }
  }
}

TEST(Matgen, StrictDiagonalDominance) {
  // The property that justifies factorizing WITHOUT pivoting.
  const index_t n = 96;
  ProblemGenerator g(11, n);
  for (index_t i = 0; i < n; ++i) {
    double offSum = 0.0;
    for (index_t j = 0; j < n; ++j) {
      if (j != i) {
        offSum += std::fabs(g.entry(i, j));
      }
    }
    EXPECT_GT(std::fabs(g.entry(i, i)), offSum) << "row " << i;
  }
}

class MatgenTileTest
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {
};

TEST_P(MatgenTileTest, TileMatchesElementwise) {
  const auto [i0, j0, size] = GetParam();
  const index_t n = 64;
  ProblemGenerator g(5, n);
  std::vector<double> tile(static_cast<std::size_t>(size * size));
  g.fillTile<double>(i0, j0, size, size, tile.data(), size);
  for (index_t c = 0; c < size; ++c) {
    for (index_t r = 0; r < size; ++r) {
      EXPECT_EQ(tile[static_cast<std::size_t>(r + c * size)],
                g.entry(i0 + r, j0 + c))
          << "r=" << r << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, MatgenTileTest,
    ::testing::Values(std::make_tuple(0, 0, 8), std::make_tuple(8, 16, 16),
                      std::make_tuple(1, 1, 7), std::make_tuple(32, 0, 32),
                      std::make_tuple(56, 56, 8), std::make_tuple(0, 63, 1)));

TEST(Matgen, FloatTileIsNarrowedDoubleTile) {
  const index_t n = 48;
  ProblemGenerator g(9, n);
  std::vector<float> ftile(static_cast<std::size_t>(n * n));
  std::vector<double> dtile(static_cast<std::size_t>(n * n));
  g.fillTile<float>(0, 0, n, n, ftile.data(), n);
  g.fillTile<double>(0, 0, n, n, dtile.data(), n);
  for (std::size_t i = 0; i < ftile.size(); ++i) {
    EXPECT_EQ(ftile[i], static_cast<float>(dtile[i]));
  }
}

TEST(Matgen, RhsMatchesFill) {
  const index_t n = 40;
  ProblemGenerator g(13, n);
  std::vector<double> b(static_cast<std::size_t>(n));
  g.fillRhs<double>(0, n, b.data());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(b[static_cast<std::size_t>(i)], g.rhs(i));
  }
  // Segment fill agrees with full fill.
  std::vector<double> seg(10);
  g.fillRhs<double>(17, 10, seg.data());
  for (index_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seg[static_cast<std::size_t>(i)], g.rhs(17 + i));
  }
}

TEST(Matgen, RhsIndependentOfMatrixEntries) {
  // b lives in LCG index space beyond N^2; it must not alias any A entry.
  const index_t n = 16;
  ProblemGenerator g(21, n);
  for (index_t i = 0; i < n; ++i) {
    const double b = g.rhs(i);
    EXPECT_GE(b, -0.5);
    EXPECT_LT(b, 0.5);
  }
}

TEST(Matgen, Norms) {
  const index_t n = 32;
  ProblemGenerator g(17, n);
  double diagMax = 0.0;
  double bMax = 0.0;
  for (index_t i = 0; i < n; ++i) {
    diagMax = std::max(diagMax, std::fabs(g.entry(i, i)));
    bMax = std::max(bMax, std::fabs(g.rhs(i)));
  }
  EXPECT_DOUBLE_EQ(g.diagInfNorm(), diagMax);
  EXPECT_DOUBLE_EQ(g.rhsInfNorm(), bMax);
  // Bitwise against the elementwise definitions: the column sweeps keep
  // each row sum in increasing j.
  double rowSumMax = 0.0;
  for (index_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (index_t j = 0; j < n; ++j) {
      rowSum += std::fabs(g.entry(i, j));
    }
    rowSumMax = std::max(rowSumMax, rowSum);
  }
  EXPECT_EQ(g.diagInfNorm(), diagMax);
  EXPECT_EQ(g.rhsInfNorm(), bMax);
  EXPECT_EQ(g.matrixInfNorm(), rowSumMax);
  // diag ~ N +- 0.5.
  EXPECT_GT(g.diagInfNorm(), static_cast<double>(n) - 0.5);
  EXPECT_LT(g.diagInfNorm(), static_cast<double>(n) + 0.5);
  // ||A||_inf >= diag and <= diag + 0.5*(n-1).
  const double aInf = g.matrixInfNorm();
  EXPECT_GE(aInf, g.diagInfNorm());
  EXPECT_LE(aInf, static_cast<double>(n) + 0.5 + 0.5 * (n - 1));
}

/// The row-at-a-time regeneration addProduct replaced: a jump per entry,
/// and each Y(i, c) a dot product over increasing j.
void rowByRowProduct(const ProblemGenerator& g, double sign, index_t k,
                     const double* x, index_t ldx, double* y, index_t ldy) {
  const index_t n = g.n();
  std::vector<double> row(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    g.fillTile<double>(i, 0, 1, n, row.data(), 1);
    for (index_t c = 0; c < k; ++c) {
      const double* xc = x + c * ldx;
      double acc = y[i + c * ldy];
      for (index_t j = 0; j < n; ++j) {
        if (sign < 0.0) {
          acc -= row[static_cast<std::size_t>(j)] * xc[j];
        } else {
          acc += row[static_cast<std::size_t>(j)] * xc[j];
        }
      }
      y[i + c * ldy] = acc;
    }
  }
}

TEST(Matgen, AddProductMatchesRowByRowBitwise) {
  for (const index_t n : {1, 2, 63, 64, 256}) {
    for (const index_t k : {1, 3, 8}) {
      for (const double shift : {-1.0, 3.0}) {
        for (const double sign : {-1.0, 1.0}) {
          const ProblemGenerator g(41, n, shift);
          // Padded leading dimensions; the padding must stay untouched.
          const index_t ldx = n + 1;
          const index_t ldy = n + 2;
          std::vector<double> x(static_cast<std::size_t>(ldx * k));
          std::vector<double> y(static_cast<std::size_t>(ldy * k));
          ProblemGenerator(42, ldx * k).fillRhs<double>(0, ldx * k, x.data());
          ProblemGenerator(43, ldy * k).fillRhs<double>(0, ldy * k, y.data());
          std::vector<double> ref = y;
          g.addProduct(sign, k, x.data(), ldx, y.data(), ldy);
          rowByRowProduct(g, sign, k, x.data(), ldx, ref.data(), ldy);
          EXPECT_EQ(0, std::memcmp(y.data(), ref.data(),
                                   sizeof(double) * y.size()))
              << "n=" << n << " k=" << k << " shift=" << shift
              << " sign=" << sign;
        }
      }
    }
  }
}

TEST(Matgen, AddProductRejectsBadSignAndShape) {
  const ProblemGenerator g(1, 8);
  std::vector<double> x(8, 1.0);
  std::vector<double> y(8, 0.0);
  EXPECT_THROW(g.addProduct(2.0, 1, x.data(), 8, y.data(), 8), CheckError);
  EXPECT_THROW(g.addProduct(1.0, 1, x.data(), 7, y.data(), 8), CheckError);
}

TEST(Matgen, LargeOrderEntryIsCheap) {
  // Frontier-scale order: entry access must be O(log N), not O(N).
  ProblemGenerator g(1, 20606976);
  const double v = g.entry(20606975, 20606975);
  EXPECT_GT(v, 20606975.0);  // diagonal shift applied
  const double w = g.entry(0, 20606975);
  EXPECT_GE(w, -0.5);
  EXPECT_LT(w, 0.5);
}

}  // namespace
}  // namespace hplmxp
