// Tests of the HPL-AI problem generator: determinism, tile/element
// agreement, diagonal dominance (the no-pivoting justification), norms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "fp16/half.h"
#include "gen/matgen.h"
#include "lowp/bfloat16.h"
#include "lowp/fp8.h"

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

TEST(Matgen, DiagonalSweepMatchesEntries) {
  for (const double shift : {-1.0, 0.0, 3.0}) {
    const index_t n = 300;
    const ProblemGenerator g(23, n, shift);
    std::vector<double> diag(static_cast<std::size_t>(n));
    g.fillDiagonal(diag.data());
    for (index_t i = 0; i < n; ++i) {
      const double want = g.entry(i, i);
      EXPECT_EQ(0, std::memcmp(&diag[static_cast<std::size_t>(i)], &want,
                               sizeof(double)))
          << "i=" << i << " shift=" << shift;
    }
  }
  // At Frontier scale the (N+1)-step map must still land on the states
  // the per-entry jump reaches.
  const index_t n = 3 * (index_t{1} << 20) + 1;
  const ProblemGenerator g(1, n);
  std::vector<double> diag(static_cast<std::size_t>(n));
  g.fillDiagonal(diag.data());
  for (const index_t i : {index_t{0}, index_t{1}, n / 2, n - 2, n - 1}) {
    EXPECT_EQ(diag[static_cast<std::size_t>(i)], g.entry(i, i)) << "i=" << i;
  }
}

TEST(Matgen, NarrowTilesTallerThanOneChunk) {
  // Storage-ladder fills narrow from FP64 chunks; a tile taller than one
  // chunk splits its rows too.
  const index_t n = 2200;
  const index_t rows = 2100;
  const index_t cols = 3;
  const ProblemGenerator g(31, n);
  std::vector<half16> got(static_cast<std::size_t>(rows * cols));
  std::vector<double> wide(static_cast<std::size_t>(rows * cols));
  g.fillTile<half16>(50, 60, rows, cols, got.data(), rows);
  g.fillTile<double>(50, 60, rows, cols, wide.data(), rows);
  for (std::size_t e = 0; e < got.size(); ++e) {
    ASSERT_EQ(got[e].bits(), static_cast<half16>(wide[e]).bits())
        << "entry " << e;
  }
}

// The tile walker on every path (util/isa.h). Each path must reproduce
// the scalar path bit for bit, and the scalar path must reproduce the
// elementwise definition entry(i, j).

std::string pathName(const ::testing::TestParamInfo<Isa>& p) {
  return isaName(p.param);
}

class MatgenIsaTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isaSupported(GetParam())) {
      GTEST_SKIP() << "this host lacks AVX-512F+DQ+F16C, so the "
                   << isaName(GetParam()) << " walker cannot run";
    }
  }
};

constexpr index_t kWalkOrder = 1000;
constexpr index_t kWalkRow0 = 301;

/// Column-0 diagonal rows (j0 - i0) that put the diagonal on each of the
/// 32 lanes of the first vector step, in a later step, in the scalar tail,
/// entering at a later column, and nowhere.
std::vector<index_t> diagonalOffsets(index_t rows, index_t cols) {
  std::vector<index_t> offsets;
  for (index_t d = 0; d < 32; ++d) {
    offsets.push_back(d);
  }
  offsets.insert(offsets.end(), {37, rows - 1, -2, -cols - 1});
  return offsets;
}

template <typename T>
void expectFillMatchesScalar(Isa isa) {
  const ProblemGenerator g(19, kWalkOrder);
  for (const index_t rows : {1, 31, 32, 33, 63, 128, 129, 257}) {
    for (const index_t cols : {1, 3, 130}) {
      for (const index_t d : diagonalOffsets(rows, cols)) {
        const index_t i0 = kWalkRow0;
        const index_t j0 = i0 + d;
        const index_t ld = rows + 3;  // padding must stay untouched
        std::vector<T> got(static_cast<std::size_t>(ld * cols), T(-7.0f));
        std::vector<T> want = got;
        g.fillTile<T>(i0, j0, rows, cols, got.data(), ld, isa);
        g.fillTile<T>(i0, j0, rows, cols, want.data(), ld, Isa::kScalar);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 sizeof(T) * got.size()))
            << "rows=" << rows << " cols=" << cols << " i0=" << i0
            << " j0=" << j0;
      }
    }
  }
}

TEST_P(MatgenIsaTest, FillTileMatchesScalarPath) {
  expectFillMatchesScalar<double>(GetParam());
  expectFillMatchesScalar<float>(GetParam());
  expectFillMatchesScalar<half16>(GetParam());
  expectFillMatchesScalar<lowp::bfloat16>(GetParam());
  expectFillMatchesScalar<lowp::fp8e4m3>(GetParam());
  expectFillMatchesScalar<lowp::fp8e5m2>(GetParam());
}

TEST_P(MatgenIsaTest, FillTileMatchesEntries) {
  const ProblemGenerator g(19, kWalkOrder, 3.0);
  for (const index_t rows : {1, 33, 257}) {
    for (const index_t cols : {1, 3, 130}) {
      for (const index_t d : {index_t{0}, index_t{17}, rows - 1}) {
        const index_t i0 = kWalkRow0;
        const index_t j0 = i0 + d;
        std::vector<double> tile(static_cast<std::size_t>(rows * cols));
        g.fillTile<double>(i0, j0, rows, cols, tile.data(), rows, GetParam());
        for (index_t c = 0; c < cols; ++c) {
          for (index_t r = 0; r < rows; ++r) {
            ASSERT_EQ(tile[static_cast<std::size_t>(r + c * rows)],
                      g.entry(i0 + r, j0 + c))
                << "rows=" << rows << " cols=" << cols << " d=" << d
                << " r=" << r << " c=" << c;
          }
        }
      }
    }
  }
}

TEST_P(MatgenIsaTest, AccumulateTileMatchesScalarPath) {
  const ProblemGenerator g(29, kWalkOrder);
  const std::pair<index_t, index_t> shapes[] = {
      {1, 130}, {33, 3}, {129, 130}, {257, 40}};
  for (const auto& [rows, cols] : shapes) {
    for (const index_t d : {index_t{0}, index_t{5}, index_t{31},
                            index_t{32}, index_t{-7}, rows - 1}) {
      // k = 9 walks the tile twice: the sink serves 8 columns per walk.
      for (const index_t k : {1, 2, 3, 4, 5, 9}) {
        for (const double sign : {-1.0, 1.0}) {
          const index_t i0 = kWalkRow0;
          const index_t j0 = i0 + d;
          const index_t ldx = cols + 2;
          const index_t ldy = rows + 3;
          std::vector<double> x(static_cast<std::size_t>(ldx * k));
          std::vector<double> got(static_cast<std::size_t>(ldy * k));
          ProblemGenerator(42, ldx * k).fillRhs<double>(0, ldx * k,
                                                        x.data());
          ProblemGenerator(43, ldy * k).fillRhs<double>(0, ldy * k,
                                                        got.data());
          std::vector<double> want = got;
          g.accumulateTile(i0, j0, rows, cols, sign, k, x.data(), ldx,
                           got.data(), ldy, GetParam());
          g.accumulateTile(i0, j0, rows, cols, sign, k, x.data(), ldx,
                           want.data(), ldy, Isa::kScalar);
          ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                   sizeof(double) * got.size()))
              << "rows=" << rows << " cols=" << cols << " d=" << d
              << " k=" << k << " sign=" << sign;
        }
      }
    }
  }
}

TEST_P(MatgenIsaTest, AddProductMatchesScalarPathAndRowByRow) {
  for (const index_t n : {1, 33, 257}) {
    const ProblemGenerator g(41, n);
    // k = 9 walks A twice: the sink serves 8 columns per walk.
    for (const index_t k : {1, 2, 3, 4, 5, 9}) {
      for (const double sign : {-1.0, 1.0}) {
        const index_t ldx = n + 1;
        const index_t ldy = n + 2;
        std::vector<double> x(static_cast<std::size_t>(ldx * k));
        std::vector<double> got(static_cast<std::size_t>(ldy * k));
        ProblemGenerator(42, ldx * k).fillRhs<double>(0, ldx * k, x.data());
        ProblemGenerator(43, ldy * k).fillRhs<double>(0, ldy * k,
                                                      got.data());
        std::vector<double> want = got;
        std::vector<double> rowWise = got;
        g.addProduct(sign, k, x.data(), ldx, got.data(), ldy, GetParam());
        g.addProduct(sign, k, x.data(), ldx, want.data(), ldy,
                     Isa::kScalar);
        rowByRowProduct(g, sign, k, x.data(), ldx, rowWise.data(), ldy);
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 sizeof(double) * got.size()))
            << "n=" << n << " k=" << k << " sign=" << sign;
        EXPECT_EQ(0, std::memcmp(want.data(), rowWise.data(),
                                 sizeof(double) * got.size()))
            << "n=" << n << " k=" << k << " sign=" << sign;
      }
    }
  }
}

TEST_P(MatgenIsaTest, AbsRowSumsMatchScalarPath) {
  const ProblemGenerator g(37, kWalkOrder);
  for (const index_t rows : {1, 31, 33, 129, 257}) {
    for (const index_t cols : {1, 3, 130}) {
      for (const index_t d : {index_t{0}, index_t{9}, rows - 1, -cols}) {
        const index_t i0 = kWalkRow0;
        const index_t j0 = i0 + d;
        std::vector<double> got(static_cast<std::size_t>(rows) + 2, 0.25);
        std::vector<double> want = got;
        g.accumulateAbsRowSums(i0, j0, rows, cols, got.data(), GetParam());
        g.accumulateAbsRowSums(i0, j0, rows, cols, want.data(),
                               Isa::kScalar);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 sizeof(double) * got.size()))
            << "rows=" << rows << " cols=" << cols << " d=" << d;
      }
    }
  }
}

TEST_P(MatgenIsaTest, FrontierScaleTilesMatchEntries) {
  // At N = 3*2^20 + 1 a column is ~3M LCG steps long; the walker's
  // N-step column map must reach the states that a fresh per-column
  // Lcg64::jumped reaches, on tiles far from the origin.
  const index_t n = 3 * (index_t{1} << 20) + 1;
  const ProblemGenerator g(1, n);
  struct Tile {
    index_t i0, j0, rows, cols;
  };
  const Tile tiles[] = {{n - 40, n - 5, 40, 5},
                        {0, n - 4, 37, 4},
                        {n / 2 - 20, n / 2 - 3, 64, 6},
                        {n - 33, 0, 33, 3}};
  for (const Tile& t : tiles) {
    std::vector<double> tile(static_cast<std::size_t>(t.rows * t.cols));
    g.fillTile<double>(t.i0, t.j0, t.rows, t.cols, tile.data(), t.rows,
                       GetParam());
    std::vector<double> x(static_cast<std::size_t>(t.cols));
    ProblemGenerator(5, t.cols).fillRhs<double>(0, t.cols, x.data());
    std::vector<double> y(static_cast<std::size_t>(t.rows), 0.0);
    g.accumulateTile(t.i0, t.j0, t.rows, t.cols, 1.0, 1, x.data(), t.cols,
                     y.data(), t.rows, GetParam());
    for (index_t r = 0; r < t.rows; ++r) {
      double acc = 0.0;
      for (index_t c = 0; c < t.cols; ++c) {
        const double a = g.entry(t.i0 + r, t.j0 + c);
        ASSERT_EQ(tile[static_cast<std::size_t>(r + c * t.rows)], a)
            << "i=" << t.i0 + r << " j=" << t.j0 + c;
        acc += a * x[static_cast<std::size_t>(c)];
      }
      ASSERT_EQ(y[static_cast<std::size_t>(r)], acc) << "i=" << t.i0 + r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, MatgenIsaTest,
                         ::testing::Values(Isa::kScalar, Isa::kAvx512),
                         pathName);

}  // namespace
}  // namespace hplmxp
