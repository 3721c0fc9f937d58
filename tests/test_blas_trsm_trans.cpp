// Transposed TRSM variants (op(A) = A^T), validated by reconstruction:
// op(A) * X == alpha * B (left) and X * op(A) == alpha * B (right), over
// every side/uplo/diag combination.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <random>
#include <vector>

#include "blas/gemm.h"
#include "blas/trsm.h"

namespace hplmxp {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

std::vector<double> triangular(index_t n, Uplo uplo, Diag diag,
                               unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-0.4, 0.4);
  std::vector<double> a(static_cast<std::size_t>(n * n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const bool inTri = uplo == Uplo::kLower ? i > j : i < j;
      if (inTri) {
        a[static_cast<std::size_t>(i + j * n)] =
            d(rng) / static_cast<double>(n);
      }
    }
    a[static_cast<std::size_t>(j + j * n)] =
        diag == Diag::kUnit ? 1.0 : 2.0 + d(rng);
  }
  return a;
}

/// Dense explicit op(A) with the diagonal resolved (unit -> 1).
std::vector<double> explicitOp(const std::vector<double>& a, index_t n,
                               Uplo uplo, Diag diag, Trans trans) {
  std::vector<double> full(static_cast<std::size_t>(n * n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const bool inTri = uplo == Uplo::kLower ? i > j : i < j;
      double v = 0.0;
      if (inTri) {
        v = a[static_cast<std::size_t>(i + j * n)];
      } else if (i == j) {
        v = diag == Diag::kUnit ? 1.0
                                : a[static_cast<std::size_t>(i + i * n)];
      }
      if (trans == Trans::kNoTrans) {
        full[static_cast<std::size_t>(i + j * n)] = v;
      } else {
        full[static_cast<std::size_t>(j + i * n)] = v;
      }
    }
  }
  return full;
}

struct TransCase {
  Side side;
  Uplo uplo;
  Diag diag;
  index_t m, n;
  double alpha;
};

// gtest_discover_tests names each case after gtest's byte dump of it. Dump a
// copy with the padding zeroed, so a case has the same name in every build.
void PrintTo(const TransCase& c, std::ostream* os) {
  TransCase z;
  std::memset(&z, 0, sizeof z);
  z.side = c.side;
  z.uplo = c.uplo;
  z.diag = c.diag;
  z.m = c.m;
  z.n = c.n;
  z.alpha = c.alpha;
  ::testing::internal::PrintBytesInObjectTo(
      reinterpret_cast<const unsigned char*>(&z), sizeof z, os);
}

class TrsmTransTest : public ::testing::TestWithParam<TransCase> {};

TEST_P(TrsmTransTest, ReconstructsRhs) {
  const TransCase c = GetParam();
  const index_t tri = c.side == Side::kLeft ? c.m : c.n;
  const auto a = triangular(tri, c.uplo, c.diag, 23);
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> b(static_cast<std::size_t>(c.m * c.n));
  for (auto& v : b) {
    v = d(rng);
  }
  auto x = b;
  blas::dtrsm(c.side, c.uplo, Trans::kTrans, c.diag, c.m, c.n, c.alpha,
              a.data(), tri, x.data(), c.m);

  const auto opA = explicitOp(a, tri, c.uplo, c.diag, Trans::kTrans);
  std::vector<double> back(static_cast<std::size_t>(c.m * c.n), 0.0);
  if (c.side == Side::kLeft) {
    blas::dgemm(Trans::kNoTrans, Trans::kNoTrans, c.m, c.n, c.m, 1.0,
                opA.data(), tri, x.data(), c.m, 0.0, back.data(), c.m);
  } else {
    blas::dgemm(Trans::kNoTrans, Trans::kNoTrans, c.m, c.n, c.n, 1.0,
                x.data(), c.m, opA.data(), tri, 0.0, back.data(), c.m);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(back[i], c.alpha * b[i], 1e-10) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmTransTest,
    ::testing::Values(
        TransCase{Side::kLeft, Uplo::kLower, Diag::kUnit, 48, 20, 1.0},
        TransCase{Side::kLeft, Uplo::kLower, Diag::kNonUnit, 33, 17, 2.0},
        TransCase{Side::kLeft, Uplo::kUpper, Diag::kUnit, 40, 40, -1.0},
        TransCase{Side::kLeft, Uplo::kUpper, Diag::kNonUnit, 65, 9, 1.0},
        TransCase{Side::kRight, Uplo::kLower, Diag::kUnit, 20, 48, 1.0},
        TransCase{Side::kRight, Uplo::kLower, Diag::kNonUnit, 17, 33, 0.5},
        TransCase{Side::kRight, Uplo::kUpper, Diag::kUnit, 40, 40, 1.0},
        TransCase{Side::kRight, Uplo::kUpper, Diag::kNonUnit, 9, 65, -2.0}));

TEST(TrsmTrans, TransOfTransposeEqualsNoTransOfMirror) {
  // Solving with (A lower)^T must equal solving with the explicitly
  // transposed matrix as an upper triangle.
  const index_t n = 32;
  const auto a = triangular(n, Uplo::kLower, Diag::kNonUnit, 31);
  std::vector<double> at(static_cast<std::size_t>(n * n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      at[static_cast<std::size_t>(j + i * n)] =
          a[static_cast<std::size_t>(i + j * n)];
    }
  }
  std::vector<double> b1(static_cast<std::size_t>(n * 4), 1.0);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    b1[i] = 0.01 * static_cast<double>(i % 37);
  }
  auto b2 = b1;
  blas::dtrsm(Side::kLeft, Uplo::kLower, Trans::kTrans, Diag::kNonUnit, n, 4,
              1.0, a.data(), n, b1.data(), n);
  blas::dtrsm(Side::kLeft, Uplo::kUpper, Trans::kNoTrans, Diag::kNonUnit, n,
              4, 1.0, at.data(), n, b2.data(), n);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_NEAR(b1[i], b2[i], 1e-12);
  }
}

TEST(TrsmTrans, FloatVariantAgreesWithDouble) {
  const index_t n = 24;
  const auto ad = triangular(n, Uplo::kUpper, Diag::kNonUnit, 37);
  std::vector<float> af(ad.size());
  for (std::size_t i = 0; i < ad.size(); ++i) {
    af[i] = static_cast<float>(ad[i]);
  }
  std::vector<double> bd(static_cast<std::size_t>(n * 3), 0.5);
  std::vector<float> bf(bd.size(), 0.5f);
  blas::dtrsm(Side::kLeft, Uplo::kUpper, Trans::kTrans, Diag::kNonUnit, n, 3,
              1.0, ad.data(), n, bd.data(), n);
  blas::strsm(Side::kLeft, Uplo::kUpper, Trans::kTrans, Diag::kNonUnit, n, 3,
              1.0f, af.data(), n, bf.data(), n);
  for (std::size_t i = 0; i < bd.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(bf[i]), bd[i], 1e-5);
  }
}

}  // namespace
}  // namespace hplmxp
