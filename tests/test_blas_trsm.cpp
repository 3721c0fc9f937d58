// TRSM kernels vs the reference oracle and vs direct reconstruction
// (op(A) * X == alpha * B), over all side/uplo/diag combinations.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "blas/gemm.h"
#include "blas/isa.h"
#include "blas/reference.h"
#include "blas/trsm.h"

namespace hplmxp {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

/// Builds a well-conditioned triangular matrix: unit-ish diagonal dominance.
std::vector<float> triangularMatrix(index_t n, Uplo uplo, Diag diag,
                                    unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-0.4f, 0.4f);
  std::vector<float> a(static_cast<std::size_t>(n * n), 0.0f);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const bool inTri = uplo == Uplo::kLower ? i > j : i < j;
      if (inTri) {
        a[static_cast<std::size_t>(i + j * n)] = d(rng) / static_cast<float>(n);
      }
    }
    a[static_cast<std::size_t>(j + j * n)] =
        diag == Diag::kUnit ? 1.0f : 2.0f + d(rng);
  }
  return a;
}

struct TrsmCase {
  Side side;
  Uplo uplo;
  Diag diag;
  index_t m, n;
  float alpha;
};

// gtest_discover_tests names each case after gtest's byte dump of it. Dump a
// copy with the padding zeroed, so a case has the same name in every build.
void PrintTo(const TrsmCase& c, std::ostream* os) {
  TrsmCase z;
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

class TrsmTest : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(TrsmTest, MatchesReference) {
  const TrsmCase c = GetParam();
  const index_t tri = c.side == Side::kLeft ? c.m : c.n;
  auto a = triangularMatrix(tri, c.uplo, c.diag, 11);
  std::mt19937 rng(13);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<float> b1(static_cast<std::size_t>(c.m * c.n));
  for (auto& x : b1) {
    x = d(rng);
  }
  auto b2 = b1;
  blas::strsm(c.side, c.uplo, c.diag, c.m, c.n, c.alpha, a.data(), tri,
              b1.data(), c.m);
  blas::ref::trsm<float>(c.side, c.uplo, c.diag, c.m, c.n, c.alpha, a.data(),
                         tri, b2.data(), c.m);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_NEAR(b1[i], b2[i], 1e-4f) << "i=" << i;
  }
}

TEST_P(TrsmTest, SolutionReconstructsRhs) {
  const TrsmCase c = GetParam();
  const index_t tri = c.side == Side::kLeft ? c.m : c.n;
  auto a = triangularMatrix(tri, c.uplo, c.diag, 17);
  // Fill the untouched triangle with garbage: TRSM must ignore it.
  for (index_t j = 0; j < tri; ++j) {
    for (index_t i = 0; i < tri; ++i) {
      const bool inTri =
          c.uplo == Uplo::kLower ? i >= j : i <= j;
      if (!inTri) {
        a[static_cast<std::size_t>(i + j * tri)] = 777.0f;
      }
    }
  }
  std::mt19937 rng(19);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<float> b(static_cast<std::size_t>(c.m * c.n));
  for (auto& v : b) {
    v = d(rng);
  }
  auto x = b;
  blas::strsm(c.side, c.uplo, c.diag, c.m, c.n, c.alpha, a.data(), tri,
              x.data(), c.m);

  // Rebuild a clean dense triangular factor and multiply back.
  std::vector<float> full(static_cast<std::size_t>(tri * tri), 0.0f);
  for (index_t j = 0; j < tri; ++j) {
    for (index_t i = 0; i < tri; ++i) {
      const bool inTri = c.uplo == Uplo::kLower ? i > j : i < j;
      if (inTri) {
        full[static_cast<std::size_t>(i + j * tri)] =
            a[static_cast<std::size_t>(i + j * tri)];
      }
    }
    full[static_cast<std::size_t>(j + j * tri)] =
        c.diag == Diag::kUnit ? 1.0f : a[static_cast<std::size_t>(j + j * tri)];
  }
  std::vector<float> back(static_cast<std::size_t>(c.m * c.n), 0.0f);
  if (c.side == Side::kLeft) {
    blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, c.m, c.n, c.m, 1.0f,
                full.data(), tri, x.data(), c.m, 0.0f, back.data(), c.m);
  } else {
    blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, c.m, c.n, c.n, 1.0f,
                x.data(), c.m, full.data(), tri, 0.0f, back.data(), c.m);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(back[i], c.alpha * b[i], 2e-4f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmTest,
    ::testing::Values(
        // The two variants Algorithm 1 uses:
        TrsmCase{Side::kLeft, Uplo::kLower, Diag::kUnit, 32, 96, 1.0f},
        TrsmCase{Side::kRight, Uplo::kUpper, Diag::kNonUnit, 96, 32, 1.0f},
        // Mirrors and scalars:
        TrsmCase{Side::kLeft, Uplo::kUpper, Diag::kNonUnit, 48, 20, 2.0f},
        TrsmCase{Side::kRight, Uplo::kLower, Diag::kUnit, 20, 48, -1.0f},
        TrsmCase{Side::kLeft, Uplo::kLower, Diag::kNonUnit, 1, 1, 1.0f},
        TrsmCase{Side::kLeft, Uplo::kUpper, Diag::kUnit, 65, 33, 0.5f},
        TrsmCase{Side::kRight, Uplo::kUpper, Diag::kUnit, 33, 65, 1.0f},
        TrsmCase{Side::kRight, Uplo::kLower, Diag::kNonUnit, 40, 37, 1.0f}));

TEST(Trsm, DoublePrecisionVariant) {
  const index_t n = 64;
  std::vector<double> a(static_cast<std::size_t>(n * n), 0.0);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> d(-0.3, 0.3);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      a[static_cast<std::size_t>(i + j * n)] = d(rng);
    }
    a[static_cast<std::size_t>(j + j * n)] = 1.0;
  }
  std::vector<double> b1(static_cast<std::size_t>(n * 8));
  for (auto& v : b1) {
    v = d(rng);
  }
  auto b2 = b1;
  blas::dtrsm(Side::kLeft, Uplo::kLower, Diag::kUnit, n, 8, 1.0, a.data(), n,
              b1.data(), n);
  blas::ref::trsm<double>(Side::kLeft, Uplo::kLower, Diag::kUnit, n, 8, 1.0,
                          a.data(), n, b2.data(), n);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_NEAR(b1[i], b2[i], 1e-12);
  }
}

TEST(Trsm, EmptyDimsAreNoOps) {
  float a = 1.0f;
  float b = 5.0f;
  blas::strsm(Side::kLeft, Uplo::kLower, Diag::kUnit, 0, 0, 1.0f, &a, 1, &b,
              1);
  EXPECT_EQ(b, 5.0f);
}

// ---------------------------------------------------------------------------
// The lane kernel of Algorithm 1's two panel solves, on every kernel path
// (blas/isa.h), against the unblocked stripe substitution, which is
// portable code on every path: memcmp, not tolerances. The extents hit every lane tail and every
// remainder of the register block. The triangle sits in a buffer whose
// leading dimension may exceed its order, as in the LU's panels, with
// garbage everywhere the solve must not read; B has a padded leading
// dimension. Pools of 1 and 4 lanes run each solve as one chunk or as
// several.
// ---------------------------------------------------------------------------

std::string pathName(const ::testing::TestParamInfo<Isa>& p) {
  return isaName(p.param);
}

class TrsmIsaTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isaSupported(GetParam())) {
      GTEST_SKIP() << "this host's CPU lacks AVX-512F+F16C, so the "
                   << isaName(GetParam()) << " kernels cannot run";
    }
  }
};

TEST_P(TrsmIsaTest, LaneKernelMatchesUnblockedBitwise) {
  const Isa isa = GetParam();
  ThreadPool one(1);
  ThreadPool wide(4);
  const index_t extents[] = {1,  7,  8,  9,  15, 16,  17,
                             31, 32, 33, 64, 128, 200};
  for (const auto& [side, uplo] : {std::pair{Side::kLeft, Uplo::kLower},
                                   std::pair{Side::kRight, Uplo::kUpper}}) {
    for (const Diag diag : {Diag::kUnit, Diag::kNonUnit}) {
      for (const index_t m : extents) {
        for (const index_t n : extents) {
          const index_t tri = side == Side::kLeft ? m : n;
          const auto dense = triangularMatrix(
              tri, uplo, diag, static_cast<unsigned>(m * 7 + n));
          for (const index_t lda : {tri, tri + 9}) {
            std::vector<float> a(static_cast<std::size_t>(lda * tri), 777.0f);
            for (index_t j = 0; j < tri; ++j) {
              for (index_t i = 0; i < tri; ++i) {
                const bool read = uplo == Uplo::kLower ? i > j : i < j;
                if (read || (i == j && diag == Diag::kNonUnit)) {
                  a[static_cast<std::size_t>(i + j * lda)] =
                      dense[static_cast<std::size_t>(i + j * tri)];
                }
              }
            }
            const index_t ldb = m + 3;
            std::mt19937 rng(static_cast<unsigned>(m * 31 + n + lda));
            std::uniform_real_distribution<float> d(-1.0f, 1.0f);
            std::vector<float> want(static_cast<std::size_t>(ldb * n));
            for (auto& v : want) {
              v = d(rng);
            }
            const auto rhs = want;
            const float alpha = diag == Diag::kUnit ? 1.0f : 0.75f;
            blas::detail::strsmUnblocked(side, uplo, diag, m, n, alpha,
                                         a.data(), lda, want.data(), ldb,
                                         nullptr);
            for (ThreadPool* pool : {&one, &wide}) {
              auto got = rhs;
              blas::detail::strsm(isa, side, uplo, diag, m, n, alpha,
                                  a.data(), lda, got.data(), ldb, pool);
              EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                       got.size() * sizeof(float)))
                  << "lanes side=" << static_cast<int>(side)
                  << " diag=" << static_cast<int>(diag) << " m=" << m
                  << " n=" << n << " lda=" << lda
                  << " pool=" << pool->laneCount();
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, TrsmIsaTest,
                         ::testing::Values(Isa::kScalar,
                                           Isa::kAvx512),
                         pathName);

}  // namespace
}  // namespace hplmxp
