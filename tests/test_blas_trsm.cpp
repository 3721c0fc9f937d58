// TRSM kernels vs the reference oracle and vs direct reconstruction
// (op(A) * X == alpha * B), over all side/uplo/diag combinations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "blas/cast.h"
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

// ---------------------------------------------------------------------------
// The binary16 copy the panel solves store (blas::HalfPanel), against CAST
// and TRANS_CAST of the FP32 result, on every kernel path: memcmp, not
// tolerances. The FP32 result must not change either. The extents leave
// tail tiles (solve counts that are not a multiple of 32) and triangle
// orders that are not a multiple of 16; B has a padded leading dimension.
// The copy starts on a cache line with a leading dimension of whole lines
// (the streamed stores) or one element past one, and a guard band after
// it must stay untouched. The second pass solves against the identity, so
// B passes through: it holds entries that narrow to +-0, to binary16
// subnormals and to +-Inf, and +-Inf and NaNs in the last column the
// solve writes, which no other value reads.
// ---------------------------------------------------------------------------

TEST_P(TrsmIsaTest, FusedHalfPanelMatchesCastBitwise) {
  const Isa isa = GetParam();
  ThreadPool one(1);
  ThreadPool three(3);
  const float inf = std::numeric_limits<float>::infinity();
  const float narrowing[] = {0.0f,     -0.0f,    1e-9f,    -1e-9f,
                             3e-6f,    -6e-8f,   6.1e-5f,  1e5f,
                             -65520.0f, 65504.0f, 0.333f, -2.5f};
  const float lastOnly[] = {inf, -inf, std::numeric_limits<float>::quiet_NaN(),
                            std::bit_cast<float>(0xFF812345u)};
  const half16 sentinel = half16::fromBits(0x5A5A);
  const index_t guard = 64;
  for (const auto& [side, uplo, diag] :
       {std::tuple{Side::kLeft, Uplo::kLower, Diag::kUnit},
        std::tuple{Side::kRight, Uplo::kUpper, Diag::kNonUnit}}) {
    const bool left = side == Side::kLeft;
    for (const bool identity : {false, true}) {
      for (const index_t order : {1, 15, 17, 33, 128}) {
        for (const index_t solves : {1, 31, 32, 33, 70, 96}) {
          const index_t m = left ? order : solves;
          const index_t n = left ? solves : order;
          std::vector<float> a(static_cast<std::size_t>(order * order), 0.0f);
          if (identity) {
            for (index_t i = 0; i < order; ++i) {
              a[static_cast<std::size_t>(i + i * order)] = 1.0f;
            }
          } else {
            a = triangularMatrix(order, uplo, diag,
                                 static_cast<unsigned>(order * 13 + solves));
          }
          const index_t ldb = m + 3;
          std::mt19937 rng(static_cast<unsigned>(order * 31 + solves));
          std::uniform_real_distribution<float> d(-1.0f, 1.0f);
          std::vector<float> rhs(static_cast<std::size_t>(ldb * n));
          for (auto& v : rhs) {
            v = d(rng);
          }
          if (identity) {
            for (std::size_t i = 0; i < rhs.size(); i += 3) {
              rhs[i] = narrowing[(i / 3) % std::size(narrowing)];
            }
            // The last column of the solve: row m-1 of B (Left) or column
            // n-1 (Right).
            for (index_t r = 0; r < solves; r += 2) {
              const index_t at = left ? (m - 1) + r * ldb : r + (n - 1) * ldb;
              rhs[static_cast<std::size_t>(at)] =
                  lastOnly[static_cast<std::size_t>(r / 2) %
                           std::size(lastOnly)];
            }
          }
          auto want = rhs;
          blas::detail::strsm(isa, side, uplo, diag, m, n, 1.0f, a.data(),
                              order, want.data(), ldb, &one);
          for (const index_t ld : {solves, roundUp(solves, 32) + 32}) {
            const auto count = static_cast<std::size_t>(ld * order + guard);
            std::vector<half16> refStore(count + 64, sentinel);
            std::vector<half16> gotStore(count + 64, sentinel);
            for (const index_t offset : {0, 1}) {
              // 64-byte aligned plus `offset` elements.
              const auto align = [&](std::vector<half16>& v) {
                const auto addr = reinterpret_cast<std::uintptr_t>(v.data());
                return v.data() + (64 - addr % 64) % 64 / 2 + offset;
              };
              half16* ref = align(refStore);
              std::fill(refStore.begin(), refStore.end(), sentinel);
              if (left) {
                blas::transCastToHalf(m, n, want.data(), ldb, ref, ld);
              } else {
                blas::castToHalf(m, n, want.data(), ldb, ref, ld);
              }
              for (ThreadPool* pool : {&one, &three}) {
                half16* got = align(gotStore);
                std::fill(gotStore.begin(), gotStore.end(), sentinel);
                auto b = rhs;
                blas::detail::strsm(isa, side, uplo, diag, m, n, 1.0f,
                                    a.data(), order, b.data(), ldb, pool,
                                    {got, ld, /*transposed=*/left});
                EXPECT_EQ(0, std::memcmp(b.data(), want.data(),
                                         b.size() * sizeof(float)))
                    << "fp32 side=" << static_cast<int>(side)
                    << " identity=" << identity << " order=" << order
                    << " solves=" << solves << " ld=" << ld
                    << " offset=" << offset
                    << " pool=" << pool->laneCount();
                EXPECT_EQ(0, std::memcmp(got, ref, count * sizeof(half16)))
                    << "fp16 side=" << static_cast<int>(side)
                    << " identity=" << identity << " order=" << order
                    << " solves=" << solves << " ld=" << ld
                    << " offset=" << offset
                    << " pool=" << pool->laneCount();
              }
            }
          }
        }
      }
    }
  }
}

TEST(Trsm, HalfPanelNeedsTheLaneKernelsLayout) {
  std::vector<float> a(16, 1.0f);
  std::vector<float> b(16, 1.0f);
  std::vector<half16> h(16);
  // (Left, Lower) holds X^T and (Right, Upper) holds X; the other two
  // variants run no lane kernel.
  EXPECT_THROW(blas::strsm(Side::kLeft, Uplo::kLower, Diag::kUnit, 4, 4, 1.0f,
                           a.data(), 4, b.data(), 4, nullptr,
                           {h.data(), 4, /*transposed=*/false}),
               CheckError);
  EXPECT_THROW(blas::strsm(Side::kRight, Uplo::kUpper, Diag::kUnit, 4, 4,
                           1.0f, a.data(), 4, b.data(), 4, nullptr,
                           {h.data(), 4, /*transposed=*/true}),
               CheckError);
  EXPECT_THROW(blas::strsm(Side::kLeft, Uplo::kUpper, Diag::kUnit, 4, 4, 1.0f,
                           a.data(), 4, b.data(), 4, nullptr,
                           {h.data(), 4, /*transposed=*/true}),
               CheckError);
  EXPECT_THROW(blas::strsm(Side::kRight, Uplo::kUpper, Diag::kUnit, 4, 4,
                           1.0f, a.data(), 4, b.data(), 4, nullptr,
                           {h.data(), 3, /*transposed=*/false}),
               CheckError);
}

INSTANTIATE_TEST_SUITE_P(Paths, TrsmIsaTest,
                         ::testing::Values(Isa::kScalar,
                                           Isa::kAvx512),
                         pathName);

}  // namespace
}  // namespace hplmxp
