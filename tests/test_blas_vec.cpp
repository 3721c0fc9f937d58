// Vector kernels (GEMV, TRSV) and the CAST / TRANS_CAST conversion phases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "blas/cast.h"
#include "blas/gemv.h"
#include "blas/isa.h"
#include "blas/trsv.h"

namespace hplmxp {
namespace {

using blas::Diag;
using blas::Uplo;

class TrsvTest : public ::testing::TestWithParam<std::tuple<Uplo, Diag>> {};

TEST_P(TrsvTest, SolveThenMultiplyRoundTrips) {
  const auto [uplo, diag] = GetParam();
  const index_t n = 120;
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> d(-0.5, 0.5);
  std::vector<double> a(static_cast<std::size_t>(n * n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const bool inTri = uplo == Uplo::kLower ? i > j : i < j;
      if (inTri) {
        a[static_cast<std::size_t>(i + j * n)] = d(rng) / n;
      }
    }
    a[static_cast<std::size_t>(j + j * n)] =
        diag == Diag::kUnit ? 123.0 /* must be ignored */ : 3.0 + d(rng);
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = d(rng);
  auto x = b;
  blas::dtrsv(uplo, diag, n, a.data(), n, x.data());
  // Multiply back: op(A) x == b.
  for (index_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (index_t j = 0; j < n; ++j) {
      const bool inTri = uplo == Uplo::kLower ? i > j : i < j;
      double aij = 0.0;
      if (inTri) {
        aij = a[static_cast<std::size_t>(i + j * n)];
      } else if (i == j) {
        aij = diag == Diag::kUnit ? 1.0
                                  : a[static_cast<std::size_t>(i + i * n)];
      }
      acc += aij * x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(acc, b[static_cast<std::size_t>(i)], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, TrsvTest,
    ::testing::Combine(::testing::Values(Uplo::kLower, Uplo::kUpper),
                       ::testing::Values(Diag::kUnit, Diag::kNonUnit)));

TEST(TrsvMixed, Fp32FactorFp64Vector) {
  // strsvMixed must match dtrsv applied to the widened factor.
  const index_t n = 80;
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> d(-0.5f, 0.5f);
  std::vector<float> a(static_cast<std::size_t>(n * n), 0.0f);
  std::vector<double> aWide(static_cast<std::size_t>(n * n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      a[static_cast<std::size_t>(i + j * n)] = d(rng) / n;
    }
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    aWide[i] = static_cast<double>(a[i]);
  }
  std::vector<double> x1(static_cast<std::size_t>(n)), x2;
  std::uniform_real_distribution<double> dd(-1.0, 1.0);
  for (auto& v : x1) v = dd(rng);
  x2 = x1;
  blas::strsvMixed(Uplo::kLower, Diag::kUnit, n, a.data(), n, x1.data());
  blas::dtrsv(Uplo::kLower, Diag::kUnit, n, aWide.data(), n, x2.data());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(x1[static_cast<std::size_t>(i)],
                     x2[static_cast<std::size_t>(i)]);
  }
}

// ---------------------------------------------------------------------------
// The mixed FP32-factor/FP64-vector kernels on every path: strsvMixed and
// gemvMixed must give the scalar path's bits. Extents straddle the 8-double
// vector and its tails; the factor's leading dimension exceeds its rows,
// and every entry the kernel must not read holds a NaN sentinel; the FP64
// vectors start 8 bytes past a 16-byte boundary, so never 64-byte aligned,
// between guard entries that must come back untouched.
// ---------------------------------------------------------------------------

const index_t kMixedExtents[] = {0,  1,  7,  8,  9,   15, 16,
                                 17, 63, 64, 65, 128, 129};

/// The operand values of one run: finite specials only, then with
/// infinities, then with one NaN in the matrix.
enum class Values { kFinite, kInfinite, kNaN };

constexpr float kSentinel = std::numeric_limits<float>::quiet_NaN();
// Guard entries on each side of a vector: an odd count, so that the vector
// starts 24 bytes past the allocation's 16-byte alignment.
constexpr index_t kGuard = 3;

/// One draw from the finite specials: signed zeros, FP32 subnormals (exact
/// once widened) and normal values of both signs.
float finiteSpecial(std::mt19937& rng) {
  constexpr float kSub = std::numeric_limits<float>::denorm_min();
  switch (rng() % 8) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return kSub * static_cast<float>(1 + rng() % 1000);
    case 3: return -std::numeric_limits<float>::min() / 3.0f;
    default:
      return std::uniform_real_distribution<float>(-1.0f, 1.0f)(rng);
  }
}

/// An FP64 vector of `len` entries, at data() + kGuard, between kGuard
/// guards on each side.
std::vector<double> guardedVector(index_t len, std::mt19937& rng) {
  std::vector<double> v(static_cast<std::size_t>(len + 2 * kGuard));
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (auto& e : v) {
    e = rng() % 9 == 0 ? -0.0 : d(rng);
  }
  return v;
}

/// memcmp over whole buffers; with nanByNessOnly, two NaNs match whatever
/// their bits, because the scalar path's mulsd may take two NaN operands
/// in either order and keep either payload.
bool sameBits(const std::vector<double>& got, const std::vector<double>& want,
              bool nanByNessOnly) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (nanByNessOnly && std::isnan(got[i]) && std::isnan(want[i])) {
      continue;
    }
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::string pathName(const ::testing::TestParamInfo<Isa>& p) {
  return isaName(p.param);
}

class MixedSolveIsa : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isaSupported(GetParam())) {
      GTEST_SKIP() << "this host's CPU lacks AVX-512F+DQ+F16C, so the "
                   << isaName(GetParam()) << " kernels cannot run";
    }
  }
};

TEST_P(MixedSolveIsa, StrsvMixedMatchesScalarPathBitwise) {
  const Isa isa = GetParam();
  for (const Values values : {Values::kFinite, Values::kInfinite,
                              Values::kNaN}) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Diag diag : {Diag::kUnit, Diag::kNonUnit}) {
        for (const index_t n : kMixedExtents) {
          std::mt19937 rng(static_cast<unsigned>(
              n * 16 + static_cast<int>(values) * 4 +
              static_cast<int>(uplo) * 2 + static_cast<int>(diag)));
          const index_t lda = n + 5;
          std::vector<float> a(static_cast<std::size_t>(lda * n), kSentinel);
          for (index_t j = 0; j < n; ++j) {
            for (index_t i = 0; i < n; ++i) {
              const bool read = uplo == Uplo::kLower ? i > j : i < j;
              float& e = a[static_cast<std::size_t>(i + j * lda)];
              if (read) {
                e = finiteSpecial(rng) / static_cast<float>(n);
                if (values == Values::kInfinite && rng() % 37 == 0) {
                  e = rng() % 2 ? std::numeric_limits<float>::infinity()
                                : -std::numeric_limits<float>::infinity();
                }
              } else if (i == j && diag == Diag::kNonUnit) {
                e = (rng() % 2 ? 1.0f : -1.0f) *
                    (1.5f + std::abs(finiteSpecial(rng)));
              }
            }
          }
          if (values == Values::kNaN && n > 1) {
            // One NaN among the entries the solve reads, in its first
            // column, so that it spreads through every later one.
            const index_t j = uplo == Uplo::kLower ? 0 : n - 1;
            const index_t i = uplo == Uplo::kLower ? 1 : n - 2;
            a[static_cast<std::size_t>(i + j * lda)] =
                std::numeric_limits<float>::quiet_NaN();
          }
          const std::vector<double> rhs = guardedVector(n, rng);
          std::vector<double> want = rhs;
          std::vector<double> got = rhs;
          const std::size_t at = kGuard;
          blas::detail::strsvMixed(Isa::kScalar, uplo, diag, n, a.data(), lda,
                                   want.data() + at);
          blas::detail::strsvMixed(isa, uplo, diag, n, a.data(), lda,
                                   got.data() + at);
          EXPECT_TRUE(sameBits(got, want, values == Values::kNaN))
              << "strsvMixed values=" << static_cast<int>(values)
              << " uplo=" << static_cast<int>(uplo)
              << " diag=" << static_cast<int>(diag) << " n=" << n;
        }
      }
    }
  }
}

TEST_P(MixedSolveIsa, GemvMixedMatchesScalarPathBitwise) {
  const Isa isa = GetParam();
  for (const Values values : {Values::kFinite, Values::kInfinite,
                              Values::kNaN}) {
    for (const index_t m : kMixedExtents) {
      for (const index_t n : kMixedExtents) {
        std::mt19937 rng(static_cast<unsigned>(
            m * 1000 + n * 4 + static_cast<int>(values)));
        const index_t lda = m + 3;
        std::vector<float> a(static_cast<std::size_t>(lda * n), kSentinel);
        for (index_t j = 0; j < n; ++j) {
          for (index_t i = 0; i < m; ++i) {
            a[static_cast<std::size_t>(i + j * lda)] = finiteSpecial(rng);
          }
        }
        std::vector<double> x = guardedVector(n, rng);
        const std::size_t at = kGuard;
        if (values == Values::kInfinite && m > 0 && n > 0) {
          a[static_cast<std::size_t>(rng() % m + (rng() % n) * lda)] =
              -std::numeric_limits<float>::infinity();
          x[at + rng() % n] = std::numeric_limits<double>::infinity();
        }
        if (values == Values::kNaN && m > 0 && n > 0) {
          // A NaN in A only: no product has two NaN operands.
          a[static_cast<std::size_t>(rng() % m + (rng() % n) * lda)] =
              std::numeric_limits<float>::quiet_NaN();
        }
        const std::vector<double> acc = guardedVector(m, rng);
        std::vector<double> want = acc;
        std::vector<double> got = acc;
        blas::detail::gemvMixed(Isa::kScalar, m, n, a.data(), lda,
                                x.data() + at, want.data() + at);
        blas::detail::gemvMixed(isa, m, n, a.data(), lda, x.data() + at,
                                got.data() + at);
        EXPECT_TRUE(sameBits(got, want, false))
            << "gemvMixed values=" << static_cast<int>(values)
            << " m=" << m << " n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, MixedSolveIsa,
                         ::testing::Values(Isa::kScalar, Isa::kAvx512),
                         pathName);

TEST(Cast, CastToHalfRoundsEveryElement) {
  const index_t m = 70, n = 33;
  std::mt19937 rng(6);
  std::uniform_real_distribution<float> d(-2.0f, 2.0f);
  std::vector<float> src(static_cast<std::size_t>(m * n));
  for (auto& v : src) v = d(rng);
  std::vector<half16> dst(src.size());
  blas::castToHalf(m, n, src.data(), m, dst.data(), m);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst[i].bits(), half16(src[i]).bits());
  }
}

TEST(Cast, TransCastTransposes) {
  const index_t m = 41, n = 67;
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<float> src(static_cast<std::size_t>(m * n));
  for (auto& v : src) v = d(rng);
  std::vector<half16> dst(static_cast<std::size_t>(n * m));
  blas::transCastToHalf(m, n, src.data(), m, dst.data(), n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      EXPECT_EQ(dst[static_cast<std::size_t>(j + i * n)].bits(),
                half16(src[static_cast<std::size_t>(i + j * m)]).bits());
    }
  }
}

TEST(Cast, RoundTripHalfFloat) {
  const index_t m = 30, n = 20;
  std::vector<half16> src(static_cast<std::size_t>(m * n));
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = half16(0.125f * static_cast<float>(i % 97));
  }
  std::vector<float> mid(src.size());
  std::vector<half16> back(src.size());
  blas::castToFloat(m, n, src.data(), m, mid.data(), m);
  blas::castToHalf(m, n, mid.data(), m, back.data(), m);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(src[i].bits(), back[i].bits());
  }
}

TEST(Cast, NarrowAndWiden) {
  const index_t m = 25, n = 11;
  std::vector<double> src(static_cast<std::size_t>(m * n));
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = 1.0 / (1.0 + static_cast<double>(i));
  }
  std::vector<float> f(src.size());
  std::vector<double> back(src.size());
  blas::narrowToFloat(m, n, src.data(), m, f.data(), m);
  blas::widenToDouble(m, n, f.data(), m, back.data(), m);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(f[i], static_cast<float>(src[i]));
    EXPECT_EQ(back[i], static_cast<double>(f[i]));
  }
}

TEST(Cast, RespectsLeadingDimensions) {
  // Submatrix cast inside a larger matrix must not touch padding.
  const index_t m = 4, n = 3, ldSrc = 7, ldDst = 6;
  std::vector<float> src(static_cast<std::size_t>(ldSrc * n), 9.0f);
  std::vector<half16> dst(static_cast<std::size_t>(ldDst * n),
                          half16(-1.0f));
  blas::castToHalf(m, n, src.data(), ldSrc, dst.data(), ldDst);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < ldDst; ++i) {
      const float expected = i < m ? 9.0f : -1.0f;
      EXPECT_EQ(dst[static_cast<std::size_t>(i + j * ldDst)].toFloat(),
                expected);
    }
  }
}

}  // namespace
}  // namespace hplmxp
