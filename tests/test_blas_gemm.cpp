// GEMM kernels vs the naive reference oracle, across shapes, transposes,
// scalars, leading dimensions, and all three precisions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/gemm.h"
#include "blas/gemm_baseline.h"
#include "blas/isa.h"
#include "blas/reference.h"
#include "blas/tune.h"
#include "lowp/bfloat16.h"
#include "lowp/fp8.h"

namespace hplmxp {
namespace {

using blas::Trans;

std::vector<float> randomVec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = d(rng);
  }
  return v;
}

struct GemmCase {
  index_t m, n, k;
  Trans ta, tb;
  float alpha, beta;
};

class SgemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(SgemmTest, MatchesReference) {
  const GemmCase c = GetParam();
  const index_t lda = (c.ta == Trans::kNoTrans ? c.m : c.k) + 3;
  const index_t ldb = (c.tb == Trans::kNoTrans ? c.k : c.n) + 1;
  const index_t ldc = c.m + 2;
  auto a = randomVec(static_cast<std::size_t>(
                         lda * (c.ta == Trans::kNoTrans ? c.k : c.m)),
                     1);
  auto b = randomVec(static_cast<std::size_t>(
                         ldb * (c.tb == Trans::kNoTrans ? c.n : c.k)),
                     2);
  auto cOpt = randomVec(static_cast<std::size_t>(ldc * c.n), 3);
  auto cRef = cOpt;

  blas::sgemm(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(),
              ldb, c.beta, cOpt.data(), ldc);
  blas::ref::gemm<float>(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda,
                         b.data(), ldb, c.beta, cRef.data(), ldc);

  const float tol = 1e-5f * static_cast<float>(std::max<index_t>(c.k, 1));
  for (index_t j = 0; j < c.n; ++j) {
    for (index_t i = 0; i < c.m; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i + j * ldc);
      EXPECT_NEAR(cOpt[idx], cRef[idx], tol) << "i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SgemmTest,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::kNoTrans, Trans::kNoTrans, 1.0f, 0.0f},
        GemmCase{5, 7, 3, Trans::kNoTrans, Trans::kNoTrans, 2.0f, 0.5f},
        GemmCase{64, 64, 64, Trans::kNoTrans, Trans::kNoTrans, 1.0f, 1.0f},
        GemmCase{100, 50, 300, Trans::kNoTrans, Trans::kNoTrans, -1.0f, 1.0f},
        GemmCase{33, 65, 17, Trans::kTrans, Trans::kNoTrans, 1.0f, 0.0f},
        GemmCase{33, 65, 17, Trans::kNoTrans, Trans::kTrans, 1.0f, 2.0f},
        GemmCase{48, 48, 48, Trans::kTrans, Trans::kTrans, 0.5f, -1.0f},
        GemmCase{97, 101, 259, Trans::kNoTrans, Trans::kTrans, -1.0f, 1.0f},
        GemmCase{7, 300, 2, Trans::kNoTrans, Trans::kNoTrans, 1.0f, 0.0f},
        GemmCase{200, 3, 200, Trans::kTrans, Trans::kNoTrans, 1.0f, 0.0f}));

TEST(Sgemm, ZeroDimsAreNoOps) {
  float a = 1.0f, b = 2.0f, c = 3.0f;
  blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, 0, 0, 0, 1.0f, &a, 1, &b, 1,
              1.0f, &c, 1);
  EXPECT_EQ(c, 3.0f);
  // k == 0 with beta: C scales only.
  blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, 1, 1, 0, 1.0f, &a, 1, &b, 1,
              0.5f, &c, 1);
  EXPECT_EQ(c, 1.5f);
}

TEST(Sgemm, BetaZeroOverwritesNanC) {
  // beta == 0 must not propagate garbage from C (0 * NaN trap).
  std::vector<float> a{1.0f}, b{2.0f};
  std::vector<float> c{std::nanf("1")};
  blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, 1, 1, 1, 1.0f, a.data(), 1,
              b.data(), 1, 0.0f, c.data(), 1);
  EXPECT_EQ(c[0], 2.0f);
}

TEST(Dgemm, MatchesReference) {
  const index_t m = 37, n = 53, k = 290;
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(k * n)), c1(static_cast<std::size_t>(m * n)),
      c2;
  for (auto& x : a) x = d(rng);
  for (auto& x : b) x = d(rng);
  for (auto& x : c1) x = d(rng);
  c2 = c1;
  blas::dgemm(Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.5, a.data(), m,
              b.data(), k, -0.5, c1.data(), m);
  blas::ref::gemm<double>(Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.5,
                          a.data(), m, b.data(), k, -0.5, c2.data(), m);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-12 * k);
  }
}

class GemmMixedTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmMixedTest, MatchesMixedReference) {
  const GemmCase c = GetParam();
  const index_t lda = c.ta == Trans::kNoTrans ? c.m : c.k;
  const index_t ldb = c.tb == Trans::kNoTrans ? c.k : c.n;
  const index_t ldc = c.m;
  auto af = randomVec(static_cast<std::size_t>(
                          lda * (c.ta == Trans::kNoTrans ? c.k : c.m)),
                      7);
  auto bf = randomVec(static_cast<std::size_t>(
                          ldb * (c.tb == Trans::kNoTrans ? c.n : c.k)),
                      8);
  std::vector<half16> a(af.size()), b(bf.size());
  for (std::size_t i = 0; i < af.size(); ++i) a[i] = half16(af[i]);
  for (std::size_t i = 0; i < bf.size(); ++i) b[i] = half16(bf[i]);
  auto cOpt = randomVec(static_cast<std::size_t>(ldc * c.n), 9);
  auto cRef = cOpt;

  blas::gemmMixed(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(),
                  ldb, c.beta, cOpt.data(), ldc);
  blas::ref::gemmMixed(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda,
                       b.data(), ldb, c.beta, cRef.data(), ldc);
  const float tol = 1e-5f * static_cast<float>(std::max<index_t>(c.k, 1));
  for (std::size_t i = 0; i < cOpt.size(); ++i) {
    EXPECT_NEAR(cOpt[i], cRef[i], tol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmMixedTest,
    ::testing::Values(
        GemmCase{16, 16, 16, Trans::kNoTrans, Trans::kTrans, -1.0f, 1.0f},
        GemmCase{60, 44, 32, Trans::kNoTrans, Trans::kTrans, -1.0f, 1.0f},
        GemmCase{31, 29, 270, Trans::kNoTrans, Trans::kNoTrans, 1.0f, 0.0f},
        GemmCase{8, 120, 64, Trans::kTrans, Trans::kNoTrans, 2.0f, 0.5f},
        GemmCase{1, 1, 300, Trans::kNoTrans, Trans::kTrans, 1.0f, 1.0f}));

TEST(GemmMixed, Fp32AccumulationBeatsFp16Accumulation) {
  // The defining property of the mixed kernel: inputs are FP16 but sums
  // accumulate in FP32. Summing k copies of 1 + one of 2^-12 stays exact
  // in FP32 accumulation, while FP16 accumulation would lose the tail.
  const index_t k = 256;
  std::vector<half16> a(static_cast<std::size_t>(k), half16(1.0f));
  std::vector<half16> b(static_cast<std::size_t>(k), half16(1.0f));
  b[0] = half16(1.0f + 1.0f / 1024.0f);  // representable in binary16
  float c = 0.0f;
  blas::gemmMixed(blas::Trans::kNoTrans, blas::Trans::kNoTrans, 1, 1, k, 1.0f,
                  a.data(), 1, b.data(), k, 0.0f, &c, 1);
  EXPECT_FLOAT_EQ(c, static_cast<float>(k) + 1.0f / 1024.0f);
}

// ---------------------------------------------------------------------------
// Bitwise identity vs the retained pre-rewrite kernel (blas/gemm_baseline.h).
// The look-ahead equivalence suite and the determinism tests depend on the
// GEMM producing the exact same bits regardless of blocking or thread
// count, so these use memcmp, not tolerances.
// ---------------------------------------------------------------------------

/// Restores the process-wide blocking on scope exit so a failing test
/// cannot poison later ones.
struct BlockingGuard {
  blas::GemmBlocking saved = blas::gemmBlocking();
  ~BlockingGuard() { blas::setGemmBlocking(saved); }
};

class GemmBitwiseTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmBitwiseTest, SgemmMatchesBaselineBitwise) {
  const GemmCase c = GetParam();
  const index_t lda = (c.ta == Trans::kNoTrans ? c.m : c.k) + 2;
  const index_t ldb = (c.tb == Trans::kNoTrans ? c.k : c.n) + 1;
  const index_t ldc = c.m + 3;
  auto a = randomVec(static_cast<std::size_t>(
                         lda * (c.ta == Trans::kNoTrans ? c.k : c.m)),
                     21);
  auto b = randomVec(static_cast<std::size_t>(
                         ldb * (c.tb == Trans::kNoTrans ? c.n : c.k)),
                     22);
  auto c1 = randomVec(static_cast<std::size_t>(ldc * c.n), 23);
  auto c2 = c1;

  blas::sgemm(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(),
              ldb, c.beta, c1.data(), ldc);
  blas::baseline::sgemm(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda,
                        b.data(), ldb, c.beta, c2.data(), ldc);
  for (index_t j = 0; j < c.n; ++j) {
    EXPECT_EQ(0, std::memcmp(c1.data() + j * ldc, c2.data() + j * ldc,
                             static_cast<std::size_t>(c.m) * sizeof(float)))
        << "column " << j;
  }
}

TEST_P(GemmBitwiseTest, GemmMixedMatchesBaselineBitwise) {
  const GemmCase c = GetParam();
  const index_t lda = c.ta == Trans::kNoTrans ? c.m : c.k;
  const index_t ldb = c.tb == Trans::kNoTrans ? c.k : c.n;
  const index_t ldc = c.m;
  auto af = randomVec(static_cast<std::size_t>(
                          lda * (c.ta == Trans::kNoTrans ? c.k : c.m)),
                      24);
  auto bf = randomVec(static_cast<std::size_t>(
                          ldb * (c.tb == Trans::kNoTrans ? c.n : c.k)),
                      25);
  std::vector<half16> a(af.size()), b(bf.size());
  for (std::size_t i = 0; i < af.size(); ++i) a[i] = half16(af[i]);
  for (std::size_t i = 0; i < bf.size(); ++i) b[i] = half16(bf[i]);
  auto c1 = randomVec(static_cast<std::size_t>(ldc * c.n), 26);
  auto c2 = c1;

  blas::gemmMixed(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(),
                  ldb, c.beta, c1.data(), ldc);
  blas::baseline::gemmMixed(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(),
                            lda, b.data(), ldb, c.beta, c2.data(), ldc);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(),
                           c1.size() * sizeof(float)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBitwiseTest,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::kNoTrans, Trans::kNoTrans, 1.0f, 0.0f},
        GemmCase{5, 7, 3, Trans::kNoTrans, Trans::kTrans, 0.37f, 0.5f},
        GemmCase{64, 64, 64, Trans::kTrans, Trans::kNoTrans, 1.0f, 1.0f},
        GemmCase{97, 101, 259, Trans::kNoTrans, Trans::kTrans, -1.0f, 1.0f},
        GemmCase{130, 96, 300, Trans::kTrans, Trans::kTrans, -1.0f, 0.0f},
        GemmCase{8, 6, 256, Trans::kNoTrans, Trans::kNoTrans, 1.0f, 1.0f},
        GemmCase{33, 65, 17, Trans::kNoTrans, Trans::kNoTrans, 2.0f, -1.0f},
        GemmCase{257, 131, 64, Trans::kNoTrans, Trans::kTrans, -1.0f, 1.0f}));

TEST(GemmBitwise, DgemmMatchesBaselineBitwise) {
  const index_t m = 61, n = 45, k = 333;
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(k * n)), c1(static_cast<std::size_t>(m * n));
  for (auto& x : a) x = d(rng);
  for (auto& x : b) x = d(rng);
  for (auto& x : c1) x = d(rng);
  auto c2 = c1;
  blas::dgemm(Trans::kNoTrans, Trans::kTrans, m, n, k, -1.0, a.data(), m,
              b.data(), n, 1.0, c1.data(), m);
  blas::baseline::dgemm(Trans::kNoTrans, Trans::kTrans, m, n, k, -1.0,
                        a.data(), m, b.data(), n, 1.0, c2.data(), m);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(double)));
}

TEST(GemmBitwise, InvariantUnderBlocking) {
  // (mc, nc, kc) are pure scheduling parameters: any legal blocking —
  // including degenerate ones that force the edge microkernel everywhere —
  // must produce the same bits.
  BlockingGuard guard;
  const index_t m = 97, n = 65, k = 130;
  auto a = randomVec(static_cast<std::size_t>(m * k), 41);
  auto b = randomVec(static_cast<std::size_t>(k * n), 42);
  auto c0 = randomVec(static_cast<std::size_t>(m * n), 43);

  auto ref = c0;
  blas::setGemmBlocking(blas::GemmBlocking{});
  blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, m, n, k, -1.0f, a.data(), m,
              b.data(), k, 1.0f, ref.data(), m);

  for (blas::GemmBlocking bl :
       {blas::GemmBlocking{8, 6, 16}, blas::GemmBlocking{8, 6, 1},
        blas::GemmBlocking{64, 96, 64}, blas::GemmBlocking{256, 480, 512},
        blas::GemmBlocking{16, 12, 37}}) {
    blas::setGemmBlocking(bl);
    auto c = c0;
    blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, m, n, k, -1.0f, a.data(),
                m, b.data(), k, 1.0f, c.data(), m);
    EXPECT_EQ(0, std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)))
        << "mc=" << bl.mc << " nc=" << bl.nc << " kc=" << bl.kc;
  }
}

TEST(GemmBitwise, InvariantUnderThreadCount) {
  const index_t m = 120, n = 90, k = 200;
  auto af = randomVec(static_cast<std::size_t>(m * k), 51);
  auto bf = randomVec(static_cast<std::size_t>(n * k), 52);
  std::vector<half16> a(af.size()), b(bf.size());
  for (std::size_t i = 0; i < af.size(); ++i) a[i] = half16(af[i]);
  for (std::size_t i = 0; i < bf.size(); ++i) b[i] = half16(bf[i]);
  auto c0 = randomVec(static_cast<std::size_t>(m * n), 53);

  ThreadPool serial(1);
  ThreadPool wide(4);
  auto c1 = c0;
  auto c2 = c0;
  blas::gemmMixed(Trans::kNoTrans, Trans::kTrans, m, n, k, -1.0f, a.data(),
                  m, b.data(), n, 1.0f, c1.data(), m, &serial);
  blas::gemmMixed(Trans::kNoTrans, Trans::kTrans, m, n, k, -1.0f, a.data(),
                  m, b.data(), n, 1.0f, c2.data(), m, &wide);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Cross-precision GEMM proofs. gemmLowp<T> must be bitwise identical to
// the scalar order-exact oracle (blas/reference.h) for every storage
// format, shape, transpose pair, blocking, and thread count — the
// determinism contract the precision ladder inherits from the FP16
// kernel. memcmp, not tolerances.
// ---------------------------------------------------------------------------

template <typename TLow>
std::vector<TLow> roundVec(const std::vector<float>& src) {
  std::vector<TLow> out(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = TLow(src[i]);
  }
  return out;
}

const GemmCase kLowpCases[] = {
    GemmCase{1, 1, 1, Trans::kNoTrans, Trans::kNoTrans, 1.0f, 0.0f},
    GemmCase{5, 7, 3, Trans::kNoTrans, Trans::kTrans, 0.37f, 0.5f},
    GemmCase{64, 64, 64, Trans::kTrans, Trans::kNoTrans, 1.0f, 1.0f},
    GemmCase{33, 65, 17, Trans::kTrans, Trans::kTrans, -1.0f, 1.0f},
    GemmCase{97, 101, 130, Trans::kNoTrans, Trans::kTrans, -1.0f, 1.0f},
    GemmCase{8, 6, 256, Trans::kNoTrans, Trans::kNoTrans, 2.0f, -1.0f},
    GemmCase{130, 3, 96, Trans::kTrans, Trans::kNoTrans, -0.5f, 0.0f},
};

template <typename TLow>
class GemmLowpTest : public ::testing::Test {};

using StorageTypes = ::testing::Types<half16, lowp::bfloat16, lowp::fp8e4m3,
                                      lowp::fp8e5m2>;
TYPED_TEST_SUITE(GemmLowpTest, StorageTypes);

TYPED_TEST(GemmLowpTest, MatchesOrderExactOracleBitwise) {
  unsigned seed = 100;
  for (const GemmCase& c : kLowpCases) {
    const index_t lda = c.ta == Trans::kNoTrans ? c.m : c.k;
    const index_t ldb = c.tb == Trans::kNoTrans ? c.k : c.n;
    const index_t ldc = c.m;
    auto a = roundVec<TypeParam>(randomVec(
        static_cast<std::size_t>(lda * (c.ta == Trans::kNoTrans ? c.k : c.m)),
        ++seed));
    auto b = roundVec<TypeParam>(randomVec(
        static_cast<std::size_t>(ldb * (c.tb == Trans::kNoTrans ? c.n : c.k)),
        ++seed));
    auto c1 = randomVec(static_cast<std::size_t>(ldc * c.n), ++seed);
    auto c2 = c1;

    blas::gemmLowp<TypeParam>(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(),
                              lda, b.data(), ldb, c.beta, c1.data(), ldc);
    blas::ref::gemmLowpOrderExact<TypeParam>(c.ta, c.tb, c.m, c.n, c.k,
                                             c.alpha, a.data(), lda, b.data(),
                                             ldb, c.beta, c2.data(), ldc);
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)))
        << "m=" << c.m << " n=" << c.n << " k=" << c.k;
  }
}

TYPED_TEST(GemmLowpTest, InvariantUnderBlockingAndThreads) {
  // The oracle result is the fixed point; every blocking and thread count
  // must reproduce it exactly.
  BlockingGuard guard;
  const index_t m = 61, n = 45, k = 77;
  auto a = roundVec<TypeParam>(
      randomVec(static_cast<std::size_t>(m * k), 201));
  auto b = roundVec<TypeParam>(
      randomVec(static_cast<std::size_t>(n * k), 202));
  auto c0 = randomVec(static_cast<std::size_t>(m * n), 203);

  auto ref = c0;
  blas::ref::gemmLowpOrderExact<TypeParam>(Trans::kNoTrans, Trans::kTrans, m,
                                           n, k, -1.0f, a.data(), m, b.data(),
                                           n, 1.0f, ref.data(), m);

  ThreadPool serial(1);
  ThreadPool wide(4);
  for (blas::GemmBlocking bl :
       {blas::GemmBlocking{}, blas::GemmBlocking{8, 6, 16},
        blas::GemmBlocking{8, 6, 1}, blas::GemmBlocking{64, 96, 64},
        blas::GemmBlocking{16, 12, 37}}) {
    blas::setGemmBlocking(bl);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &serial,
                             &wide}) {
      auto c = c0;
      blas::gemmLowp<TypeParam>(Trans::kNoTrans, Trans::kTrans, m, n, k,
                                -1.0f, a.data(), m, b.data(), n, 1.0f,
                                c.data(), m, pool);
      EXPECT_EQ(0,
                std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)))
          << "mc=" << bl.mc << " nc=" << bl.nc << " kc=" << bl.kc;
    }
  }
}

TEST(GemmLowp, Fp16InstantiationIsGemmMixedBitwise) {
  // The legacy FP16 entry point and the templated rung must be the same
  // kernel — the paper's configuration cannot drift when the ladder grows.
  for (const GemmCase& c : kLowpCases) {
    const index_t lda = c.ta == Trans::kNoTrans ? c.m : c.k;
    const index_t ldb = c.tb == Trans::kNoTrans ? c.k : c.n;
    const index_t ldc = c.m;
    auto a = roundVec<half16>(randomVec(
        static_cast<std::size_t>(lda * (c.ta == Trans::kNoTrans ? c.k : c.m)),
        301));
    auto b = roundVec<half16>(randomVec(
        static_cast<std::size_t>(ldb * (c.tb == Trans::kNoTrans ? c.n : c.k)),
        302));
    auto c1 = randomVec(static_cast<std::size_t>(ldc * c.n), 303);
    auto c2 = c1;
    blas::gemmMixed(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda,
                    b.data(), ldb, c.beta, c1.data(), ldc);
    blas::gemmLowp<half16>(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda,
                           b.data(), ldb, c.beta, c2.data(), ldc);
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)))
        << "m=" << c.m << " n=" << c.n << " k=" << c.k;
  }
}

TEST(GemmLowp, Fp32AccumulationAcrossAllRungs) {
  // The defining mixed-precision property holds at every rung: inputs are
  // low-precision but sums accumulate in FP32, so summing k exact ones
  // stays exact even where the storage format could not hold k.
  const index_t k = 256;
  auto run = [&](auto tag) {
    using T = decltype(tag);
    std::vector<T> a(static_cast<std::size_t>(k), T(1.0f));
    std::vector<T> b(static_cast<std::size_t>(k), T(1.0f));
    float c = 0.0f;
    blas::gemmLowp<T>(Trans::kNoTrans, Trans::kNoTrans, 1, 1, k, 1.0f,
                      a.data(), 1, b.data(), k, 0.0f, &c, 1);
    EXPECT_FLOAT_EQ(c, static_cast<float>(k));
  };
  run(half16());
  run(lowp::bfloat16());
  run(lowp::fp8e4m3());
  run(lowp::fp8e5m2());
}

// ---------------------------------------------------------------------------
// Every kernel path (blas/isa.h) against the order-exact oracle, bitwise,
// for FP32 and the four storage types. The shapes leave partial tiles for
// both the 24x2 scalar tile and the 32x8 AVX-512 tile, and every operand
// has a padded leading dimension.
// ---------------------------------------------------------------------------

template <typename T, Isa kPath>
struct KernelPath {
  using Storage = T;
  static constexpr Isa kIsa = kPath;
};

template <typename P>
class GemmIsaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!isaSupported(P::kIsa)) {
      GTEST_SKIP() << "this host's CPU lacks AVX-512F+F16C, so the "
                   << isaName(P::kIsa) << " kernels cannot run";
    }
  }
};

struct KernelPathName {
  template <typename P>
  static std::string GetName(int) {
    const char* storage = std::is_same_v<typename P::Storage, float> ? "fp32"
                          : std::is_same_v<typename P::Storage, half16>
                              ? "fp16"
                          : std::is_same_v<typename P::Storage,
                                           lowp::bfloat16>
                              ? "bf16"
                          : std::is_same_v<typename P::Storage, lowp::fp8e4m3>
                              ? "fp8e4m3"
                              : "fp8e5m2";
    return std::string(storage) + "_" + isaName(P::kIsa);
  }
};

using KernelPaths = ::testing::Types<
    KernelPath<float, Isa::kScalar>,
    KernelPath<float, Isa::kAvx512>,
    KernelPath<half16, Isa::kScalar>,
    KernelPath<half16, Isa::kAvx512>,
    KernelPath<lowp::bfloat16, Isa::kScalar>,
    KernelPath<lowp::bfloat16, Isa::kAvx512>,
    KernelPath<lowp::fp8e4m3, Isa::kScalar>,
    KernelPath<lowp::fp8e4m3, Isa::kAvx512>,
    KernelPath<lowp::fp8e5m2, Isa::kScalar>,
    KernelPath<lowp::fp8e5m2, Isa::kAvx512>>;
TYPED_TEST_SUITE(GemmIsaTest, KernelPaths, KernelPathName);

TYPED_TEST(GemmIsaTest, MatchesOrderExactOracleBitwise) {
  using T = typename TypeParam::Storage;
  const index_t k = 45;
  unsigned seed = 600;
  for (const index_t m : {1, 31, 33, 97}) {
    for (const index_t n : {1, 7, 9, 101}) {
      for (const auto& [ta, tb] : {std::pair{Trans::kNoTrans, Trans::kTrans},
                                   std::pair{Trans::kNoTrans,
                                             Trans::kNoTrans},
                                   std::pair{Trans::kTrans, Trans::kNoTrans},
                                   std::pair{Trans::kTrans, Trans::kTrans}}) {
        const float alpha = (seed % 2 == 0) ? -1.0f : 0.37f;
        const float beta = (seed % 3 == 0) ? 0.5f : 1.0f;
        const index_t lda = (ta == Trans::kNoTrans ? m : k) + 3;
        const index_t ldb = (tb == Trans::kNoTrans ? k : n) + 1;
        const index_t ldc = m + 2;
        auto a = roundVec<T>(randomVec(
            static_cast<std::size_t>(lda * (ta == Trans::kNoTrans ? k : m)),
            ++seed));
        auto b = roundVec<T>(randomVec(
            static_cast<std::size_t>(ldb * (tb == Trans::kNoTrans ? n : k)),
            ++seed));
        auto c1 = randomVec(static_cast<std::size_t>(ldc * n), ++seed);
        auto c2 = c1;
        blas::detail::gemm<T>(TypeParam::kIsa, ta, tb, m, n, k, alpha,
                              a.data(), lda, b.data(), ldb, beta, c1.data(),
                              ldc, nullptr);
        blas::ref::gemmLowpOrderExact<T>(ta, tb, m, n, k, alpha, a.data(),
                                         lda, b.data(), ldb, beta, c2.data(),
                                         ldc);
        EXPECT_EQ(0,
                  std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)))
            << "m=" << m << " n=" << n << " ta=" << static_cast<int>(ta)
            << " tb=" << static_cast<int>(tb);
      }
    }
  }
}

TYPED_TEST(GemmIsaTest, InvariantUnderBlockingAndThreads) {
  using T = typename TypeParam::Storage;
  BlockingGuard guard;
  const index_t m = 97, n = 101, k = 77;
  const index_t lda = m + 3, ldb = n + 1, ldc = m + 2;
  auto a = roundVec<T>(randomVec(static_cast<std::size_t>(lda * k), 701));
  auto b = roundVec<T>(randomVec(static_cast<std::size_t>(ldb * k), 702));
  auto c0 = randomVec(static_cast<std::size_t>(ldc * n), 703);

  auto ref = c0;
  blas::ref::gemmLowpOrderExact<T>(Trans::kNoTrans, Trans::kTrans, m, n, k,
                                   -1.0f, a.data(), lda, b.data(), ldb, 1.0f,
                                   ref.data(), ldc);

  ThreadPool serial(1);
  ThreadPool wide(4);
  for (blas::GemmBlocking bl :
       {blas::GemmBlocking{}, blas::GemmBlocking{8, 6, 16},
        blas::GemmBlocking{8, 6, 1}, blas::GemmBlocking{64, 96, 64},
        blas::GemmBlocking{16, 12, 37}}) {
    blas::setGemmBlocking(bl);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &serial,
                             &wide}) {
      auto c = c0;
      blas::detail::gemm<T>(TypeParam::kIsa, Trans::kNoTrans, Trans::kTrans,
                            m, n, k, -1.0f, a.data(), lda, b.data(), ldb,
                            1.0f, c.data(), ldc, pool);
      EXPECT_EQ(0,
                std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)))
          << "mc=" << bl.mc << " nc=" << bl.nc << " kc=" << bl.kc;
    }
  }
}

TEST(GemmTune, BlockingIsRoundedToTheHostTile) {
  BlockingGuard guard;
  const blas::GemmTile tile = blas::gemmTile(hostIsa());
  blas::setGemmBlocking(blas::GemmBlocking{1, 1, 7});
  EXPECT_EQ(blas::gemmBlocking().mc, tile.mr);
  EXPECT_EQ(blas::gemmBlocking().nc, tile.nr);
  EXPECT_EQ(blas::gemmBlocking().kc, 7);
  blas::setGemmBlocking(blas::GemmBlocking{});
  EXPECT_EQ(blas::gemmBlocking().mc % tile.mr, 0);
  EXPECT_EQ(blas::gemmBlocking().nc % tile.nr, 0);
}

TEST(GemmMixed, InputsAreRoundedToHalfExactly) {
  // The kernel must see binary16-rounded operands, not the original FP32.
  const float v = 1.0f + 1e-4f;  // not representable in binary16
  std::vector<half16> a{half16(v)};
  std::vector<half16> b{half16(1.0f)};
  float c = 0.0f;
  blas::gemmMixed(blas::Trans::kNoTrans, blas::Trans::kNoTrans, 1, 1, 1, 1.0f,
                  a.data(), 1, b.data(), 1, 0.0f, &c, 1);
  EXPECT_EQ(c, half16(v).toFloat());
  EXPECT_NE(c, v);
}

}  // namespace
}  // namespace hplmxp
