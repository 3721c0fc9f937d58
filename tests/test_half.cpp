// Unit and property tests of the software IEEE binary16 type. Correct
// storage rounding is what drives the numerical behaviour of the whole
// mixed-precision benchmark, so this module is tested exhaustively.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "blas/cast.h"
#include "blas/isa.h"
#include "encoding_oracle.h"
#include "fp16/half.h"

namespace hplmxp {
namespace {

TEST(Half, ZeroAndSigns) {
  EXPECT_EQ(half16(0.0f).bits(), 0x0000u);
  EXPECT_EQ(half16(-0.0f).bits(), 0x8000u);
  EXPECT_EQ(half16(0.0f).toFloat(), 0.0f);
  EXPECT_TRUE(std::signbit(half16(-0.0f).toFloat()));
}

TEST(Half, ExactSmallIntegers) {
  // All integers up to 2^11 are exactly representable.
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(half16(f).toFloat(), f) << "i=" << i;
  }
}

TEST(Half, KnownValues) {
  EXPECT_EQ(half16(1.0f).bits(), 0x3C00u);
  EXPECT_EQ(half16(-2.0f).bits(), 0xC000u);
  EXPECT_EQ(half16(65504.0f).bits(), 0x7BFFu);  // max finite
  EXPECT_EQ(half16(0.5f).bits(), 0x3800u);
  EXPECT_EQ(half16(6.103515625e-05f).bits(), 0x0400u);  // min normal
  EXPECT_EQ(half16(5.9604644775390625e-08f).bits(), 0x0001u);  // min subnorm
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(half16(65520.0f).isInf());  // rounds past max finite
  EXPECT_TRUE(half16(1e10f).isInf());
  EXPECT_TRUE(half16(-1e10f).toFloat() < 0.0f);
  EXPECT_TRUE(half16(-1e10f).isInf());
  // 65519.996 rounds to 65504 (below the midpoint 65520).
  EXPECT_EQ(half16(65519.0f).toFloat(), 65504.0f);
}

TEST(Half, InfinityAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(half16(inf).isInf());
  EXPECT_TRUE(half16(-inf).isInf());
  EXPECT_TRUE(half16(std::numeric_limits<float>::quiet_NaN()).isNan());
  EXPECT_TRUE(std::isnan(half16(std::nanf("1")).toFloat()));
}

TEST(Half, RoundToNearestEvenAtOne) {
  // Between 1.0 and 1.0 + 2^-10, the midpoint 1 + 2^-11 ties to even (1.0).
  const float ulp = 9.765625e-04f;  // 2^-10
  EXPECT_EQ(half16(1.0f + ulp / 2.0f).toFloat(), 1.0f);        // tie -> even
  EXPECT_EQ(half16(1.0f + ulp * 0.51f).toFloat(), 1.0f + ulp);  // above
  EXPECT_EQ(half16(1.0f + ulp * 0.49f).toFloat(), 1.0f);        // below
  // Between 1+ulp and 1+2*ulp the tie rounds UP to the even mantissa.
  EXPECT_EQ(half16(1.0f + 1.5f * ulp).toFloat(), 1.0f + 2.0f * ulp);
}

TEST(Half, SubnormalRounding) {
  const float minSub = 5.9604644775390625e-08f;  // 2^-24
  // Half of the smallest subnormal ties to zero (even).
  EXPECT_EQ(half16(minSub / 2.0f).toFloat(), 0.0f);
  // Slightly above the midpoint rounds up to the smallest subnormal.
  EXPECT_EQ(half16(minSub * 0.75f).toFloat(), minSub);
  // 1.5x smallest subnormal ties to 2x (even).
  EXPECT_EQ(half16(minSub * 1.5f).toFloat(), 2.0f * minSub);
}

TEST(Half, AllBitPatternsRoundTripThroughFloat) {
  // Property: binary16 -> float -> binary16 is the identity for every
  // finite/infinite pattern, and NaNs stay NaNs.
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const half16 h = half16::fromBits(static_cast<std::uint16_t>(bits));
    if (h.isNan()) {
      EXPECT_TRUE(half16(h.toFloat()).isNan());
      continue;
    }
    EXPECT_EQ(half16(h.toFloat()).bits(), bits) << "bits=" << bits;
  }
}

TEST(Half, ConversionErrorWithinHalfUlp) {
  // Property: |half(f) - f| <= 2^-11 * |f| for normal-range inputs.
  for (int i = 1; i < 4000; ++i) {
    const float f = 0.37f * static_cast<float>(i);
    if (std::fabs(f) > half16::maxFinite()) {
      break;
    }
    const float err = std::fabs(half16(f).toFloat() - f);
    EXPECT_LE(err, half16::epsilonUnit() * std::fabs(f)) << "f=" << f;
  }
}

TEST(Half, ArithmeticRoundsThroughFloat) {
  const half16 a(1.5f);
  const half16 b(2.25f);
  EXPECT_EQ((a + b).toFloat(), 3.75f);
  EXPECT_EQ((a * b).toFloat(), 3.375f);
  EXPECT_EQ((b - a).toFloat(), 0.75f);
  EXPECT_EQ((b / a).toFloat(), 1.5f);
}

TEST(Half, LimitsConstants) {
  EXPECT_EQ(half16(half16::maxFinite()).toFloat(), 65504.0f);
  EXPECT_EQ(half16(half16::minNormal()).bits(), 0x0400u);
  EXPECT_FLOAT_EQ(half16::epsilonUnit(), std::ldexp(1.0f, -11));
}

// ---------------------------------------------------------------------------
// Exhaustive conversion checks. binary16 has only 2^16 encodings, so the
// decode path can be verified for every value, and the encode path can be
// verified against a table-driven nearest-even oracle that shares no code
// with the implementation.
// ---------------------------------------------------------------------------

TEST(HalfExhaustive, EveryEncodingRoundTripsExactly) {
  long nans = 0;
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const auto b16 = static_cast<std::uint16_t>(bits);
    const half16 h = half16::fromBits(b16);
    const float f = h.toFloat();
    const std::uint16_t back = half16::fromFloat(f);
    if (h.isNan()) {
      // Every NaN payload canonicalizes to the quiet NaN with the sign
      // preserved — the one fixed point of the NaN encoding class.
      const std::uint16_t canonical =
          static_cast<std::uint16_t>((b16 & 0x8000u) | 0x7E00u);
      EXPECT_EQ(back, canonical) << "bits=" << bits;
      ++nans;
    } else {
      EXPECT_EQ(back, b16) << "bits=" << bits;
      // Widening must agree with the IEEE value class.
      EXPECT_EQ(std::isinf(f), h.isInf()) << "bits=" << bits;
    }
  }
  // 2 * (2^10 - 1) NaN payloads exist; make sure we actually walked them.
  EXPECT_EQ(nans, 2 * 1023);
}

TEST(HalfExhaustive, EncodeMatchesNearestEvenOracle) {
  // Shared table-driven oracle (tests/encoding_oracle.h): all positive
  // finite binary16 values plus a 2^16 sentinel standing in for "the next
  // representable value above maxFinite". Doubles hold every entry and
  // every neighbour midpoint exactly (multiples of 2^-24 below 2^17), so
  // the oracle's compares are exact.
  const oracle::EncodingTable table = oracle::buildEncodingTable<half16>();
  ASSERT_FALSE(table.saturating);  // binary16 overflows to infinity
  ASSERT_EQ(table.entries.back().second, 0x7C00u);
  ASSERT_EQ(table.entries.back().first, 65536.0);

  auto check = [&](float f) {
    if (!std::isfinite(f)) {
      return;
    }
    const auto expected =
        static_cast<std::uint16_t>(oracle::nearestEvenOracle(table, f));
    EXPECT_EQ(half16::fromFloat(f), expected) << "f=" << f;
    EXPECT_EQ(half16::fromFloat(-f),
              static_cast<std::uint16_t>(expected ^ 0x8000u))
        << "f=" << -f;
  };

  // Every exact half value, every neighbour midpoint (the ties-to-even
  // cases), and points just off each midpoint in both directions.
  const auto& grid = table.entries;
  for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
    check(static_cast<float>(grid[i].first));
    const double mid = (grid[i].first + grid[i + 1].first) / 2.0;
    const auto fMid = static_cast<float>(mid);
    check(fMid);
    check(std::nextafter(fMid, 0.0f));
    check(std::nextafter(fMid, 1e30f));
  }

  // Overflow boundary: 65520 = midpoint(65504, "65536") ties up to inf.
  EXPECT_EQ(half16::fromFloat(65520.0f), 0x7C00u);
  EXPECT_EQ(half16::fromFloat(std::nextafter(65520.0f, 0.0f)), 0x7BFFu);
  EXPECT_EQ(half16::fromFloat(-65520.0f), 0xFC00u);

  // Underflow boundary: half the smallest subnormal ties down to zero.
  const float minSub = 5.9604644775390625e-08f;  // 2^-24
  EXPECT_EQ(half16::fromFloat(minSub / 2.0f), 0x0000u);
  EXPECT_EQ(half16::fromFloat(std::nextafter(minSub / 2.0f, 1.0f)), 0x0001u);
  EXPECT_EQ(half16::fromFloat(-minSub / 2.0f), 0x8000u);

  // A deterministic pseudo-random sweep of float bit patterns across the
  // whole finite range (LCG over the 32-bit encodings).
  std::uint32_t s = 0x9E3779B9u;
  for (int i = 0; i < 200000; ++i) {
    s = s * 1664525u + 1013904223u;
    check(std::bit_cast<float>(s & 0x7FFFFFFFu));  // sign covered in check()
  }
}

/// Casting a panel whose entries are bounded by 1 (the L panel after the
/// diagonally-dominant TRSM) loses at most the unit roundoff per entry —
/// the property the paper's mixed-precision GEMM accuracy rests on.
TEST(Half, PanelEntriesSurviveCast) {
  for (int i = 0; i < 2000; ++i) {
    const float v = -1.0f + 0.001f * static_cast<float>(i);
    const float err = std::fabs(half16(v).toFloat() - v);
    EXPECT_LE(err, half16::epsilonUnit() * std::max(std::fabs(v), 1e-3f));
  }
}

// ---------------------------------------------------------------------------
// The binary16 CAST kernels on every kernel path (blas/isa.h). Each path
// must produce exactly half16::fromFloat's bits, NaN encodings included:
// memcmp, not tolerances.
// ---------------------------------------------------------------------------

std::string pathName(const ::testing::TestParamInfo<blas::Isa>& p) {
  return blas::isaName(p.param);
}

class HalfCastIsaTest : public ::testing::TestWithParam<blas::Isa> {
 protected:
  void SetUp() override {
    if (!blas::isaSupported(GetParam())) {
      GTEST_SKIP() << "this host's CPU lacks AVX-512F+F16C, so the "
                   << blas::isaName(GetParam()) << " kernels cannot run";
    }
  }
};

/// The dense exponent sweep of test_half_native.cpp, plus NaN payloads,
/// +-Inf, +-0, float subnormals and every binary16 tie point (the float
/// midway between two adjacent binary16 values, both signs, including the
/// subnormal ties and the 65520 overflow tie).
std::vector<float> narrowingInputs() {
  std::vector<float> v;
  const std::uint32_t mantissas[] = {
      0x000000u, 0x000001u, 0x0FFFFFu, 0x100000u, 0x100001u, 0x1FFFFFu,
      0x200000u, 0x2FFFFFu, 0x300000u, 0x3FFFFFu, 0x400000u, 0x5A5A5Au,
      0x7FFFFEu, 0x7FFFFFu};
  for (std::uint32_t exp = 0; exp <= 254; ++exp) {
    for (const std::uint32_t m : mantissas) {
      for (const std::uint32_t sign : {0u, 0x80000000u}) {
        v.push_back(std::bit_cast<float>(sign | (exp << 23) | m));
      }
    }
  }
  for (const std::uint32_t bits :
       {0x7F800001u, 0x7F812345u, 0x7FBFFFFFu, 0x7FC00000u, 0x7FC00001u,
        0x7FFFFFFFu, 0xFF800001u, 0xFFC00000u, 0xFFFFFFFFu, 0x7F800000u,
        0xFF800000u, 0x00000000u, 0x80000000u, 0x00000001u, 0x807FFFFFu,
        0x00400000u}) {
    v.push_back(std::bit_cast<float>(bits));
  }
  for (std::uint32_t h = 0; h < 0x7C00u; ++h) {
    const double lo = half16::toFloatBits(static_cast<std::uint16_t>(h));
    const double hi =
        h + 1 < 0x7C00u
            ? half16::toFloatBits(static_cast<std::uint16_t>(h + 1))
            : 65536.0;  // where the next binary16 exponent would start
    const auto tie = static_cast<float>((lo + hi) / 2.0);  // exact
    v.push_back(tie);
    v.push_back(-tie);
  }
  return v;
}

TEST_P(HalfCastIsaTest, VectorNarrowingMatchesFromFloatBitwise) {
  const std::vector<float> in = narrowingInputs();
  // Every start offset modulo the 16-lane width, so NaNs fall in different
  // lanes of a chunk and every tail length occurs.
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const auto count = static_cast<index_t>(in.size() - offset);
    std::vector<half16> got(in.size() - offset);
    blas::detail::narrowToHalf(GetParam(), count, in.data() + offset,
                               got.data());
    for (index_t i = 0; i < count; ++i) {
      const float f = in[offset + static_cast<std::size_t>(i)];
      ASSERT_EQ(got[static_cast<std::size_t>(i)].bits(), half16::fromFloat(f))
          << "float bits=" << std::hex << std::bit_cast<std::uint32_t>(f)
          << " offset=" << std::dec << offset;
    }
  }
}

/// A column-major source with NaN, Inf and tie entries scattered in
/// random data.
std::vector<float> castSource(index_t ld, index_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-70000.0f, 70000.0f);
  std::vector<float> v(static_cast<std::size_t>(ld * cols));
  for (auto& x : v) {
    x = d(rng);
  }
  for (std::size_t i = 0; i < v.size(); i += 37) {
    v[i] = std::bit_cast<float>(0x7F800001u + static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 5; i < v.size(); i += 53) {
    v[i] = std::numeric_limits<float>::infinity();
  }
  for (std::size_t i = 11; i < v.size(); i += 29) {
    v[i] = 1.0f + 0x1p-11f;  // ties to even at 1
  }
  return v;
}

TEST_P(HalfCastIsaTest, CastAndTransCastMatchScalarPathBitwise) {
  const blas::Isa isa = GetParam();
  ThreadPool wide(4);
  for (const auto& [m, n] : {std::pair<index_t, index_t>{33, 17},
                             {97, 65},
                             {1, 31},
                             {45, 3},
                             {31, 1},
                             {129, 67}}) {
    const index_t ldSrc = m + 3;
    const std::vector<float> src = castSource(ldSrc, n, 7);

    const index_t ldDst = m + 5;
    std::vector<half16> scalar(static_cast<std::size_t>(ldDst * n),
                               half16::fromBits(0xABCD));
    std::vector<half16> got = scalar;
    blas::detail::castToHalf(blas::Isa::kScalar, m, n, src.data(), ldSrc,
                             scalar.data(), ldDst, nullptr);
    blas::detail::castToHalf(isa, m, n, src.data(), ldSrc, got.data(),
                             ldDst, &wide);
    EXPECT_EQ(0, std::memcmp(got.data(), scalar.data(),
                             got.size() * sizeof(half16)))
        << "castToHalf m=" << m << " n=" << n;

    const index_t ldT = n + 2;
    std::vector<half16> scalarT(static_cast<std::size_t>(ldT * m),
                                half16::fromBits(0xABCD));
    std::vector<half16> gotT = scalarT;
    blas::detail::transCastToHalf(blas::Isa::kScalar, m, n, src.data(),
                                  ldSrc, scalarT.data(), ldT, nullptr);
    blas::detail::transCastToHalf(isa, m, n, src.data(), ldSrc, gotT.data(),
                                  ldT, &wide);
    EXPECT_EQ(0, std::memcmp(gotT.data(), scalarT.data(),
                             gotT.size() * sizeof(half16)))
        << "transCastToHalf m=" << m << " n=" << n;
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < n; ++j) {
        ASSERT_EQ(gotT[static_cast<std::size_t>(j + i * ldT)].bits(),
                  half16::fromFloat(src[static_cast<std::size_t>(
                      i + j * ldSrc)]));
      }
    }

    // The public entry points run the host's path.
    std::vector<half16> pub = scalar;
    blas::castToHalf(m, n, src.data(), ldSrc, pub.data(), ldDst);
    EXPECT_EQ(0, std::memcmp(pub.data(), scalar.data(),
                             pub.size() * sizeof(half16)));
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, HalfCastIsaTest,
                         ::testing::Values(blas::Isa::kScalar,
                                           blas::Isa::kAvx512),
                         pathName);

}  // namespace
}  // namespace hplmxp
