#include "perfmodel/autotune.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "blas/blas.h"
#include "fp16/half.h"
#include "util/timer.h"

namespace hplmxp {

namespace {

// Deterministic fill that is cheap and avoids denormals; values in
// [-1, 1). Timing only — the contents never feed numerical checks.
void fillPattern(float* p, std::size_t count, std::uint32_t seed) {
  std::uint32_t s = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < count; ++i) {
    s = s * 1664525u + 1013904223u;
    p[i] = static_cast<float>(static_cast<std::int32_t>(s)) * 0x1p-31f;
  }
}

void fillPattern(half16* p, std::size_t count, std::uint32_t seed) {
  std::uint32_t s = seed * 2246822519u + 1u;
  for (std::size_t i = 0; i < count; ++i) {
    s = s * 1664525u + 1013904223u;
    p[i] = half16(static_cast<float>(static_cast<std::int32_t>(s)) *
                  0x1p-31f);
  }
}

/// Best-of-`reps` seconds for `fn()` after one untimed warmup run.
template <typename Fn>
double bestSeconds(int reps, Fn&& fn) {
  fn();  // warmup: faults pages, warms the pack arena and the job slots
  double best = 1e300;
  for (int r = 0; r < std::max(1, reps); ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

double gemmMixedGflops(index_t n, ThreadPool* pool, int reps,
                       std::vector<half16>& a, std::vector<half16>& b,
                       std::vector<float>& c) {
  const double secs = bestSeconds(reps, [&] {
    blas::gemmMixed(blas::Trans::kNoTrans, blas::Trans::kTrans, n, n, n,
                    -1.0f, a.data(), n, b.data(), n, 1.0f, c.data(), n,
                    pool);
  });
  return blas::gemmFlops(n, n, n) / secs / 1e9;
}

}  // namespace

GemmTuneResult autotuneGemmBlocking(index_t n, ThreadPool* pool, int reps) {
  HPLMXP_REQUIRE(n > 0, "autotune: n must be > 0");
  const auto count = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<half16> a(count);
  std::vector<half16> b(count);
  std::vector<float> c(count);
  fillPattern(a.data(), count, 17);
  fillPattern(b.data(), count, 29);
  fillPattern(c.data(), count, 43);

  const blas::GemmBlocking saved = blas::gemmBlocking();

  GemmTuneResult result;
  result.problemSize = n;
  result.baseline = gemmMixedGflops(n, pool, reps, a, b, c);
  result.blocking = saved;
  result.gflops = result.baseline;

  // The grid spans cache-residency regimes: mc x kc sets the packed A
  // block a task keeps in L2 while its strips stream past, and nc the
  // width of a column task. Candidates larger than the problem collapse
  // to one row range, each strip walked down the whole height, which is
  // still a valid (and often winning) configuration at small n.
  constexpr index_t kMcGrid[] = {256, 1024, 4096};
  constexpr index_t kNcGrid[] = {96, 240, 480};
  constexpr index_t kKcGrid[] = {128, 256, 512};
  for (index_t mc : kMcGrid) {
    for (index_t nc : kNcGrid) {
      for (index_t kc : kKcGrid) {
        blas::setGemmBlocking(blas::GemmBlocking{mc, nc, kc});
        const double gf = gemmMixedGflops(n, pool, reps, a, b, c);
        ++result.candidatesTried;
        if (gf > result.gflops) {
          result.gflops = gf;
          result.blocking = blas::gemmBlocking();
        }
      }
    }
  }
  blas::setGemmBlocking(result.blocking);
  return result;
}

MeasuredKernelCurves measureKernelCurves(const std::vector<index_t>& sizes,
                                         ThreadPool* pool, int reps) {
  MeasuredKernelCurves curves;
  for (index_t s : sizes) {
    HPLMXP_REQUIRE(s > 0, "measureKernelCurves: sizes must be > 0");
    const auto count =
        static_cast<std::size_t>(s) * static_cast<std::size_t>(s);

    {
      std::vector<half16> a(count);
      std::vector<half16> b(count);
      std::vector<float> c(count);
      fillPattern(a.data(), count, 7);
      fillPattern(b.data(), count, 11);
      fillPattern(c.data(), count, 13);
      curves.gemm.push_back(
          {static_cast<double>(s),
           gemmMixedGflops(s, pool, reps, a, b, c) * 1e9});
    }

    {
      // Diagonally dominant so the no-pivot factorization stays benign.
      std::vector<float> a(count);
      fillPattern(a.data(), count, 19);
      std::vector<float> fresh = a;
      for (index_t i = 0; i < s; ++i) {
        fresh[i + i * s] += static_cast<float>(s);
      }
      const double secs = bestSeconds(reps, [&] {
        a = fresh;  // refactorize the same matrix every rep
        blas::getrfNoPiv(s, a.data(), s, pool);
      });
      curves.getrf.push_back(
          {static_cast<double>(s), blas::getrfFlops(s) / secs});
    }

    {
      std::vector<float> tri(count);
      std::vector<float> rhs(count);
      fillPattern(tri.data(), count, 23);
      fillPattern(rhs.data(), count, 31);
      const double secs = bestSeconds(reps, [&] {
        blas::strsm(blas::Side::kLeft, blas::Uplo::kLower, blas::Diag::kUnit,
                    s, s, 1.0f, tri.data(), s, rhs.data(), s, pool);
      });
      curves.trsm.push_back({static_cast<double>(s),
                             blas::trsmFlops(blas::Side::kLeft, s, s) / secs});
    }
  }
  return curves;
}

bool saveTuneTable(const std::string& path, const GemmTuneResult& tune,
                   const MeasuredKernelCurves& curves) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "# hplmxp kernel tune table v1\n";
  out << "blocking " << tune.blocking.mc << " " << tune.blocking.nc << " "
      << tune.blocking.kc << " " << tune.gflops << "\n";
  for (const auto& s : curves.gemm) {
    out << "gemm " << s.size << " " << s.rate << "\n";
  }
  for (const auto& s : curves.getrf) {
    out << "getrf " << s.size << " " << s.rate << "\n";
  }
  for (const auto& s : curves.trsm) {
    out << "trsm " << s.size << " " << s.rate << "\n";
  }
  return static_cast<bool>(out);
}

bool loadTuneTable(const std::string& path, GemmTuneResult* tune,
                   MeasuredKernelCurves* curves) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "blocking" && tune != nullptr) {
      blas::GemmBlocking bl;
      double gf = 0.0;
      if (ls >> bl.mc >> bl.nc >> bl.kc >> gf) {
        tune->blocking = bl;
        tune->gflops = gf;
      }
    } else if (curves != nullptr &&
               (key == "gemm" || key == "getrf" || key == "trsm")) {
      RateSample sample;
      if (ls >> sample.size >> sample.rate) {
        auto& vec = key == "gemm"    ? curves->gemm
                    : key == "getrf" ? curves->getrf
                                     : curves->trsm;
        vec.push_back(sample);
      }
    }
    // Unknown keys: skipped, so future fields stay forward-compatible.
  }
  return true;
}

}  // namespace hplmxp
