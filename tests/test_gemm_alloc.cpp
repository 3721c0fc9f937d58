// Regression tests for the GEMM hot-path allocation bug: the pre-rewrite
// kernel allocated its aPack/bPack vectors inside the parallel-for lambda
// (per task, per call). The rewritten kernel leases persistent pack arenas
// from the thread pool, so a steady-state GEMM must perform exactly zero
// heap allocations; so must the panel TRSM, whose packed triangle and
// slabs live in the same arenas, and refinement's mixed GEMV. This binary
// overrides the global allocator to count every operator new, which is why
// these tests live in their own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "blas/blas.h"
#include "fp16/half.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace {

std::atomic<long long> gAllocCount{0};
std::atomic<bool> gTracking{false};

void* countedAlloc(std::size_t size) {
  if (gTracking.load(std::memory_order_relaxed)) {
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* countedAlignedAlloc(std::size_t size, std::size_t align) {
  if (gTracking.load(std::memory_order_relaxed)) {
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded != 0 ? padded : align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

/// Enables allocation counting for the enclosing scope.
struct TrackScope {
  TrackScope() { gTracking.store(true, std::memory_order_relaxed); }
  ~TrackScope() { gTracking.store(false, std::memory_order_relaxed); }
  [[nodiscard]] static long long count() {
    return gAllocCount.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hplmxp {
namespace {

using blas::Trans;

TEST(GemmAlloc, SteadyStateKernelsPerformZeroAllocations) {
  ThreadPool pool(3);  // 2 workers + the caller: helpers really get posted

  const index_t n = 160;
  const auto count = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<float> af(count, 0.25f), bf(count, -0.5f), c(count, 1.0f);
  std::vector<double> ad(count, 0.25), bd(count, -0.5), cd(count, 1.0);
  std::vector<half16> ah(count, half16(0.25f)), bh(count, half16(-0.5f));
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  // The LU's two panel solves: a b x b triangle (diagonal 2, so repeated
  // solves stay finite) against a b x n U panel and an n x b L panel.
  const index_t b = 128;
  std::vector<float> tri(static_cast<std::size_t>(b * b), 1.0f / 1024);
  for (index_t i = 0; i < b; ++i) {
    tri[static_cast<std::size_t>(i + i * b)] = 2.0f;
  }
  std::vector<float> uPanel(static_cast<std::size_t>(b * n), 1.0f);
  std::vector<float> lPanel(static_cast<std::size_t>(n * b), 1.0f);

  auto runAll = [&] {
    blas::gemmMixed(Trans::kNoTrans, Trans::kTrans, n, n, n, -1.0f, ah.data(),
                    n, bh.data(), n, 1.0f, c.data(), n, &pool);
    blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0f, af.data(), n,
                bf.data(), n, 0.5f, c.data(), n, &pool);
    blas::dgemm(Trans::kTrans, Trans::kNoTrans, n, n, n, 1.0, ad.data(), n,
                bd.data(), n, 0.5, cd.data(), n, &pool);
    blas::gemvMixed(n, n, af.data(), n, x.data(), y.data());
    blas::strsm(blas::Side::kLeft, blas::Uplo::kLower, blas::Diag::kNonUnit,
                b, n, 1.0f, tri.data(), b, uPanel.data(), b, &pool);
    blas::strsm(blas::Side::kRight, blas::Uplo::kUpper, blas::Diag::kNonUnit,
                n, b, 1.0f, tri.data(), b, lPanel.data(), n, &pool);
  };

  // Warmup: grows the pack arena to its high-water mark, creates the
  // scratch lease, and sizes the pool's task ring.
  for (int i = 0; i < 3; ++i) {
    runAll();
  }

  long long delta = 0;
  {
    TrackScope scope;
    const long long before = TrackScope::count();
    for (int i = 0; i < 10; ++i) {
      runAll();
    }
    delta = TrackScope::count() - before;
  }
  EXPECT_EQ(delta, 0)
      << "steady-state GEMM/GEMV/TRSM must not touch the heap (pack "
         "buffers and TRSM slabs live in pool-owned arenas, helper tasks "
         "in fixed job slots)";
}

TEST(GemmAlloc, ArenaStopsGrowingAfterWarmup) {
  ThreadPool pool(2);
  const index_t n = 96;
  const auto count = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<half16> a(count, half16(1.0f)), b(count, half16(0.5f));
  std::vector<float> c(count, 0.0f);

  blas::gemmMixed(Trans::kNoTrans, Trans::kTrans, n, n, n, -1.0f, a.data(), n,
                  b.data(), n, 1.0f, c.data(), n, &pool);
  const long long grown = Arena::totalGrowths();
  for (int i = 0; i < 8; ++i) {
    blas::gemmMixed(Trans::kNoTrans, Trans::kTrans, n, n, n, -1.0f, a.data(),
                    n, b.data(), n, 1.0f, c.data(), n, &pool);
  }
  EXPECT_EQ(Arena::totalGrowths(), grown);
  // Sequential invocations reuse one arena; they must not accumulate.
  EXPECT_EQ(pool.scratchArenaCount(), 1u);
}

TEST(GemmAlloc, ConcurrentGemmsLeaseDistinctArenas) {
  // Every simmpi rank thread issues its trailing GEMMs against the one
  // shared pool; each invocation must get its own pack arena, not race a
  // shared buffer.
  ThreadPool outer(4);
  ThreadPool inner(1);
  const index_t n = 64;
  const auto count = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<float> a(count, 0.5f), b(count, 0.25f);
  std::vector<std::vector<float>> cs(4, std::vector<float>(count, 1.0f));

  outer.parallelForChunked(
      0, 4,
      [&](index_t lo, index_t hi) {
        for (index_t t = lo; t < hi; ++t) {
          blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0f,
                      a.data(), n, b.data(), n, 0.0f, cs[t].data(), n,
                      &inner);
        }
      },
      4);

  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(cs[0], cs[t]);
  }
  EXPECT_GE(inner.scratchArenaCount(), 1u);
  EXPECT_LE(inner.scratchArenaCount(), 4u);
}

}  // namespace
}  // namespace hplmxp
