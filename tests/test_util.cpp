// Utility substrate: thread pool, stats, tables, buffers, check macros,
// and the guard that keeps every wall-clock read inside util/clock.h.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/arena.h"
#include "util/buffer.h"
#include "util/logging.h"
#include "util/common.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hplmxp {
namespace {

TEST(Common, IntegerHelpers) {
  EXPECT_EQ(ceilDiv(10, 3), 4);
  EXPECT_EQ(ceilDiv(9, 3), 3);
  EXPECT_EQ(roundUp(10, 8), 16);
  EXPECT_EQ(roundUp(16, 8), 16);
  EXPECT_EQ(roundDown(10, 8), 8);
}

TEST(Common, CheckMacrosThrow) {
  EXPECT_THROW(HPLMXP_CHECK(1 == 2), CheckError);
  EXPECT_THROW(HPLMXP_REQUIRE(false, "context"), CheckError);
  EXPECT_NO_THROW(HPLMXP_CHECK(true));
  try {
    HPLMXP_REQUIRE(false, "specific context");
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("specific context"),
              std::string::npos);
  }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(0, 1000, [&](index_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallelFor(5, 5, [&](index_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallelFor(0, 100,
                                [](index_t i) {
                                  if (i == 37) {
                                    throw CheckError("boom");
                                  }
                                }),
               CheckError);
  // Pool is still usable afterwards.
  std::atomic<int> count{0};
  pool.parallelFor(0, 10, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedUseFromRankedThreads) {
  // Multiple threads driving the same pool concurrently (as simmpi ranks
  // do with the global pool) must each see correct results.
  ThreadPool pool(2);
  std::vector<std::thread> threads;
  std::vector<long> sums(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::atomic<long> sum{0};
      pool.parallelFor(0, 500, [&](index_t i) {
        sum.fetch_add(i);
      });
      sums[static_cast<std::size_t>(t)] = sum.load();
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (long s : sums) {
    EXPECT_EQ(s, 499 * 500 / 2);
  }
}

TEST(ThreadPool, ChunkedCoversRangeWithDisjointChunks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1537);
  std::atomic<int> calls{0};
  pool.parallelForChunked(
      0, 1537,
      [&](index_t lo, index_t hi) {
        EXPECT_LT(lo, hi);
        calls.fetch_add(1);
        for (index_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      },
      7);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(calls.load(), 7);
}

TEST(ThreadPool, ChunkedClampsChunksToRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  // 3 elements, 100 requested chunks: one single-element chunk each.
  pool.parallelForChunked(
      10, 13,
      [&](index_t lo, index_t hi) {
        EXPECT_EQ(hi, lo + 1);
        calls.fetch_add(1);
      },
      100);
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, ChunkedExceptionsPropagateAndPoolSurvives) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallelForChunked(0, 64,
                                       [](index_t lo, index_t hi) {
                                         if (lo <= 37 && 37 < hi) {
                                           throw CheckError("boom");
                                         }
                                       },
                                       16),
               CheckError);
  std::atomic<int> count{0};
  pool.parallelForChunked(0, 10,
                          [&](index_t lo, index_t hi) {
                            count.fetch_add(static_cast<int>(hi - lo));
                          });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ManyConcurrentChunkedLoopsFromRankedThreads) {
  // Saturates the fixed job-slot table from several driver threads at
  // once: slot exhaustion must degrade to caller-runs-alone, never lose
  // or duplicate a chunk.
  ThreadPool pool(2);
  std::vector<std::thread> threads;
  std::vector<long> sums(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        std::atomic<long> sum{0};
        pool.parallelForChunked(0, 300, [&](index_t lo, index_t hi) {
          long local = 0;
          for (index_t i = lo; i < hi; ++i) {
            local += i;
          }
          sum.fetch_add(local);
        });
        HPLMXP_CHECK(sum.load() == 299L * 300L / 2);
      }
      sums[static_cast<std::size_t>(t)] = 1;
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (long s : sums) {
    EXPECT_EQ(s, 1);
  }
}

TEST(ThreadPool, ScratchLeaseReusesOneArenaSequentially) {
  ThreadPool pool(2);
  {
    auto lease = pool.scratch();
    lease.arena().reserve(1 << 12);
    EXPECT_GE(lease.arena().capacity(), std::size_t{1} << 12);
  }
  EXPECT_EQ(pool.scratchArenaCount(), 1u);
  {
    auto lease = pool.scratch();
    // Same arena comes back with its capacity intact.
    EXPECT_GE(lease.arena().capacity(), std::size_t{1} << 12);
  }
  EXPECT_EQ(pool.scratchArenaCount(), 1u);
  // Overlapping leases get distinct arenas.
  {
    auto a = pool.scratch();
    auto b = pool.scratch();
    EXPECT_NE(&a.arena(), &b.arena());
  }
  EXPECT_EQ(pool.scratchArenaCount(), 2u);
}

TEST(Arena, AlignedBumpAllocationAndReset) {
  Arena arena;
  arena.reserve(1 << 10);
  const std::size_t cap = arena.capacity();
  float* f = arena.alloc<float>(10);
  double* d = arena.alloc<double>(10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % 64, 0u);
  f[9] = 1.0f;
  d[9] = 2.0;
  EXPECT_GE(arena.used(), 10 * sizeof(float) + 10 * sizeof(double));

  // reserve() below capacity resets the cursor without reallocating.
  arena.reserve(16);
  EXPECT_EQ(arena.capacity(), cap);
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.alloc<float>(10), f);  // same storage handed out again

  // Exhausting the reservation is a hard error, not a silent grow: the
  // hot loop must never allocate mid-cycle.
  arena.reset();
  EXPECT_THROW(arena.alloc<std::byte>(arena.capacity() + 64), CheckError);
}

TEST(Arena, GrowthCounterTracksReallocations) {
  Arena arena;
  const long long g0 = arena.growths();
  arena.reserve(1 << 8);
  EXPECT_EQ(arena.growths(), g0 + 1);
  arena.reserve(1 << 8);  // fits: no growth
  EXPECT_EQ(arena.growths(), g0 + 1);
  arena.reserve(arena.capacity() * 2);
  EXPECT_EQ(arena.growths(), g0 + 2);
}

TEST(Stats, SummaryAndPercentile) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0, 5.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(relativeSpreadPercent(v), (5.0 - 1.0) / 3.0 * 100.0);
}

TEST(Stats, RunningMatchesBatch) {
  RunningStats rs;
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.1 * i * ((i % 3) - 1);
    rs.add(x);
    v.push_back(x);
  }
  const Summary s = summarize(v);
  EXPECT_NEAR(rs.mean(), s.mean, 1e-12);
  EXPECT_NEAR(rs.stddev(), s.stddev, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), s.min);
  EXPECT_DOUBLE_EQ(rs.max(), s.max);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22.5"});
  const std::string out = t.render();
  // Columns pad to the widest cell ("value" = 5 chars).
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22.5  |"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
  EXPECT_THROW(t.addRow({"too", "many", "cols"}), CheckError);
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(7LL), "7");
}

TEST(Buffer, AllocateMoveRelease) {
  Buffer<float> b(100);
  EXPECT_EQ(b.size(), 100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kBufferAlignment,
            0u);
  b[0] = 1.5f;
  Buffer<float> c = std::move(b);
  EXPECT_EQ(c.size(), 100);
  EXPECT_EQ(c[0], 1.5f);
  EXPECT_EQ(b.size(), 0);  // NOLINT(bugprone-use-after-move): spec'd empty
  c.release();
  EXPECT_TRUE(c.empty());
}

TEST(Logging, LevelsFilterOutput) {
  const LogLevel old = Log::level();
  Log::setLevel(LogLevel::kWarn);
  EXPECT_EQ(Log::level(), LogLevel::kWarn);
  // Below-threshold writes are no-ops; above-threshold writes must not
  // throw (output goes to stderr).
  logDebug("suppressed ", 123);
  logInfo("suppressed too");
  Log::setLevel(LogLevel::kOff);
  logError("also suppressed at kOff? no: kError < kOff, suppressed");
  Log::setLevel(old);
}

TEST(Logging, ConcatFormatsMixedTypes) {
  // The variadic helpers stringify heterogeneous arguments.
  Log::setLevel(LogLevel::kOff);
  logWarn("n=", 42, " rate=", 1.5, " name=", std::string("x"));
  Log::setLevel(LogLevel::kWarn);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + 1.0;
  }
  EXPECT_GE(t.seconds(), 0.0);
  AccumTimer acc;
  acc.start();
  acc.stop();
  acc.start();
  acc.stop();
  EXPECT_EQ(acc.count(), 2);
  EXPECT_GE(acc.totalSeconds(), 0.0);
}

TEST(ClockSourceTest, NoWallClockReadOutsideClockHeader) {
  // fleetsim runs the live fleet's policy objects on virtual time, and a
  // Timer reads whatever ClockSource it is given (util/clock.h). A direct
  // wall-clock read anywhere else would make a simulated run depend on
  // the host's time.
  const std::filesystem::path root(HPLMXP_SOURCE_DIR);
  const char* const reads[] = {"steady_clock", "system_clock",
                               "high_resolution_clock", "clock_gettime",
                               "gettimeofday"};
  std::size_t scanned = 0;
  std::string hits;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    const std::filesystem::path& path = entry.path();
    if (!entry.is_regular_file() ||
        (path.extension() != ".h" && path.extension() != ".cpp")) {
      continue;
    }
    ++scanned;
    const std::string name = path.lexically_relative(root).generic_string();
    if (name == "util/clock.h") {
      continue;
    }
    std::ifstream in(path);
    std::string line;
    for (int number = 1; std::getline(in, line); ++number) {
      for (const char* read : reads) {
        if (line.find(read) != std::string::npos) {
          hits += name + ":" + std::to_string(number) + ": " + line + "\n";
        }
      }
    }
  }
  EXPECT_GT(scanned, 100u) << "no source tree at " << root;
  EXPECT_TRUE(hits.empty()) << "wall-clock reads outside util/clock.h:\n"
                            << hits;
}

}  // namespace
}  // namespace hplmxp
