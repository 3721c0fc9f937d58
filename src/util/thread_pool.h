// A small work-stealing-free thread pool with parallel-for primitives.
// The BLAS kernels use it the way a GPU kernel uses its thread blocks:
// a flat 1-D range of independent tile tasks.
//
// Two range primitives are offered:
//   * parallelForChunked(begin, end, fn) — templated, fn(lo, hi) is called
//     once per contiguous chunk with zero type erasure inside the range,
//     so kernel inner loops pay no indirect call per index. The shared
//     loop state lives on the caller's stack and helper tasks are posted
//     through fixed job slots, so steady-state invocations perform no
//     heap allocation.
//   * parallelFor(begin, end, std::function fn) — the legacy per-index
//     form, now a thin wrapper over the chunked primitive.
//
// The pool also owns persistent scratch arenas (util/arena.h) that kernels
// lease for pack buffers: scratch() hands out an arena from a free list
// and the RAII lease returns it, so concurrent kernel invocations get
// distinct arenas and the hot loop never touches the allocator.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/arena.h"
#include "util/common.h"

namespace hplmxp {

namespace detail {

/// Shared state of one chunked parallel-for invocation. Lives on the
/// caller's stack: the job-slot protocol in ThreadPool guarantees no
/// helper dereferences it after the invocation retires.
template <typename F>
struct ChunkJob {
  std::atomic<index_t> nextChunk{0};
  std::atomic<index_t> remainingChunks{0};
  index_t totalChunks = 0;
  index_t begin = 0;
  index_t end = 0;
  index_t chunkSize = 0;
  F* fn = nullptr;

  std::mutex doneMutex;
  std::condition_variable doneCv;

  std::mutex excMutex;
  std::exception_ptr exc;
  std::atomic<bool> failed{false};

  void runChunks() {
    while (true) {
      const index_t c = nextChunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= totalChunks) {
        return;
      }
      const index_t lo = begin + c * chunkSize;
      const index_t hi = std::min(end, lo + chunkSize);
      if (!failed.load(std::memory_order_relaxed)) {
        // Fast-path skip once a failure is seen; the flag is atomic so the
        // check is race-free (the exception_ptr itself stays under lock).
        try {
          (*fn)(lo, hi);
        } catch (...) {
          std::lock_guard<std::mutex> lock(excMutex);
          if (!exc) {
            exc = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
        }
      }
      if (remainingChunks.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(doneMutex);
        doneCv.notify_all();
      }
    }
  }

  static void trampoline(void* self) {
    static_cast<ChunkJob*>(self)->runChunks();
  }
};

}  // namespace detail

/// Fixed-size thread pool. Construction spawns `threads` workers; tasks are
/// closures pushed to a shared queue. The parallel-for primitives block the
/// caller until the whole range is processed (the caller participates in
/// the work).
class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding callers of parallelFor).
  [[nodiscard]] std::size_t threadCount() const { return workers_.size(); }

  /// Execution lanes a parallel-for can occupy: workers + the caller.
  [[nodiscard]] index_t laneCount() const {
    return static_cast<index_t>(workers_.size()) + 1;
  }

  /// Runs fn(lo, hi) over contiguous chunks covering [begin, end),
  /// partitioned into `chunks` chunks (0 = mild over-decomposition of one
  /// chunk per lane x4). Blocks until complete; the caller participates.
  /// fn is invoked directly (no type erasure per index). Exceptions thrown
  /// by fn propagate to the caller (first one wins; remaining chunks are
  /// skipped).
  template <typename F>
  void parallelForChunked(index_t begin, index_t end, F&& fn,
                          index_t chunks = 0) {
    if (begin >= end) {
      return;
    }
    const index_t n = end - begin;
    if (chunks <= 0) {
      chunks = laneCount() * 4;  // absorb imbalance
    }
    chunks = std::min(chunks, n);

    using Fn = std::remove_reference_t<F>;
    detail::ChunkJob<Fn> job;
    job.totalChunks = chunks;
    job.remainingChunks.store(chunks, std::memory_order_relaxed);
    job.begin = begin;
    job.end = end;
    job.chunkSize = ceilDiv(n, chunks);
    job.fn = &fn;

    const index_t helperCount =
        std::min<index_t>(static_cast<index_t>(workers_.size()), chunks - 1);
    std::uint64_t id = kNoJob;
    if (helperCount > 0) {
      id = postHelpers(&detail::ChunkJob<Fn>::trampoline, &job, helperCount);
    }

    job.runChunks();

    if (id != kNoJob) {
      std::unique_lock<std::mutex> lock(job.doneMutex);
      job.doneCv.wait(lock, [&] {
        return job.remainingChunks.load(std::memory_order_acquire) == 0;
      });
      lock.unlock();
      retireJob(id);
    }
    if (job.exc) {
      std::rethrow_exception(job.exc);
    }
  }

  /// Runs fn(i) for i in [begin, end); legacy per-index form implemented
  /// on top of parallelForChunked.
  void parallelFor(index_t begin, index_t end,
                   const std::function<void(index_t)>& fn,
                   index_t chunks = 0);

  /// RAII lease of one persistent scratch arena. Returning the lease puts
  /// the arena (capacity intact) back on the pool's free list, so repeated
  /// kernel invocations reuse warmed-up buffers allocation-free.
  class ScratchLease {
   public:
    ScratchLease(ScratchLease&& o) noexcept : pool_(o.pool_), arena_(o.arena_) {
      o.pool_ = nullptr;
      o.arena_ = nullptr;
    }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    ScratchLease& operator=(ScratchLease&&) = delete;
    ~ScratchLease();

    [[nodiscard]] Arena& arena() { return *arena_; }

   private:
    friend class ThreadPool;
    ScratchLease(ThreadPool* pool, Arena* arena)
        : pool_(pool), arena_(arena) {}
    ThreadPool* pool_;
    Arena* arena_;
  };

  /// Leases a scratch arena; safe to call from concurrent kernel
  /// invocations (each caller gets a distinct arena).
  [[nodiscard]] ScratchLease scratch();

  /// Number of scratch arenas ever created by this pool (diagnostics).
  [[nodiscard]] std::size_t scratchArenaCount() const;

  /// Process-wide shared pool, sized from HPLMXP_THREADS or hardware
  /// concurrency. Kernels default to this instance.
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
  };

  /// One in-flight chunked job. Helpers are enqueued carrying only
  /// (slot, epoch); a stale helper that pops after the job retired sees a
  /// bumped epoch and returns without touching the caller's stack state.
  /// This also means a parallel-for never has to wait for queued-but-
  /// unstarted helpers (they may sit behind another caller's long-running
  /// chunks), so stack-allocated job state cannot deadlock the pool.
  struct JobSlot {
    std::atomic<bool> inUse{false};
    std::atomic<std::uint64_t> epoch{1};
    std::atomic<int> active{0};  // helpers currently inside run()
    void (*run)(void*) = nullptr;
    void* arg = nullptr;
  };
  static constexpr int kJobSlots = 64;
  static constexpr std::uint64_t kNoJob = ~std::uint64_t{0};

  void workerLoop();
  bool runOneTask(std::unique_lock<std::mutex>& lock);

  /// Claims a job slot and enqueues `count` helper tasks for it. Returns
  /// the packed (slot, epoch) id, or kNoJob when every slot is busy (the
  /// caller then just runs all chunks itself).
  std::uint64_t postHelpers(void (*run)(void*), void* arg, index_t count);

  /// Invalidates the job id and waits for helpers already inside run() to
  /// step out (bounded: all chunks are done by the time this is called).
  void retireJob(std::uint64_t id);

  /// Helper-task entry: revalidates (slot, epoch) before touching arg.
  void runJob(std::uint64_t id);

  void returnScratch(Arena* arena);

  // Pending-task ring (guarded by mutex_), sized once at construction.
  // Helper posting is best-effort and never grows it: a helper task is a
  // hint that directs a worker at a (slot, epoch), and once every worker
  // has been pointed at pending work, extra hints are redundant (workers
  // drain the ring in a loop; stale hints no-op). std::queue's deque would
  // instead allocate and free a node block every few dozen operations as
  // its cursor walks forward; keeping the steady state allocation-free is
  // what lets the zero-alloc GEMM regression test assert a strict zero.
  static constexpr std::size_t kTaskRingCapacity = 256;
  [[nodiscard]] bool queueEmpty() const { return ringCount_ == 0; }
  [[nodiscard]] bool queueFull() const { return ringCount_ == ring_.size(); }
  void queuePush(Task t);
  Task queuePop();

  std::vector<std::thread> workers_;
  std::vector<Task> ring_;
  std::size_t ringHead_ = 0;
  std::size_t ringCount_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;

  JobSlot slots_[kJobSlots];

  mutable std::mutex scratchMutex_;
  std::vector<std::unique_ptr<Arena>> scratchOwned_;
  std::vector<Arena*> scratchFree_;
};

}  // namespace hplmxp
