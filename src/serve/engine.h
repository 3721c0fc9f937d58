// Solver-as-a-service engine: factor cache + request batching + batched
// multi-RHS iterative refinement behind a submit()/wait() interface.
//
// Architecture (one box per module):
//
//   submit() ──admission──▶ RequestQueue ──oldestKey──▶ idle worker loop
//                │ reject: queue full /                      │ oldest key,
//                ▼ unservable key                            ▼ <= maxBatch
//           Handle(done)                          FactorCache.getOrFactor
//                                                 (single-flight, LRU)
//                                                            │
//                                                 solveManyMixedSingle
//                                                 (blocked multi-RHS IR)
//                                                            │
//                                                 Handle(done) + metrics
//
// Dispatch is work-conserving: an idle worker takes the key of the oldest
// queued request at once, with up to `maxBatch` requests of that key. A
// batch therefore holds more than one column only when requests queued
// while every worker was busy; nobody waits on an idle worker for
// batch-mates. Batching never changes answers (each column is bitwise a
// k=1 solve), only how many refinements share one pass over the factors.
//
// Worker loops run on dedicated std::threads owned by the engine — NOT as
// ThreadPool::enqueue tasks, because the pool spawns lanes-1 worker
// threads and on a single-lane machine a fire-and-forget task would never
// be popped (the caller is the only lane). Solver kernels invoked inside a
// worker still ride the shared ThreadPool through its caller-participates
// parallel-for, so a dispatcher thread is itself a full execution lane and
// the engine is deadlock-free at any pool width. A worker executes its
// batches inline and never blocks on another worker except through the
// factor cache's single-flight wait, which is bounded by one
// factorization.
//
// Chaos: an optional simmpi::FaultInjector (the PR-1 chaos harness) is
// consulted once per batch execution attempt, with the worker's lane index
// standing in for the rank. Injected delays surface as longer service
// times — and deadline *rejections* once the budget is gone. A failed
// batch (an injected transient fault or a solver exception) is requeued at
// once within each request's `maxRetries`; past that budget the request
// is answered kFailed. Never hangs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "device/device.h"
#include "serve/factor_cache.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "simmpi/faults.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hplmxp::serve {

struct ServeConfig {
  std::size_t cacheBytes = std::size_t{64} << 20;  // factor-cache budget
  index_t queueDepth = 64;       // admission bound (backpressure)
  index_t maxBatch = 8;          // RHS columns per coalesced solve
  double defaultDeadlineSeconds = 0.0;  // request deadline when unset; 0 = none
  index_t workers = 1;           // concurrent worker loops on the pool
  index_t maxRetries = 2;        // per-request retry budget under chaos
  index_t maxIrIterations = 50;
  Vendor vendor = Vendor::kAmd;
  bool startPaused = false;      // hold dispatch until resume() (tests)
  /// Optional chaos injector; lanes are addressed as ranks 0..workers-1.
  std::shared_ptr<simmpi::FaultInjector> chaos;

  /// When set, cache misses run this instead of the built-in single-device
  /// factorization. The fleet tier points it at the shard's factor job,
  /// which reports to shard health and fails on a crashed shard. Must
  /// produce a Factorization for exactly the given key; exceptions flow
  /// through the normal bounded-retry path.
  std::function<Factorization(const ProblemKey&)> factorOverride;
};

class ServeEngine {
 public:
  /// Completion handle of one submitted request. wait() blocks until the
  /// request reaches a terminal status. For completed requests `solution`
  /// holds the refined x.
  class Handle {
   public:
    const RequestOutcome& wait();
    [[nodiscard]] bool done() const;
    /// Valid after wait() returns kCompleted.
    [[nodiscard]] const std::vector<double>& solution() const {
      return solution_;
    }
    /// Terminal outcome; valid once done() is true.
    [[nodiscard]] const RequestOutcome& outcome() const { return outcome_; }

    /// Registers a completion callback, invoked exactly once when the
    /// request reaches a terminal status — immediately if it already has
    /// (submit() returns terminal handles for admission rejections). The
    /// callback runs on the finishing thread (or the caller, for the
    /// already-done case) with no engine lock held; the fleet router uses
    /// it to fail requests over between shards without a thread per
    /// request. One callback per handle.
    void onDone(std::function<void()> callback);

   private:
    friend class ServeEngine;
    void finish(RequestOutcome outcome, std::vector<double> solution);
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
    RequestOutcome outcome_;
    std::vector<double> solution_;
    std::function<void()> onDone_;
  };
  using HandlePtr = std::shared_ptr<Handle>;

  /// `pool` defaults to ThreadPool::global(); solver kernels inside the
  /// engine's own dispatcher threads ride it.
  explicit ServeEngine(ServeConfig config, ThreadPool* pool = nullptr);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Admits one request. The returned handle is already terminal for
  /// admission rejections (queue full, a stopping engine, or a key the
  /// single-device backend cannot serve). Deadlines are not checked here:
  /// a worker checks them at pick-up, after any injected delay, and again
  /// after a cold factorization.
  HandlePtr submit(const SolveRequest& request);

  /// Releases a paused engine's workers (ServeConfig::startPaused).
  void resume();

  /// Blocks until every admitted request has reached a terminal status.
  void drain();

  /// Graceful stop: drains pending work, then parks the workers. Called
  /// by the destructor.
  void stop();

  [[nodiscard]] ServeReport report() const;
  [[nodiscard]] const FactorCache& cache() const { return cache_; }
  /// Fleet hook for a crash: a crashed shard loses its resident factors.
  void clearCache() { cache_.clear(); }
  /// Gray-fault hook: stretches every batch's service time by `stretch`
  /// (sleeping the extra (stretch-1)x after the solve) WITHOUT failing
  /// anything — the slow-but-alive shard the fleet's phi detector and
  /// hedging are tested against. 1.0 restores full speed.
  void setServiceStretch(double stretch);
  [[nodiscard]] std::vector<RequestOutcome> outcomes() const {
    return recorder_.outcomes();
  }

 private:
  void workerLoop(index_t lane);
  void executeBatch(index_t lane, const ProblemKey& key,
                    std::vector<QueuedRequest> batch);
  void finishRequest(QueuedRequest& qr, RequestOutcome outcome,
                     std::vector<double> solution);
  [[nodiscard]] double now() const { return clock_.seconds(); }

  ServeConfig config_;
  ThreadPool* pool_;
  std::atomic<double> serviceStretch_{1.0};
  FactorCache cache_;
  LatencyRecorder recorder_;
  Timer clock_;  // engine-relative monotonic clock

  mutable std::mutex mutex_;
  std::condition_variable cv_;        // workers: work available / stop
  std::condition_variable idleCv_;    // drain()/stop(): outstanding == 0
  RequestQueue queue_;
  bool paused_ = false;
  bool stopping_ = false;
  index_t outstanding_ = 0;  // admitted, not yet terminal
  std::uint64_t nextAutoId_ = 1;
  std::vector<std::thread> workers_;  // dispatcher threads
};

}  // namespace hplmxp::serve
