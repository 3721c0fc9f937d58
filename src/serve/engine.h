// Solver-as-a-service engine: factor cache + request batching + batched
// multi-RHS iterative refinement behind a submit()/wait() interface.
//
// Architecture (one box per module):
//
//   submit() ──admission──▶ RequestQueue ──popOldest──▶ idle worker loop
//                │ reject: queue full /                      │ oldest key,
//                ▼ unservable key                            ▼ <= maxBatch
//           Handle(done)                          FactorCache.getOrFactor
//                                                 (one caller, CachePolicy)
//                                                            │
//                                                 solveManyMixedSingle
//                                                 (blocked multi-RHS IR)
//                                                            │
//                                                 Handle(done) + metrics
//
// An engine is one lane: one worker runs one batch at a time, which is
// the lane fleetsim models for each shard. A fleet scales by shards, not
// by workers per engine.
//
// Dispatch is work-conserving: the idle worker takes the key whose head
// the queue admitted first, at once, with up to `maxBatch` requests of
// that key (RequestQueue::popOldest, the pick-up rule fleetsim's shards
// run). A batch therefore holds more than one column only when requests
// queued while the worker was busy; nobody waits on an idle worker for
// batch-mates. Batching never changes answers (each column is bitwise a
// k=1 solve), only how many refinements share one pass over the factors.
//
// The worker loop runs on a dedicated std::thread owned by the engine —
// NOT as a ThreadPool::enqueue task, because the pool spawns lanes-1
// worker threads and on a single-lane machine a fire-and-forget task
// would never be popped (the caller is the only lane). Solver kernels
// invoked inside the worker still ride the shared ThreadPool through its
// caller-participates parallel-for, so the worker thread is itself a full
// execution lane and the engine is deadlock-free at any pool width.
//
// Failure has one path: a failed batch (a solver exception, or a factor
// job on a crashed fleet shard) answers every request in it kFailed once,
// carrying the error. The engine runs no batch twice: it would fail the
// same way on the same shard, so re-routing is the fleet's job, under the
// request's one fleet-wide deadline. Deadlines are checked at pick-up and
// again after a cold factorization; a late request is answered rejected,
// never hung.
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
#include "serve/handle.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hplmxp::serve {

struct ServeConfig {
  std::size_t cacheBytes = std::size_t{64} << 20;  // factor-cache budget
  index_t queueDepth = 64;       // admission bound (backpressure)
  index_t maxBatch = 8;          // RHS columns per coalesced solve
  double defaultDeadlineSeconds = 0.0;  // request deadline when unset; 0 = none
  /// Must be 1: an engine runs one worker thread. perfbench's serve_zipf
  /// still assigns and reports it, so the name stays until the benchmark
  /// change of ROADMAP item 9 deletes it, with FleetConfig::groupSize.
  index_t workers = 1;
  index_t maxIrIterations = 50;
  Vendor vendor = Vendor::kAmd;
  bool startPaused = false;      // hold dispatch until resume() (tests)

  /// When set, cache misses run this instead of the built-in single-device
  /// factorization. The fleet tier points it at the shard's factor job,
  /// which reports to shard health and fails on a crashed shard. Must
  /// produce a Factorization for exactly the given key; an exception
  /// fails the batch.
  std::function<Factorization(const ProblemKey&)> factorOverride;
};

class ServeEngine {
 public:
  /// Completion handle of one submitted request (serve/handle.h).
  using Handle = serve::Handle;
  using HandlePtr = serve::HandlePtr;

  /// `pool` defaults to ThreadPool::global(); solver kernels inside the
  /// engine's own worker thread ride it.
  explicit ServeEngine(ServeConfig config, ThreadPool* pool = nullptr);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Admits one request. The returned handle is already terminal for
  /// admission rejections (queue full, a stopping engine, or a key the
  /// single-device backend cannot serve). Deadlines are not checked here:
  /// the worker checks them at pick-up and again after a cold
  /// factorization.
  HandlePtr submit(const SolveRequest& request);

  /// Releases a paused engine's worker (ServeConfig::startPaused).
  void resume();

  /// Blocks until every admitted request has reached a terminal status.
  void drain();

  /// Graceful stop: drains pending work, then joins the worker. Called by
  /// the destructor.
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

 private:
  /// A request plus its bookkeeping while queued. `submitSeconds` is the
  /// engine-clock submission instant; deadlines are enforced against it.
  struct QueuedRequest {
    SolveRequest request;
    double submitSeconds = 0.0;
    double deadlineSeconds = 0.0;  // absolute engine-clock instant; 0 = none
    HandlePtr handle;
  };

  void workerLoop();
  void executeBatch(const ProblemKey& key, std::vector<QueuedRequest> batch);
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
  std::condition_variable cv_;        // worker: work available / stop
  std::condition_variable idleCv_;    // drain()/stop(): outstanding == 0
  RequestQueue<ProblemKey, QueuedRequest> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  index_t outstanding_ = 0;  // admitted, not yet terminal
  std::uint64_t nextAutoId_ = 1;
  std::thread worker_;  // last: it runs on every member above
};

}  // namespace hplmxp::serve
