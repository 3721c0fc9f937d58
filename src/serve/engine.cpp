#include "serve/engine.h"

#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "gen/matgen.h"
#include "util/logging.h"

namespace hplmxp::serve {

ServeEngine::ServeEngine(ServeConfig config, ThreadPool* pool)
    : config_(std::move(config)),
      pool_(pool != nullptr ? pool : &ThreadPool::global()),
      cache_(config_.cacheBytes),
      queue_(config_.queueDepth),
      paused_(config_.startPaused) {
  HPLMXP_REQUIRE(config_.workers == 1,
                 "a serve engine runs one worker; scale with fleet shards");
  HPLMXP_REQUIRE(config_.maxBatch > 0, "batch size must be positive");
  worker_ = std::thread([this] { workerLoop(); });
}

ServeEngine::~ServeEngine() { stop(); }

ServeEngine::HandlePtr ServeEngine::submit(const SolveRequest& request) {
  auto handle = std::make_shared<Handle>();
  const double submitNow = now();

  RequestOutcome outcome;
  outcome.key = request.key;
  outcome.rhsSeed = request.rhsSeed;

  std::unique_lock<std::mutex> lock(mutex_);
  outcome.id = request.id != 0 ? request.id : nextAutoId_++;

  // Admission: keys the single-device backend cannot serve fail fast with
  // a structured outcome instead of surfacing a worker-side exception.
  std::string reject;
  if (stopping_) {
    reject = "engine is stopping";
  } else if (request.key.pr != 1 || request.key.pc != 1) {
    reject = "single-device serve backend only accepts 1x1 process grids";
  } else if (request.key.n <= 0 || request.key.b <= 0 ||
             request.key.b > request.key.n) {
    reject = "invalid problem shape: n=" + std::to_string(request.key.n) +
             " b=" + std::to_string(request.key.b);
  }
  if (!reject.empty()) {
    lock.unlock();
    outcome.status = RequestStatus::kFailed;
    outcome.error = std::move(reject);
    recorder_.record(outcome);
    handle->publish(std::move(outcome), {});
    return handle;
  }

  QueuedRequest qr;
  qr.request = request;
  qr.request.id = outcome.id;
  qr.submitSeconds = submitNow;
  const double rel = request.deadlineSeconds > 0.0
                         ? request.deadlineSeconds
                         : config_.defaultDeadlineSeconds;
  qr.deadlineSeconds = rel > 0.0 ? submitNow + rel : 0.0;
  qr.handle = handle;

  if (!queue_.push(request.key, std::move(qr))) {
    lock.unlock();
    outcome.status = RequestStatus::kRejectedQueueFull;
    outcome.totalSeconds = now() - submitNow;
    recorder_.record(outcome);
    handle->publish(std::move(outcome), {});
    return handle;
  }
  ++outstanding_;
  lock.unlock();
  cv_.notify_one();
  return handle;
}

void ServeEngine::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void ServeEngine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  HPLMXP_REQUIRE(!paused_, "drain() on a paused engine would never return");
  idleCv_.wait(lock, [&] { return outstanding_ == 0; });
}

void ServeEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  // The worker flushes the queue (every admitted request reaches a
  // terminal status before it exits), so after the join nothing is
  // outstanding.
  if (worker_.joinable()) {
    worker_.join();
  }
}

void ServeEngine::setServiceStretch(double stretch) {
  HPLMXP_REQUIRE(stretch >= 1.0, "service stretch must be >= 1.0");
  serviceStretch_.store(stretch, std::memory_order_relaxed);
}

ServeReport ServeEngine::report() const {
  index_t peak = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    peak = queue_.peakDepth();
  }
  return recorder_.report(cache_.stats(), clock_.seconds(), peak);
}

void ServeEngine::workerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_ && queue_.empty()) {
      break;
    }
    if (paused_ || queue_.empty()) {
      cv_.wait(lock);
      continue;
    }
    // Work-conserving dispatch: the idle worker takes the oldest key at
    // once. The stop flush runs through here too, so every admitted
    // request terminates before the worker exits.
    auto batch = queue_.popOldest(config_.maxBatch);
    lock.unlock();
    executeBatch(batch->key, std::move(batch->items));
    lock.lock();
  }
}

void ServeEngine::finishRequest(QueuedRequest& qr, RequestOutcome outcome,
                                std::vector<double> solution) {
  recorder_.record(outcome);
  qr.handle->publish(std::move(outcome), std::move(solution));
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    idle = --outstanding_ == 0;
  }
  if (idle) {
    idleCv_.notify_all();
  }
}

void ServeEngine::executeBatch(const ProblemKey& key,
                               std::vector<QueuedRequest> batch) {
  const double pickup = now();
  // The fields every answer of this batch fills the same way.
  auto outcomeOf = [&](const QueuedRequest& qr, RequestStatus status,
                       double t) {
    RequestOutcome o;
    o.id = qr.request.id;
    o.key = qr.request.key;
    o.rhsSeed = qr.request.rhsSeed;
    o.status = status;
    o.queueWaitSeconds = pickup - qr.submitSeconds;
    o.totalSeconds = t - qr.submitSeconds;
    return o;
  };

  // Expired requests are answered as rejected, never hung.
  auto expireOverdue = [&](std::vector<QueuedRequest>& reqs,
                           double factorSeconds) {
    const double t = now();
    std::vector<QueuedRequest> live;
    live.reserve(reqs.size());
    for (QueuedRequest& qr : reqs) {
      if (qr.deadlineSeconds > 0.0 && t > qr.deadlineSeconds) {
        RequestOutcome o =
            outcomeOf(qr, RequestStatus::kRejectedDeadline, t);
        o.factorSeconds = factorSeconds;
        finishRequest(qr, std::move(o), {});
      } else {
        live.push_back(std::move(qr));
      }
    }
    reqs = std::move(live);
  };
  expireOverdue(batch, 0.0);  // at pick-up
  if (batch.empty()) {
    return;
  }

  try {
    const FactorCache::Fetch fetch = cache_.getOrFactor(key, [&] {
      if (config_.factorOverride) {
        return config_.factorOverride(key);
      }
      ProblemGenerator gen(key.seed, key.n);
      return factorStorageSingle(gen, key.b, config_.vendor, key.precision);
    });

    // A cold factorization can be the slowest step by far; late requests
    // are rejected here rather than solved past their deadline.
    expireOverdue(batch, fetch.factorSeconds);
    if (batch.empty()) {
      return;
    }

    std::vector<std::uint64_t> rhsSeeds;
    rhsSeeds.reserve(batch.size());
    for (const QueuedRequest& qr : batch) {
      rhsSeeds.push_back(qr.request.rhsSeed);
    }
    std::vector<std::vector<double>> xs;
    ProblemGenerator gen(key.seed, key.n);
    SolveManyResult res = solveManyMixedSingle(
        *fetch.factors, gen, rhsSeeds, xs, config_.maxIrIterations, pool_);
    recorder_.recordBatch(static_cast<index_t>(batch.size()));

    // Gray-fault hook: a slow-but-alive shard serves correct answers, just
    // `stretch` times later. Applied after the real solve so the result is
    // untouched and the stretch shows up purely as service time.
    const double stretch = serviceStretch_.load(std::memory_order_relaxed);
    if (stretch > 1.0) {
      const double extra = res.solveSeconds * (stretch - 1.0);
      std::this_thread::sleep_for(std::chrono::duration<double>(extra));
      res.solveSeconds *= stretch;
    }

    const double done = now();
    for (std::size_t c = 0; c < batch.size(); ++c) {
      const SolveManyColumn& col = res.columns[c];
      RequestOutcome o =
          outcomeOf(batch[c], RequestStatus::kCompleted, done);
      o.factorSeconds = fetch.factorSeconds;
      o.solveSeconds = res.solveSeconds;
      o.cacheHit = fetch.hit;
      o.batchSize = static_cast<index_t>(batch.size());
      o.irIterations = col.irIterations;
      o.converged = col.converged;
      o.residualInf = col.residualInf;
      finishRequest(batch[c], std::move(o), std::move(xs[c]));
    }
  } catch (const std::exception& e) {
    // A failed batch is answered once: a retry would fail the same way on
    // the same shard, and re-routing belongs to the fleet.
    logWarn("serve worker: batch for ", key.toString(), " failed: ",
            e.what());
    const double t = now();
    for (QueuedRequest& qr : batch) {
      RequestOutcome o = outcomeOf(qr, RequestStatus::kFailed, t);
      o.error = std::string("solver error: ") + e.what();
      finishRequest(qr, std::move(o), {});
    }
  }
}

}  // namespace hplmxp::serve
