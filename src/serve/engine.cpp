#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "gen/matgen.h"
#include "util/logging.h"

namespace hplmxp::serve {

namespace {

/// Smallest wait a worker parks for while every queued request backs off;
/// guards against a zero-length wait_for spinning the lock.
constexpr double kMinBackoffWaitSeconds = 20e-6;

std::chrono::duration<double> secondsOf(double s) {
  return std::chrono::duration<double>(s);
}

/// SplitMix64 over (request id, attempt): the jitter source for retry
/// backoff. Deterministic so chaos runs replay exactly.
double jitter01(std::uint64_t id, std::uint64_t attempt) {
  std::uint64_t z = id * 0x9E3779B97F4A7C15ull + attempt + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

const RequestOutcome& ServeEngine::Handle::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
  return outcome_;
}

bool ServeEngine::Handle::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void ServeEngine::Handle::onDone(std::function<void()> callback) {
  bool already = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_) {
      already = true;  // fire below, outside the lock
    } else {
      onDone_ = std::move(callback);
    }
  }
  if (already && callback) {
    callback();
  }
}

void ServeEngine::Handle::finish(RequestOutcome outcome,
                                 std::vector<double> solution) {
  std::function<void()> callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    outcome_ = std::move(outcome);
    solution_ = std::move(solution);
    done_ = true;
    callback = std::move(onDone_);
  }
  cv_.notify_all();
  if (callback) {
    callback();
  }
}

ServeEngine::ServeEngine(ServeConfig config, ThreadPool* pool)
    : config_(std::move(config)),
      pool_(pool != nullptr ? pool : &ThreadPool::global()),
      cache_(config_.cacheBytes),
      breaker_(config_.breaker),
      queue_(config_.queueDepth),
      paused_(config_.startPaused) {
  HPLMXP_REQUIRE(config_.workers > 0, "serve engine needs >= 1 worker");
  HPLMXP_REQUIRE(config_.maxBatch > 0, "batch size must be positive");
  HPLMXP_REQUIRE(config_.maxRetries >= 0, "retry budget must be >= 0");
  HPLMXP_REQUIRE(config_.retryBackoffSeconds >= 0.0 &&
                     config_.retryBackoffMaxSeconds >= 0.0,
                 "retry backoff must be non-negative");
  HPLMXP_REQUIRE(config_.degradedOpenBreakers >= 0,
                 "degraded-mode threshold must be >= 0");
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (index_t lane = 0; lane < config_.workers; ++lane) {
    workers_.emplace_back([this, lane] { workerLoop(lane); });
  }
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
    handle->finish(std::move(outcome), {});
    return handle;
  }

  // Circuit breaker: a key with an open circuit is answered immediately
  // with a structured rejection — no queue slot, no worker time.
  if (config_.breaker.enabled && !breaker_.allow(request.key, submitNow)) {
    lock.unlock();
    outcome.status = RequestStatus::kRejectedCircuitOpen;
    outcome.error = "circuit open for key " + request.key.toString();
    outcome.totalSeconds = now() - submitNow;
    recorder_.record(outcome);
    handle->finish(std::move(outcome), {});
    return handle;
  }

  QueuedRequest qr;
  qr.request = request;
  qr.request.id = outcome.id;
  qr.submitSeconds = submitNow;
  double rel = request.deadlineSeconds > 0.0 ? request.deadlineSeconds
                                             : config_.defaultDeadlineSeconds;
  if (rel > 0.0 && degraded()) {
    // Degraded mode sheds deadline slack: while circuits are burning the
    // engine promises less and answers sooner.
    rel *= config_.degradedDeadlineScale;
  }
  qr.deadlineSeconds = rel > 0.0 ? submitNow + rel : 0.0;
  qr.handle = handle;

  if (!queue_.push(std::move(qr))) {
    lock.unlock();
    outcome.status = RequestStatus::kRejectedQueueFull;
    outcome.totalSeconds = now() - submitNow;
    recorder_.record(outcome);
    handle->finish(std::move(outcome), {});
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
  // Workers flush the queue (every admitted request reaches a terminal
  // status before its worker exits), so after the join nothing is
  // outstanding.
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
}

void ServeEngine::setServiceStretch(double stretch) {
  HPLMXP_REQUIRE(stretch >= 1.0, "service stretch must be >= 1.0");
  serviceStretch_.store(stretch, std::memory_order_relaxed);
}

bool ServeEngine::degraded() const {
  return config_.breaker.enabled && config_.degradedOpenBreakers > 0 &&
         breaker_.openCount() >= config_.degradedOpenBreakers;
}

double ServeEngine::retryBackoff(std::uint64_t id, index_t attempt) const {
  if (config_.retryBackoffSeconds <= 0.0) {
    return 0.0;
  }
  const double exp = static_cast<double>(
      std::uint64_t{1} << std::min<index_t>(attempt, 10));
  const double j = 0.5 + 0.5 * jitter01(id, static_cast<std::uint64_t>(attempt));
  return std::min(config_.retryBackoffSeconds * exp * j,
                  config_.retryBackoffMaxSeconds);
}

ServeReport ServeEngine::report() const {
  index_t peak = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    peak = queue_.peakDepth();
  }
  ServeReport r = recorder_.report(cache_.stats(), clock_.seconds(), peak);
  if (config_.chaos) {
    const simmpi::FaultStats s = config_.chaos->stats();
    r.injectedDelays = s.delays;
    r.injectedTransients = s.transientFailures;
  }
  if (config_.breaker.enabled) {
    r.breakerTrips = breaker_.trips();
    r.breakerRejections = breaker_.rejections();
    r.breakersOpen = breaker_.openCount();
    r.degraded = degraded();
  }
  return r;
}

void ServeEngine::workerLoop(index_t lane) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_ && queue_.empty()) {
      break;
    }
    if (paused_ || queue_.empty()) {
      cv_.wait(lock);
      continue;
    }
    // Work-conserving dispatch: an idle worker takes the oldest ready key
    // at once. Stop-flush ignores backoff eligibility: every admitted
    // request must terminate.
    const double t = now();
    double nextReady = 0.0;
    const ProblemKey* ready = stopping_
                                  ? queue_.oldestKey(nullptr)
                                  : queue_.readyKey(t, nullptr, &nextReady);
    if (ready == nullptr) {
      // Every queued request is backing off: sleep until the earliest one
      // matures; new arrivals notify.
      cv_.wait_for(lock, secondsOf(std::max(nextReady - t,
                                            kMinBackoffWaitSeconds)));
      continue;
    }
    const ProblemKey key = *ready;
    const index_t cap = degraded() ? 1 : config_.maxBatch;
    std::vector<QueuedRequest> batch =
        stopping_ ? queue_.take(key, cap) : queue_.take(key, cap, t);
    lock.unlock();
    executeBatch(lane, key, std::move(batch));
    lock.lock();
  }
}

void ServeEngine::finishRequest(QueuedRequest& qr, RequestOutcome outcome,
                                std::vector<double> solution) {
  recorder_.record(outcome);
  std::static_pointer_cast<Handle>(qr.handle)->finish(std::move(outcome),
                                                      std::move(solution));
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    idle = --outstanding_ == 0;
  }
  if (idle) {
    idleCv_.notify_all();
  }
}

void ServeEngine::executeBatch(index_t lane, const ProblemKey& key,
                               std::vector<QueuedRequest> batch) {
  const double pickup = now();

  // One chaos draw per execution attempt, the worker lane standing in for
  // the rank. Delays are *survived* (slept through, then deadlines
  // re-checked); transient failures turn into bounded requeues.
  bool transient = false;
  if (config_.chaos) {
    const simmpi::FaultDecision d = config_.chaos->next(lane);
    if (d.delayMicros > 0) {
      config_.chaos->noteDelay();
      std::this_thread::sleep_for(std::chrono::microseconds(d.delayMicros));
    }
    transient = d.transientSendFailure;
  }

  // Deadline check after any injected delay: expired requests are
  // answered as rejected, never hung.
  auto expireOverdue = [&](std::vector<QueuedRequest>& reqs,
                           double factorSeconds) {
    const double t = now();
    std::vector<QueuedRequest> live;
    live.reserve(reqs.size());
    for (QueuedRequest& qr : reqs) {
      if (qr.deadlineSeconds > 0.0 && t > qr.deadlineSeconds) {
        RequestOutcome o;
        o.id = qr.request.id;
        o.key = qr.request.key;
        o.rhsSeed = qr.request.rhsSeed;
        o.status = RequestStatus::kRejectedDeadline;
        o.queueWaitSeconds = pickup - qr.submitSeconds;
        o.factorSeconds = factorSeconds;
        o.totalSeconds = t - qr.submitSeconds;
        o.retries = qr.retries;
        finishRequest(qr, std::move(o), {});
      } else {
        live.push_back(std::move(qr));
      }
    }
    reqs = std::move(live);
  };
  expireOverdue(batch, 0.0);
  if (batch.empty()) {
    return;
  }

  // Transient fault: requeue the whole batch within each request's retry
  // budget; past it, fail with a structured outcome.
  auto requeueOrFail = [&](std::vector<QueuedRequest>& reqs,
                           const std::string& why) {
    bool requeued = false;
    for (QueuedRequest& qr : reqs) {
      if (qr.retries >= config_.maxRetries) {
        RequestOutcome o;
        o.id = qr.request.id;
        o.key = qr.request.key;
        o.rhsSeed = qr.request.rhsSeed;
        o.status = RequestStatus::kFailed;
        o.error = why + " (retry budget of " +
                  std::to_string(config_.maxRetries) + " exhausted)";
        o.queueWaitSeconds = pickup - qr.submitSeconds;
        o.totalSeconds = now() - qr.submitSeconds;
        o.retries = qr.retries;
        finishRequest(qr, std::move(o), {});
      } else {
        ++qr.retries;
        // Jittered exponential backoff keeps a retry storm from hammering
        // the same key back-to-back; 0 base keeps the legacy behavior.
        qr.notBeforeSeconds =
            now() + retryBackoff(qr.request.id, qr.retries);
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.pushRetry(std::move(qr));
        requeued = true;
      }
    }
    if (requeued) {
      cv_.notify_all();
    }
  };
  if (transient) {
    // Lane-attributed chaos, not a property of the key — retried without
    // feeding the per-key breaker.
    config_.chaos->noteTransient();
    requeueOrFail(batch, "injected transient fault");
    return;
  }

  // Key-attributed fault hook (tests/benches): a poisoned key fails every
  // execution attempt, flows through the retry path, and feeds the
  // breaker so persistent failure eventually trips the circuit.
  if (config_.keyFaultHook && config_.keyFaultHook(key)) {
    if (config_.breaker.enabled) {
      breaker_.onFailure(key, now());
    }
    requeueOrFail(batch, "injected key fault");
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

    // Feed the breaker BEFORE publishing outcomes: a client that saw its
    // half-open probe complete must find the circuit closed, not still
    // holding the probe slot.
    if (config_.breaker.enabled) {
      breaker_.onSuccess(key);
    }

    const double done = now();
    for (std::size_t c = 0; c < batch.size(); ++c) {
      QueuedRequest& qr = batch[c];
      const SolveManyColumn& col = res.columns[c];
      RequestOutcome o;
      o.id = qr.request.id;
      o.key = qr.request.key;
      o.rhsSeed = qr.request.rhsSeed;
      o.status = RequestStatus::kCompleted;
      o.queueWaitSeconds = pickup - qr.submitSeconds;
      o.factorSeconds = fetch.factorSeconds;
      o.solveSeconds = res.solveSeconds;
      o.totalSeconds = done - qr.submitSeconds;
      o.cacheHit = fetch.hit;
      o.batchSize = static_cast<index_t>(batch.size());
      o.irIterations = col.irIterations;
      o.converged = col.converged;
      o.residualInf = col.residualInf;
      o.retries = qr.retries;
      finishRequest(qr, std::move(o), std::move(xs[c]));
    }
  } catch (const std::exception& e) {
    // Worker-side failures (including chaos-injected ones surfacing as
    // exceptions) follow the same bounded-retry path as transients.
    logWarn("serve worker ", lane, ": batch for ", key.toString(),
            " failed: ", e.what());
    if (config_.breaker.enabled) {
      breaker_.onFailure(key, now());
    }
    requeueOrFail(batch, std::string("solver error: ") + e.what());
  }
}

}  // namespace hplmxp::serve
