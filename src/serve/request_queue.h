// Bounded, admission-controlled store of pending solve requests.
//
// Admission control is the backpressure half of the serving contract:
// when the pending depth reaches the bound, new requests are rejected
// immediately (kRejectedQueueFull) instead of growing an unbounded queue
// whose tail latency no deadline could honor. Within the bound, requests
// are bucketed per ProblemKey in FIFO order so a worker that frees up can
// take a key's queued requests as one batch without reordering any single
// key's stream.
//
// The queue is a passive, lock-protected structure; blocking/wakeup
// policy lives in the ServeEngine, which pairs it with a condition
// variable.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "serve/request.h"
#include "util/common.h"

namespace hplmxp::serve {

/// A request plus its bookkeeping while queued. `submitSeconds` is the
/// engine-clock submission instant; deadlines are enforced against it.
struct QueuedRequest {
  SolveRequest request;
  double submitSeconds = 0.0;
  double deadlineSeconds = 0.0;  // absolute engine-clock instant; 0 = none
  /// Earliest engine-clock instant a retry may be dispatched (jittered
  /// exponential backoff); 0 = immediately eligible.
  double notBeforeSeconds = 0.0;
  index_t retries = 0;
  std::shared_ptr<void> handle;  // engine's per-request completion handle
};

class RequestQueue {
 public:
  explicit RequestQueue(index_t maxDepth);

  /// Admits or rejects one request. Returns false (and does not enqueue)
  /// when the queue is at its depth bound.
  bool push(QueuedRequest qr);

  /// Re-admits a request that failed transiently. Requeues bypass the
  /// depth bound: the request was already admitted once and rejecting it
  /// now would turn a retryable fault into a spurious drop.
  void pushRetry(QueuedRequest qr);

  /// Key of the oldest pending request, or nullptr when empty. `ageOut`
  /// receives that request's submission instant. Ignores retry-backoff
  /// eligibility (equivalent to readyKey at time infinity).
  [[nodiscard]] const ProblemKey* oldestKey(double* ageOut) const;

  /// Key of the oldest request whose backoff window has elapsed by `now`,
  /// or nullptr. Buckets stay FIFO: a bucket whose front is still backing
  /// off is not ready, even if later entries are (per-key order is part of
  /// the serving contract). When nothing is ready but requests are
  /// pending, `nextReadyOut` (if non-null) receives the earliest instant
  /// a front becomes eligible, so the caller can sleep exactly that long.
  [[nodiscard]] const ProblemKey* readyKey(double now, double* ageOut,
                                           double* nextReadyOut) const;

  /// Removes and returns up to `maxBatch` requests for `key` in FIFO
  /// order, stopping at the first entry still backing off at `now` (pass
  /// no `now` to ignore eligibility).
  std::vector<QueuedRequest> take(const ProblemKey& key, index_t maxBatch);
  std::vector<QueuedRequest> take(const ProblemKey& key, index_t maxBatch,
                                  double now);

  [[nodiscard]] index_t depth() const { return depth_; }
  [[nodiscard]] bool empty() const { return depth_ == 0; }
  [[nodiscard]] index_t peakDepth() const { return peakDepth_; }
  [[nodiscard]] std::uint64_t rejectedFull() const { return rejectedFull_; }

 private:
  index_t maxDepth_;
  index_t depth_ = 0;
  index_t peakDepth_ = 0;
  std::uint64_t rejectedFull_ = 0;
  std::map<ProblemKey, std::deque<QueuedRequest>> buckets_;
};

}  // namespace hplmxp::serve
