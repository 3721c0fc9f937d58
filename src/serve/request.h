// Solve request and outcome types of the serving subsystem.
#pragma once

#include <cstdint>
#include <string>

#include "serve/problem_key.h"
#include "util/common.h"

namespace hplmxp::serve {

/// One inbound solve request: "refine the rhs stream of rhsSeed against
/// the factorization of `key`". Deadlines are relative to submission;
/// 0 inherits the engine default (and a 0 default means no deadline).
struct SolveRequest {
  std::uint64_t id = 0;
  ProblemKey key;
  std::uint64_t rhsSeed = 0;
  double deadlineSeconds = 0.0;
};

/// Terminal states of a request. Admission control rejects before any
/// work happens (kRejectedQueueFull); deadline rejections happen at batch
/// pick-up or after a slow factorization, and in a fleet before a failover
/// that has no budget left — the contract is that a late request is
/// *answered* late-as-rejected, never silently hung. A failed batch
/// answers each of its requests kFailed once, with the error.
enum class RequestStatus {
  kPending,
  kCompleted,
  kRejectedQueueFull,
  kRejectedDeadline,
  kFailed,
};

[[nodiscard]] constexpr const char* toString(RequestStatus s) {
  switch (s) {
    case RequestStatus::kPending: return "pending";
    case RequestStatus::kCompleted: return "completed";
    case RequestStatus::kRejectedQueueFull: return "rejected-queue-full";
    case RequestStatus::kRejectedDeadline: return "rejected-deadline";
    case RequestStatus::kFailed: return "failed";
  }
  return "?";
}

/// What happened to one request, with the latency split the report
/// percentiles are computed from: queue wait (submission to batch pickup)
/// vs. service time (factor + batched solve).
struct RequestOutcome {
  std::uint64_t id = 0;
  ProblemKey key;
  std::uint64_t rhsSeed = 0;
  RequestStatus status = RequestStatus::kPending;

  double queueWaitSeconds = 0.0;
  double factorSeconds = 0.0;  // 0 on a cache hit
  double solveSeconds = 0.0;
  double totalSeconds = 0.0;  // submission to completion/rejection

  bool cacheHit = false;
  index_t batchSize = 0;  // columns in the coalesced solve that served it
  index_t irIterations = 0;
  bool converged = false;
  double residualInf = 0.0;
  index_t shard = -1;   // serving shard in a fleet; -1 single-engine
  index_t failovers = 0;  // fleet re-routes after a shard-side failure
  bool hedged = false;    // answered by a speculative fleet re-issue
  std::string error;
};

}  // namespace hplmxp::serve
