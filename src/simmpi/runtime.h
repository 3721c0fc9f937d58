// Launches a multi-rank program: one thread per rank, each receiving its
// world communicator. The functional analogue of `mpirun -np P`.
#pragma once

#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/comm.h"
#include "util/common.h"

namespace hplmxp::simmpi {

class FaultInjector;

/// One rank's failure inside run().
struct RankFailure {
  index_t rank = 0;
  std::string message;
};

/// Aggregate of every rank failure in one run() — at scale a single lost
/// rank cascades into timeouts on its peers, and diagnosing the root cause
/// needs the whole picture, not just whichever rank's exception happened
/// to be caught first.
class MultiRankError : public CheckError {
 public:
  explicit MultiRankError(std::vector<RankFailure> failures);
  /// Partition provenance: when the active fault plan dropped sends at a
  /// network partition, the aggregate says so — a wall of symmetric
  /// timeouts with no dead rank is otherwise the hardest cascade to read.
  MultiRankError(std::vector<RankFailure> failures,
                 index_t partitionBoundary, std::uint64_t partitionDrops);

  [[nodiscard]] const std::vector<RankFailure>& failures() const {
    return failures_;
  }
  /// True when the run's fault plan partitioned the grid and dropped at
  /// least one cross-boundary send.
  [[nodiscard]] bool partitioned() const { return partitionDrops_ > 0; }
  [[nodiscard]] index_t partitionBoundary() const {
    return partitionBoundary_;
  }
  [[nodiscard]] std::uint64_t partitionDrops() const {
    return partitionDrops_;
  }

 private:
  static std::string renderMessage(const std::vector<RankFailure>& failures,
                                   index_t partitionBoundary,
                                   std::uint64_t partitionDrops);

  std::vector<RankFailure> failures_;
  index_t partitionBoundary_ = -1;
  std::uint64_t partitionDrops_ = 0;
};

/// Optional robustness configuration for run(): fault injection (chaos
/// testing) and the comm-level timeout/retry policy applied to the world
/// communicator before any rank starts.
struct RunOptions {
  /// Deterministic fault injector (simmpi/faults.h); null runs clean.
  std::shared_ptr<FaultInjector> faults;
  /// Blocking-wait budget for recv/barrier/split; zero waits forever.
  std::chrono::milliseconds timeout{0};
  /// Transient-send retry budget and initial exponential backoff.
  int sendMaxRetries = 3;
  std::chrono::microseconds sendBackoff{50};
  /// Arms the world's crash-recovery replay log (comm.h) before any rank
  /// starts, so checkpoints can snapshot comm-op counters and crashed
  /// ranks can be resurrected (recovery.h).
  bool replayLog = false;
};

/// Runs `fn(world)` on `worldSize` concurrent ranks and joins them all.
/// Every rank's exception is collected: a single failure is rethrown with
/// its original type; multiple failures are aggregated into one
/// MultiRankError carrying per-rank messages. (Ranks blocked on a failed
/// peer hang unless a timeout is configured via RunOptions — with one,
/// they fail fast with CommTimeoutError and join the aggregate.)
void run(index_t worldSize, const std::function<void(Comm&)>& fn);
void run(index_t worldSize, const std::function<void(Comm&)>& fn,
         const RunOptions& options);

namespace detail {

/// The world one job runs in: `worldSize` ranks with `options`' timeout,
/// send retry, fault injector and replay log installed before any rank
/// starts. run() and RankGroup::runJob build every job's world with it.
[[nodiscard]] std::vector<Comm> makeJobWorld(index_t worldSize,
                                             const RunOptions& options);

/// Throws what run() throws for a joined job's per-rank outcomes (`rankExc`
/// holds one entry per rank, null for a rank that returned): nothing when
/// no rank failed, a single failure with its original type, and several
/// as one MultiRankError carrying the fault plan's seed, each failed
/// rank's op count and any partition drops.
void rethrowRankFailures(const std::vector<std::exception_ptr>& rankExc,
                         const RunOptions& options);

}  // namespace detail

/// Variant collecting a per-rank result.
template <typename R>
std::vector<R> runCollect(index_t worldSize,
                          const std::function<R(Comm&)>& fn) {
  std::vector<R> results(static_cast<std::size_t>(worldSize));
  run(worldSize, [&](Comm& comm) {
    results[static_cast<std::size_t>(comm.rank())] = fn(comm);
  });
  return results;
}

}  // namespace hplmxp::simmpi
