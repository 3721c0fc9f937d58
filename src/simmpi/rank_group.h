// Persistent identity for a group of simmpi ranks across repeated jobs.
//
// A RankGroup owns its rank threads: the constructor launches one per
// rank and binds it to that rank for fault attribution; the threads park
// between jobs and the destructor joins them. Each job is still its own
// world, built as simmpi::run builds one (fresh communicators under the
// group's timeout, send retry, fault injector and replay log), and a
// failed job throws what run() would. On top of that the group adds a
// stable id, a generation counter, crash latching, and restart — the
// lifecycle a serve-fleet shard needs so "this shard's grid died" and
// "ops resurrected it" are states, not just exceptions. Groups share no
// state, so any number of them run jobs concurrently — tests/test_fleet.cpp
// proves the non-interference.
//
// Jobs on one group are serialized (one grid, one program at a time);
// different groups proceed independently. A job failing with a crash-type
// error (InjectedCrashError on a rank, or a MultiRankError containing
// one) marks the group dead: further runJob calls fail fast with
// GroupDownError until restart(), which bumps the generation and rearms.
// An injected crash is an exception its rank thread catches, so the
// threads survive it and restart() launches none.
#pragma once

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "simmpi/runtime.h"
#include "util/common.h"

namespace hplmxp::simmpi {

/// Thrown by runJob on a group whose grid has crashed and has not been
/// restarted. Callers (the fleet router) treat it as "shard down".
class GroupDownError : public CheckError {
 public:
  explicit GroupDownError(const std::string& msg) : CheckError(msg) {}
};

class RankGroup {
 public:
  struct Stats {
    std::uint64_t jobs = 0;      // jobs attempted (including failed ones)
    std::uint64_t failures = 0;  // jobs that threw
    std::uint64_t crashes = 0;   // failures that took the grid down
    index_t generation = 1;      // bumped by every restart()
    bool alive = true;
  };

  /// Launches the group's `size` rank threads.
  RankGroup(index_t groupId, index_t size, RunOptions options = {});
  /// Stops and joins the rank threads. No job may be running.
  ~RankGroup();
  RankGroup(const RankGroup&) = delete;
  RankGroup& operator=(const RankGroup&) = delete;

  [[nodiscard]] index_t id() const { return id_; }
  [[nodiscard]] index_t size() const { return size_; }
  [[nodiscard]] bool alive() const;
  [[nodiscard]] index_t generation() const;
  [[nodiscard]] Stats stats() const;

  /// Runs `fn` as one group job: a fresh world under this group's options,
  /// run on the group's rank threads and joined, with failures thrown as
  /// simmpi::run throws them. Serialized per group. Throws GroupDownError
  /// if the group is dead; otherwise job exceptions propagate after being
  /// tallied, and a crash-type failure additionally marks the group dead.
  void runJob(const std::function<void(Comm&)>& fn);

  /// Arms a fault injector for subsequent jobs (replaces any current one).
  void setFaults(std::shared_ptr<FaultInjector> faults);

  /// Forces the group dead without a job failure (ops-initiated kill; the
  /// fleet crash chaos hook). In-flight jobs finish, new ones fail fast.
  void kill(const std::string& reason);

  /// Resurrects a dead group: new generation, cleared fault injector
  /// (the scheduled crash already fired), alive again. No-op when alive.
  /// The rank threads are the same ones.
  void restart();

 private:
  void rankLoop(index_t rank);
  void stopThreads();

  const index_t id_;
  const index_t size_;
  mutable std::mutex mutex_;  // guards options_/stats_ between jobs
  std::mutex jobMutex_;       // serializes runJob
  RunOptions options_;
  Stats stats_;

  // The job handed to the rank threads, guarded by dispatchMutex_. runJob
  // publishes it and bumps jobSeq_; each rank runs it once and counts
  // pending_ down; the last one wakes runJob.
  std::mutex dispatchMutex_;
  std::condition_variable jobReady_;
  std::condition_variable jobDone_;
  std::uint64_t jobSeq_ = 0;
  index_t pending_ = 0;
  bool stopping_ = false;
  const std::function<void(Comm&)>* jobFn_ = nullptr;
  std::vector<Comm>* jobWorld_ = nullptr;
  std::vector<std::exception_ptr>* jobExc_ = nullptr;

  std::vector<std::thread> threads_;  // last: the threads use all of the above
};

}  // namespace hplmxp::simmpi
