#include "simmpi/rank_group.h"

#include <utility>

#include "simmpi/faults.h"

namespace hplmxp::simmpi {

namespace {

/// A failure takes the grid down when it is (or contains) an injected
/// crash — timeouts and transient errors leave the group restartable
/// without a generation bump.
bool isCrashFailure(const std::exception& e) {
  if (dynamic_cast<const InjectedCrashError*>(&e) != nullptr) {
    return true;
  }
  if (const auto* multi = dynamic_cast<const MultiRankError*>(&e)) {
    for (const RankFailure& f : multi->failures()) {
      if (f.message.find("crash") != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

RankGroup::RankGroup(index_t groupId, index_t size, RunOptions options)
    : id_(groupId), size_(size), options_(std::move(options)) {
  HPLMXP_REQUIRE(size_ > 0, "rank group needs >= 1 rank");
  threads_.reserve(static_cast<std::size_t>(size_));
  try {
    for (index_t r = 0; r < size_; ++r) {
      threads_.emplace_back([this, r] { rankLoop(r); });
    }
  } catch (...) {
    stopThreads();  // a failed launch joins the threads it did start
    throw;
  }
}

RankGroup::~RankGroup() { stopThreads(); }

void RankGroup::stopThreads() {
  {
    std::lock_guard<std::mutex> lock(dispatchMutex_);
    stopping_ = true;
  }
  jobReady_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void RankGroup::rankLoop(index_t rank) {
  bindThreadRank(rank);
  const auto r = static_cast<std::size_t>(rank);
  std::uint64_t ran = 0;
  std::unique_lock<std::mutex> lock(dispatchMutex_);
  while (true) {
    jobReady_.wait(lock, [&] { return stopping_ || jobSeq_ != ran; });
    if (stopping_) {
      return;
    }
    ran = jobSeq_;
    const std::function<void(Comm&)>& fn = *jobFn_;
    Comm& comm = (*jobWorld_)[r];
    std::exception_ptr& exc = (*jobExc_)[r];
    lock.unlock();
    try {
      fn(comm);
    } catch (...) {
      exc = std::current_exception();  // an injected crash ends here
    }
    lock.lock();
    if (--pending_ == 0) {
      jobDone_.notify_one();
    }
  }
}

bool RankGroup::alive() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_.alive;
}

index_t RankGroup::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_.generation;
}

RankGroup::Stats RankGroup::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void RankGroup::runJob(const std::function<void(Comm&)>& fn) {
  std::lock_guard<std::mutex> job(jobMutex_);
  RunOptions options;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stats_.alive) {
      throw GroupDownError("rank group " + std::to_string(id_) +
                           " is down (generation " +
                           std::to_string(stats_.generation) + ")");
    }
    ++stats_.jobs;
    options = options_;
  }
  try {
    std::vector<Comm> world = detail::makeJobWorld(size_, options);
    std::vector<std::exception_ptr> rankExc(static_cast<std::size_t>(size_));
    {
      std::unique_lock<std::mutex> lock(dispatchMutex_);
      jobFn_ = &fn;
      jobWorld_ = &world;
      jobExc_ = &rankExc;
      pending_ = size_;
      ++jobSeq_;
      jobReady_.notify_all();
      jobDone_.wait(lock, [&] { return pending_ == 0; });
    }
    detail::rethrowRankFailures(rankExc, options);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failures;
    if (isCrashFailure(e)) {
      ++stats_.crashes;
      stats_.alive = false;
    }
    throw;
  }
}

void RankGroup::setFaults(std::shared_ptr<FaultInjector> faults) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_.faults = std::move(faults);
}

void RankGroup::kill(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stats_.alive) {
    stats_.alive = false;
    ++stats_.crashes;
    (void)reason;
  }
}

void RankGroup::restart() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stats_.alive) {
    return;
  }
  stats_.alive = true;
  ++stats_.generation;
  // The injector that killed the group has fired its one-shot crash;
  // a resurrected grid starts clean unless a new injector is armed.
  options_.faults.reset();
}

}  // namespace hplmxp::simmpi
