// In-process message-passing runtime standing in for MPI.
//
// Each rank is a thread; a Comm is a handle (rank, shared state) with
// MPI-like semantics: tagged point-to-point send/recv with per-(src, tag)
// FIFO ordering, barriers, broadcast (synchronous tree and "IBcast"
// nonblocking), sum/max reductions, and communicator splitting (used for
// the row/column communicators of the 2D grid).
//
// Sends are buffered and never block (an unbounded-eager-buffer MPI); recv
// blocks until a matching message arrives. This preserves the ordering and
// deadlock structure of the paper's communication patterns while running
// whole multi-rank executions inside one test process.
//
// Robustness hooks (all zero-cost when unset):
//   * setTimeout(): blocking waits (recv, barrier, split, Request::wait)
//     raise a structured CommTimeoutError instead of hanging forever when a
//     peer is lost — the fail-fast behavior Sec. VI-B's progress monitoring
//     demands at scale.
//   * setSendRetry(): transient send failures (injected or otherwise) are
//     retried with exponential backoff before surfacing as CommSendError.
//   * setFaultInjector(): installs a deterministic simmpi::FaultInjector
//     (faults.h); sub-communicators created by split() inherit it.
//   * enableReplayLog(): keeps per-world-rank comm-op counters and a
//     bounded log of received payloads so a crashed rank can be
//     resurrected and deterministically re-executed from a checkpoint
//     (recovery.h): replayed sends are swallowed (the buffered transport
//     already delivered them), replayed recvs are served from the log, and
//     replayed barriers are skipped — the rank goes live again exactly at
//     the op where it died.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <thread>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "util/clock.h"
#include "util/common.h"

namespace hplmxp::simmpi {

using Tag = std::int64_t;

/// Clock source the Request poll backoff measures its spin window
/// against. Defaults to the process wall clock; the fleet simulator can
/// point it at a virtual clock so polling loops replayed under simulated
/// time keep their spin-then-yield shape. Pass nullptr to restore the
/// default. The source must outlive every Request that polls it.
void setPollClockSource(const ClockSource* source);
[[nodiscard]] const ClockSource& pollClockSource();

class FaultInjector;

namespace detail {
struct CommState;
struct ReplayRank;
}

/// Per-world-rank communication-op counters: the replay log's notion of
/// "where a rank is" in its deterministic op sequence. A checkpoint
/// snapshots them; resurrection rewinds to the snapshot and replays until
/// the counters reach their crash-time values again.
struct ReplayCounters {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t barriers = 0;
  /// Per-communicator ibcast ordinals (keyed by an internal comm id).
  /// Ibcast tags are derived from these, so a rewind must restore them for
  /// replayed ibcasts to re-derive the tags the original execution used.
  std::map<std::uint64_t, index_t> ibcastSeq;

  /// Replay progress compares op counts only (the ibcast ordinals advance
  /// as a function of the op sequence).
  [[nodiscard]] bool atSameOps(const ReplayCounters& o) const {
    return sends == o.sends && recvs == o.recvs && barriers == o.barriers;
  }
};

/// Replay-side tallies for one rank (a recovery report's raw material).
struct ReplayActivity {
  std::uint64_t recvsReplayed = 0;
  std::uint64_t sendsSuppressed = 0;
  std::uint64_t barriersSkipped = 0;
  std::uint64_t logRecords = 0;  // recv payloads currently retained
  std::uint64_t logBytes = 0;    // their total size
  std::uint64_t logPeakBytes = 0;
};

/// Base class of communication-layer failures.
class CommError : public CheckError {
 public:
  explicit CommError(const std::string& msg) : CheckError(msg) {}
};

/// A blocking wait exceeded the configured timeout — the peer is presumed
/// lost (crashed rank, wedged fabric). Carries the structured coordinates
/// of the wait so aggregated reports can say who waited on whom.
class CommTimeoutError : public CommError {
 public:
  CommTimeoutError(std::string op, index_t rank, index_t peer, Tag tag,
                   std::chrono::milliseconds timeout);

  [[nodiscard]] const std::string& op() const { return op_; }
  [[nodiscard]] index_t rank() const { return rank_; }
  /// Peer waited on; -1 when the wait is collective (barrier/split).
  [[nodiscard]] index_t peer() const { return peer_; }
  [[nodiscard]] Tag tag() const { return tag_; }

 private:
  std::string op_;
  index_t rank_;
  index_t peer_;
  Tag tag_;
};

/// A send failed transiently more times than the retry budget allows.
class CommSendError : public CommError {
 public:
  explicit CommSendError(const std::string& msg) : CommError(msg) {}
};

/// Handle to a pending nonblocking operation. wait() must be called before
/// the destination buffer is read (receivers) — for senders the operation
/// completes eagerly and wait() is a no-op. Safe to copy; all copies share
/// completion state, and wait()/test() are thread-safe and idempotent
/// under concurrent callers.
class Request {
 public:
  /// Already-complete request (eager sends, single-rank collectives).
  Request() = default;

  /// Pending request. `tryComplete(blocking)` performs the operation:
  /// called with true it must finish (blocking) and return true; with
  /// false it attempts a nonblocking completion and returns whether the
  /// operation finished.
  static Request pending(std::function<bool(bool)> tryComplete) {
    Request r;
    r.state_ = std::make_shared<State>();
    r.state_->tryComplete = std::move(tryComplete);
    return r;
  }

  /// Blocks until the operation is complete. Idempotent; concurrent
  /// callers serialize and all return after completion.
  void wait() {
    if (!state_ || state_->done.load(std::memory_order_acquire)) {
      return;
    }
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->done.load(std::memory_order_relaxed)) {
      return;
    }
    state_->tryComplete(/*blocking=*/true);
    state_->done.store(true, std::memory_order_release);
  }

  /// Nonblocking poll: returns true iff the operation is complete (and on
  /// first success performs the completion, e.g. copies the received
  /// payload out). The poll companion of wait() for timeout loops.
  ///
  /// Bounded spin-then-yield backoff: misses within the first
  /// kPollSpinSeconds return immediately (latency-optimal for operations
  /// about to land); after the window every miss yields the CPU, so a
  /// tight `while (!req.test())` loop — e.g. a rank polling an in-flight
  /// ring broadcast — cannot starve the thread pool's workers or the
  /// other rank threads on an oversubscribed host. The window is measured
  /// against pollClockSource() (a *time* budget, not the old fixed miss
  /// count, which stretched with CPU speed and meant nothing under a
  /// virtual clock).
  bool test() {
    if (!state_ || state_->done.load(std::memory_order_acquire)) {
      return true;
    }
    std::unique_lock<std::mutex> lock(state_->mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      // Another thread is completing right now; report current state.
      if (state_->done.load(std::memory_order_acquire)) {
        return true;
      }
      backoff();
      return false;
    }
    if (state_->done.load(std::memory_order_relaxed)) {
      return true;
    }
    if (state_->tryComplete(/*blocking=*/false)) {
      state_->done.store(true, std::memory_order_release);
      return true;
    }
    lock.unlock();
    backoff();
    return false;
  }

 private:
  /// Spin window after the first failed poll before test() starts
  /// yielding between attempts.
  static constexpr double kPollSpinSeconds = 20e-6;

  struct State {
    std::mutex mutex;
    std::atomic<bool> done{false};
    /// Instant of the first failed poll; < 0 until a poll misses.
    std::atomic<double> spinStartSeconds{-1.0};
    std::function<bool(bool)> tryComplete;
  };

  void backoff() {
    const double now = pollClockSource().nowSeconds();
    double start = state_->spinStartSeconds.load(std::memory_order_relaxed);
    if (start < 0.0) {
      // First miss opens the window; one racer wins, everyone measures
      // from the same instant.
      if (!state_->spinStartSeconds.compare_exchange_strong(
              start, now, std::memory_order_relaxed)) {
        // start now holds the winner's instant.
      } else {
        start = now;
      }
    }
    if (now - start >= kPollSpinSeconds) {
      std::this_thread::yield();
    }
  }

  std::shared_ptr<State> state_;
};

/// Communicator handle. Cheap to copy; all copies share the transport.
class Comm {
 public:
  Comm() = default;

  [[nodiscard]] index_t rank() const { return rank_; }
  [[nodiscard]] index_t size() const;
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  // --- robustness configuration (shared by all handles of this comm; set
  // before ranks start communicating; split() children inherit) ---------
  /// Blocking-wait budget; zero waits forever (the default).
  void setTimeout(std::chrono::milliseconds timeout);
  [[nodiscard]] std::chrono::milliseconds timeout() const;

  /// Retry budget and initial backoff for transient send failures; the
  /// backoff doubles per attempt.
  void setSendRetry(int maxRetries, std::chrono::microseconds backoff);

  /// Installs a deterministic fault injector (simmpi/faults.h). Pass
  /// nullptr to remove. The hot paths pay one pointer compare when unset.
  void setFaultInjector(std::shared_ptr<FaultInjector> injector);
  [[nodiscard]] const std::shared_ptr<FaultInjector>& faultInjector() const;

  // --- crash-recovery replay log (see simmpi/recovery.h) ----------------
  /// Arms the replay log on this comm (call on the WORLD communicator
  /// before any split/communication; children share the log). Counters and
  /// the recv-payload log are indexed by boundThreadRank(), so unbound
  /// threads are never logged. The hot paths pay one pointer compare when
  /// the log is off.
  void enableReplayLog();
  [[nodiscard]] bool replayLogEnabled() const;

  /// Current op counters of a world rank (checkpoint material). Only
  /// meaningful when called by that rank's own thread or while it is
  /// quiescent.
  [[nodiscard]] ReplayCounters replayCounters(index_t worldRank) const;

  /// Puts `worldRank` into replay mode: its counters rewind to
  /// `resumeFrom` (the checkpoint snapshot) and its ops are replayed —
  /// sends swallowed, recvs served from the log, barriers skipped — until
  /// the counters reach their values at the moment of this call, where the
  /// rank flips back to live execution. Must be called by the rank's own
  /// thread with no comm op in flight. Calling it on a rank that is
  /// already replaying *nests*: the counters rewind again but the original
  /// live-resume target is preserved, so a crash arriving mid-replay can
  /// be survived too.
  void beginReplay(index_t worldRank, const ReplayCounters& resumeFrom);
  [[nodiscard]] bool replaying(index_t worldRank) const;

  /// Drops logged recv payloads older than ordinal `keepFromRecv` (a
  /// checkpoint's recv counter): the log stays bounded by one checkpoint
  /// interval of traffic.
  void trimReplayLog(index_t worldRank, std::uint64_t keepFromRecv);

  [[nodiscard]] ReplayActivity replayActivity(index_t worldRank) const;

  // --- point to point -----------------------------------------------------
  void sendBytes(index_t dest, Tag tag, const void* data, std::size_t bytes);
  void recvBytes(index_t src, Tag tag, void* data, std::size_t bytes);

  /// Nonblocking probe-and-receive: returns false (buffer untouched) when
  /// no matching message is queued. Used by Request::test().
  bool tryRecvBytes(index_t src, Tag tag, void* data, std::size_t bytes);

  template <typename T>
  void send(index_t dest, Tag tag, const T* data, index_t count) {
    sendBytes(dest, tag, data, static_cast<std::size_t>(count) * sizeof(T));
  }
  template <typename T>
  void recv(index_t src, Tag tag, T* data, index_t count) {
    recvBytes(src, tag, data, static_cast<std::size_t>(count) * sizeof(T));
  }

  /// Nonblocking send: with the buffered transport the payload is captured
  /// immediately, so the returned Request completes eagerly.
  Request isendBytes(index_t dest, Tag tag, const void* data,
                     std::size_t bytes) {
    sendBytes(dest, tag, data, bytes);
    return Request{};
  }

  /// Nonblocking receive: completes (blocks if necessary) at wait(), or
  /// opportunistically at test().
  Request irecvBytes(index_t src, Tag tag, void* data, std::size_t bytes) {
    Comm self = *this;
    return Request::pending([self, src, tag, data, bytes](
                                bool blocking) mutable {
      if (blocking) {
        self.recvBytes(src, tag, data, bytes);
        return true;
      }
      return self.tryRecvBytes(src, tag, data, bytes);
    });
  }

  /// Exchanges buffers with a partner (deadlock-free under buffering).
  void sendrecvBytes(index_t partner, Tag tag, const void* sendBuf,
                     void* recvBuf, std::size_t bytes) {
    sendBytes(partner, tag, sendBuf, bytes);
    recvBytes(partner, tag, recvBuf, bytes);
  }
  template <typename T>
  void sendrecv(index_t partner, Tag tag, const T* sendBuf, T* recvBuf,
                index_t count) {
    sendrecvBytes(partner, tag, sendBuf, recvBuf,
                  static_cast<std::size_t>(count) * sizeof(T));
  }

  // --- collectives (must be called by every rank of the comm, in the same
  // order) -------------------------------------------------------------
  void barrier();

  /// Synchronous binomial-tree broadcast (the "Bcast" strategy).
  template <typename T>
  void bcast(index_t root, T* data, index_t count) {
    bcastBytes(root, data, static_cast<std::size_t>(count) * sizeof(T));
  }
  void bcastBytes(index_t root, void* data, std::size_t bytes);

  /// Nonblocking broadcast ("IBcast"): the root's data is captured and
  /// forwarded eagerly; non-roots complete the receive in wait().
  template <typename T>
  Request ibcast(index_t root, T* data, index_t count) {
    return ibcastBytes(root, data,
                       static_cast<std::size_t>(count) * sizeof(T));
  }
  Request ibcastBytes(index_t root, void* data, std::size_t bytes);

  /// Element-wise sum Allreduce (the IR residual reduction).
  void allreduceSum(double* data, index_t count);
  void allreduceSum(float* data, index_t count);

  /// Scalar max Allreduce.
  [[nodiscard]] double allreduceMax(double value);

  /// MAXLOC Allreduce: every rank receives the maximum value and the
  /// `where` payload supplied by the rank holding it (ties resolve to the
  /// smallest `where`). Used by the pivot search of the distributed HPL
  /// baseline.
  struct MaxLoc {
    double value = 0.0;
    index_t where = 0;
  };
  [[nodiscard]] MaxLoc allreduceMaxLoc(double value, index_t where);

  /// Gathers `count` elements from each rank to `root` (recvBuf must hold
  /// size()*count on the root; it may be null elsewhere).
  template <typename T>
  void gather(index_t root, const T* sendBuf, T* recvBuf, index_t count) {
    gatherBytes(root, sendBuf, recvBuf,
                static_cast<std::size_t>(count) * sizeof(T));
  }
  void gatherBytes(index_t root, const void* sendBuf, void* recvBuf,
                   std::size_t bytes);

  /// Allgather: every rank receives every rank's contribution, in rank
  /// order.
  template <typename T>
  void allgather(const T* sendBuf, T* recvBuf, index_t count) {
    allgatherBytes(sendBuf, recvBuf,
                   static_cast<std::size_t>(count) * sizeof(T));
  }
  void allgatherBytes(const void* sendBuf, void* recvBuf,
                      std::size_t bytes);

  /// Splits into sub-communicators by color; ranks ordered by (key, rank).
  /// Every rank of this comm must call split (same call ordinal). Children
  /// inherit the timeout, retry policy, and fault injector.
  [[nodiscard]] Comm split(index_t color, index_t key);

  /// World constructor used by the Runtime.
  static std::vector<Comm> makeWorld(index_t size);

 private:
  Comm(std::shared_ptr<detail::CommState> state, index_t rank)
      : state_(std::move(state)), rank_(rank) {}

  template <typename T>
  void allreduceSumT(T* data, index_t count);

  /// Applies the installed fault plan to one send attempt sequence:
  /// delays/stalls sleep, crash decisions throw, bit flips corrupt the
  /// payload in place, and transient failures are retried with
  /// exponential backoff (CommSendError once the budget is exhausted).
  /// Returns false when a network-partition drop swallowed the send: the
  /// caller must NOT deliver the payload (and must not error — partition
  /// loss is silent on the sender side).
  bool injectOnSend(index_t dest, Tag tag, std::vector<std::byte>& payload);

  /// Crash/stall injection point for receive-side and collective ops.
  void injectOnOp(const char* what);

  /// Crash injection point for *replayed* ops. Replay suppresses the
  /// normal plan (the live op sequence must not be perturbed), so crashes
  /// arriving mid-replay draw from a separate replayed-op counter
  /// (FaultConfig::replayCrashRank). Throws before the op is counted.
  void injectOnReplayedOp();

  /// Replay-log slot of the calling thread's bound world rank (nullptr
  /// when the log is off or the thread is unbound). Flips the slot back to
  /// live execution when its counters have reached the replay target.
  [[nodiscard]] detail::ReplayRank* replaySlot() const;

  /// Serves the next logged recv during replay, asserting the re-execution
  /// asked for exactly the message the original execution received.
  void serveReplayedRecv(detail::ReplayRank& rep, index_t src, Tag tag,
                         void* data, std::size_t bytes) const;

  /// Appends a live recv's payload to the replay log.
  void logRecv(detail::ReplayRank& rep, index_t src, Tag tag,
               std::vector<std::byte> payload) const;

  std::shared_ptr<detail::CommState> state_;
  index_t rank_ = 0;
};

}  // namespace hplmxp::simmpi
