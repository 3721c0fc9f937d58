// Answered-once completion handle of one request, shared by the serve
// engine and the fleet.
//
// A request has exactly one answer. The engine publishes each request it
// admits once; the fleet may see several copies of one request finish (a
// failover chain, or a hedge racing its primary), and the first publish
// decides the answer. A later publish is refused, and the fleet counts it
// as a double answer or as a hedge's wasted duplicate.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/request.h"

namespace hplmxp::serve {

class Handle {
 public:
  /// Blocks until the request reaches a terminal status.
  const RequestOutcome& wait();
  [[nodiscard]] bool done() const;
  /// Terminal outcome; valid once done() is true.
  [[nodiscard]] const RequestOutcome& outcome() const { return outcome_; }
  /// The refined x of a completed request; valid once done() is true.
  [[nodiscard]] const std::vector<double>& solution() const {
    return solution_;
  }

  /// Registers a completion callback, invoked exactly once when the
  /// request reaches a terminal status — immediately if it already has
  /// (submit() returns terminal handles for admission rejections). The
  /// callback runs on the publishing thread (or the caller, for the
  /// already-done case) with no handle or engine lock held; the fleet
  /// router uses it to fail requests over between shards without a thread
  /// per request. One callback per handle.
  void onDone(std::function<void()> callback);

 private:
  friend class ServeEngine;
  friend class FleetEngine;

  /// Makes the handle terminal and then runs the onDone callback. Only
  /// the first call wins; false when the handle was already terminal.
  bool publish(RequestOutcome outcome, std::vector<double> solution);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  RequestOutcome outcome_;
  std::vector<double> solution_;
  std::function<void()> onDone_;
  /// Set by the fleet when it issues a hedge for this request, so that a
  /// late losing publish counts as expected duplicate work, not as a
  /// double answer. The handle itself never reads it.
  std::atomic<bool> hedged_{false};
};

using HandlePtr = std::shared_ptr<Handle>;

}  // namespace hplmxp::serve
