#include "serve/handle.h"

#include <utility>

namespace hplmxp::serve {

const RequestOutcome& Handle::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
  return outcome_;
}

bool Handle::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void Handle::onDone(std::function<void()> callback) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!done_) {
      onDone_ = std::move(callback);
      return;
    }
  }
  if (callback) {
    callback();  // already terminal: fire here, outside the lock
  }
}

bool Handle::publish(RequestOutcome outcome, std::vector<double> solution) {
  std::function<void()> callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_) {
      return false;
    }
    outcome_ = std::move(outcome);
    solution_ = std::move(solution);
    done_ = true;
    callback = std::move(onDone_);
  }
  cv_.notify_all();
  if (callback) {
    callback();
  }
  return true;
}

}  // namespace hplmxp::serve
