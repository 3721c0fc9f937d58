#include "serve/fleet/hedge_policy.h"

#include <algorithm>
#include <cmath>

#include "util/common.h"

namespace hplmxp::serve {

void HedgeConfig::validate() const {
  if (!enabled) {
    return;
  }
  HPLMXP_REQUIRE(delayFactor >= 0.0, "hedge delay factor must be >= 0");
  HPLMXP_REQUIRE(minDelaySeconds >= 0.0 &&
                     minDelaySeconds <= HedgePolicy::kMaxDelaySeconds,
                 "hedge delay floor must lie in [0, 0.5] s");
  HPLMXP_REQUIRE(budgetPerSecond > 0.0 && budgetBurst >= 1.0,
                 "hedge budget must admit at least one hedge");
}

HedgePolicy::HedgePolicy(HedgeConfig config, double now)
    : config_(config),
      delaySeconds_(config.minDelaySeconds),
      tokens_(config.budgetBurst),
      refillAt_(now) {
  config_.validate();
}

void HedgePolicy::observe(double totalSeconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (window_.size() < kWindow) {
    window_.push_back(totalSeconds);
  } else {
    window_[next_] = totalSeconds;
    next_ = (next_ + 1) % kWindow;
  }
  // percentile(window_, 95): the same two order statistics, found by
  // selection instead of a sort, and the same interpolation.
  selected_.assign(window_.begin(), window_.end());
  const double rank =
      95.0 / 100.0 * static_cast<double>(selected_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto loIt = selected_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(selected_.begin(), loIt, selected_.end());
  const double low = *loIt;
  const double high = static_cast<double>(lo) == std::ceil(rank)
                          ? low
                          : *std::min_element(loIt + 1, selected_.end());
  const double p95 = low + (high - low) * (rank - static_cast<double>(lo));
  delaySeconds_ =
      std::max(config_.minDelaySeconds,
               std::min(kMaxDelaySeconds, config_.delayFactor * p95));
}

double HedgePolicy::delaySeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return delaySeconds_;
}

bool HedgePolicy::admit(double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  tokens_ = std::min(config_.budgetBurst,
                     tokens_ + (now - refillAt_) * config_.budgetPerSecond);
  refillAt_ = now;
  if (tokens_ < 1.0) {
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

}  // namespace hplmxp::serve
