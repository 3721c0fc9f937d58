#include "serve/factor_cache.h"

#include "util/timer.h"

namespace hplmxp::serve {

FactorCache::FactorCache(std::size_t budgetBytes) : policy_(budgetBytes) {}

FactorCache::Fetch FactorCache::getOrFactor(
    const ProblemKey& key, const std::function<Factorization()>& factorFn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    if (policy_.lookup(key)) {
      ++stats_.hits;
      return Fetch{resident_.at(key), true, 0.0};
    }
    ++stats_.misses;
  }

  // Factor outside the lock, so a report or a crash hook never waits out
  // a factorization. A factorFn that throws caches nothing.
  Timer timer;
  const auto produced = std::make_shared<const Factorization>(factorFn());
  const double factorSeconds = timer.seconds();

  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.factorCount;
  const CachePolicy::Admission admission =
      policy_.admit(key, produced->bytes());
  for (const ProblemKey& victim : admission.evicted) {
    resident_.erase(victim);
  }
  stats_.evictions += admission.evicted.size();
  if (admission.admitted) {
    resident_.emplace(key, produced);
  } else {
    ++stats_.declined;
  }
  return Fetch{produced, false, factorSeconds};
}

bool FactorCache::contains(const ProblemKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return policy_.contains(key);
}

std::size_t FactorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return policy_.size();
}

FactorCache::Stats FactorCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.bytesInUse = policy_.bytesInUse();
  s.budgetBytes = policy_.budgetBytes();
  return s;
}

void FactorCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  policy_.clear();
  resident_.clear();
}

}  // namespace hplmxp::serve
