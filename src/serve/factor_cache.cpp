#include "serve/factor_cache.h"

#include "util/timer.h"

namespace hplmxp::serve {

FactorCache::FactorCache(std::size_t budgetBytes) : policy_(budgetBytes) {}

FactorCache::Fetch FactorCache::getOrFactor(
    const ProblemKey& key, const std::function<Factorization()>& factorFn) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.lookups;
  bool resident = policy_.lookup(key);
  while (true) {
    if (resident) {
      ++stats_.hits;
      return Fetch{resident_.at(key), true, 0.0};
    }
    const auto flightIt = flights_.find(key);
    if (flightIt != flights_.end()) {
      // Someone else is factoring this key right now: wait for the flight
      // to land. Its result answers every waiter, admitted or not.
      ++stats_.coalesced;
      const std::shared_ptr<const Flight> flight = flightIt->second;
      cv_.wait(lock, [&] { return flight->done; });
      if (flight->value != nullptr) {
        // A coalesced wait that gets the factors is a hit like any other
        // — without this, hits + misses undercounts lookups and the
        // CI-gated hit rate misreports under contention.
        ++stats_.hits;
        return Fetch{flight->value, true, 0.0};
      }
      // Withdrawn: re-evaluate, and race to become the factoring caller.
      resident = policy_.touch(key);
      continue;
    }

    // Miss: claim the flight and factor outside the lock.
    const auto flight = std::make_shared<Flight>();
    flights_.emplace(key, flight);
    ++stats_.misses;
    lock.unlock();

    std::shared_ptr<const Factorization> produced;
    Timer timer;
    try {
      produced = std::make_shared<const Factorization>(factorFn());
    } catch (...) {
      lock.lock();
      flight->done = true;
      flights_.erase(key);
      cv_.notify_all();
      throw;
    }
    const double factorSeconds = timer.seconds();

    lock.lock();
    ++stats_.factorCount;
    flight->value = produced;
    flight->done = true;
    flights_.erase(key);
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
    cv_.notify_all();
    return Fetch{produced, false, factorSeconds};
  }
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
