#include "serve/factor_cache.h"

#include "util/timer.h"

namespace hplmxp::serve {

FactorCache::FactorCache(std::size_t budgetBytes)
    : budgetBytes_(budgetBytes) {
  stats_.budgetBytes = budgetBytes;
}

FactorCache::Fetch FactorCache::getOrFactor(
    const ProblemKey& key, const std::function<Factorization()>& factorFn) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.lookups;
  while (true) {
    auto it = entries_.find(key);
    if (it != entries_.end() && !it->second.inFlight) {
      it->second.lastUse = ++useClock_;
      ++stats_.hits;
      return Fetch{it->second.value, true, 0.0};
    }
    if (it != entries_.end()) {
      // Someone else is factoring this key right now: wait for the entry
      // to either become ready or be withdrawn (factorFn threw), then
      // re-evaluate from scratch.
      ++stats_.coalesced;
      cv_.wait(lock, [&] {
        const auto cur = entries_.find(key);
        return cur == entries_.end() || !cur->second.inFlight;
      });
      const auto cur = entries_.find(key);
      if (cur != entries_.end() && !cur->second.inFlight) {
        cur->second.lastUse = ++useClock_;
        // A coalesced wait that lands on a ready entry is a hit like any
        // other — without this, hits + misses undercounts lookups and the
        // CI-gated hit rate misreports under contention.
        ++stats_.hits;
        return Fetch{cur->second.value, true, 0.0};
      }
      continue;  // withdrawn — race to become the factoring caller
    }

    // Miss: claim the in-flight slot and factor outside the lock.
    Entry& claimed = entries_[key];
    claimed.inFlight = true;
    claimed.lastUse = ++useClock_;
    ++stats_.misses;
    lock.unlock();

    std::shared_ptr<const Factorization> produced;
    Timer timer;
    try {
      produced = std::make_shared<const Factorization>(factorFn());
    } catch (...) {
      lock.lock();
      entries_.erase(key);
      cv_.notify_all();
      throw;
    }
    const double factorSeconds = timer.seconds();

    lock.lock();
    ++stats_.factorCount;
    Entry& entry = entries_[key];
    entry.value = produced;
    entry.inFlight = false;
    entry.bytes = produced->bytes();
    entry.lastUse = ++useClock_;
    bytesInUse_ += entry.bytes;
    evictForBudgetLocked();
    cv_.notify_all();
    return Fetch{produced, false, factorSeconds};
  }
}

std::shared_ptr<const Factorization> FactorCache::peek(const ProblemKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.inFlight) {
    return nullptr;
  }
  it->second.lastUse = ++useClock_;
  return it->second.value;
}

bool FactorCache::contains(const ProblemKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it != entries_.end() && !it->second.inFlight;
}

std::size_t FactorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t ready = 0;
  for (const auto& [key, entry] : entries_) {
    ready += entry.inFlight ? 0 : 1;
  }
  return ready;
}

FactorCache::Stats FactorCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.bytesInUse = bytesInUse_;
  s.budgetBytes = budgetBytes_;
  return s;
}

void FactorCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.inFlight) {
      ++it;
    } else {
      bytesInUse_ -= it->second.bytes;
      it = entries_.erase(it);
    }
  }
}

void FactorCache::evictForBudgetLocked() {
  // Evict ready LRU entries until we fit. An entry that alone exceeds the
  // budget is evicted too once everything else is gone — callers keep it
  // alive through their shared_ptr; the cache just declines to retain it.
  while (bytesInUse_ > budgetBytes_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.inFlight) {
        continue;
      }
      if (victim == entries_.end() ||
          it->second.lastUse < victim->second.lastUse) {
        victim = it;
      }
    }
    if (victim == entries_.end()) {
      return;  // only in-flight entries left; nothing evictable
    }
    bytesInUse_ -= victim->second.bytes;
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

}  // namespace hplmxp::serve
