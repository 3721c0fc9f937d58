#include "serve/cache_policy.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/common.h"

namespace hplmxp::serve {

CachePolicy::CachePolicy(std::size_t budgetBytes) : budgetBytes_(budgetBytes) {}

bool CachePolicy::lookup(const ProblemKey& key) {
  const std::uint64_t window =
      kAgingWindowPerEntry * std::max<std::uint64_t>(resident_.size(), 1);
  if (sinceAging_ >= window) {
    for (auto it = counts_.begin(); it != counts_.end();) {
      it->second /= 2;
      it = it->second == 0 ? counts_.erase(it) : std::next(it);
    }
    sinceAging_ = 0;
  }
  ++sinceAging_;
  ++counts_[key];
  return touch(key);
}

bool CachePolicy::touch(const ProblemKey& key) {
  const auto it = resident_.find(key);
  if (it == resident_.end()) {
    return false;
  }
  // Re-key the recency node in place: a hit allocates nothing.
  auto node = byLastUse_.extract(it->second.lastUse);
  node.key() = it->second.lastUse = ++clock_;
  byLastUse_.insert(std::move(node));
  return true;
}

CachePolicy::Admission CachePolicy::admit(const ProblemKey& key,
                                          std::size_t bytes) {
  HPLMXP_REQUIRE(!contains(key),
                 "cache policy: admitted key is already resident");
  Admission result;
  if (bytes > budgetBytes_) {
    return result;  // could never fit: evict nothing for it
  }
  // Walk the LRU end until the entry fits. bytes <= budget, so the walk
  // ends before it runs out of residents.
  const std::uint64_t count = frequency(key);
  std::size_t kept = bytesInUse_;
  auto victim = byLastUse_.begin();
  for (; bytes > budgetBytes_ - kept; ++victim) {
    if (frequency(victim->second) >= count) {
      return result;  // the resident is at least as popular: it stays
    }
    kept -= resident_.at(victim->second).bytes;
  }
  for (auto it = byLastUse_.begin(); it != victim;) {
    result.evicted.push_back(it->second);
    resident_.erase(it->second);
    it = byLastUse_.erase(it);
  }
  bytesInUse_ = kept + bytes;
  const std::uint64_t stamp = ++clock_;
  resident_.emplace(key, Resident{bytes, stamp});
  byLastUse_.emplace(stamp, key);
  result.admitted = true;
  return result;
}

bool CachePolicy::contains(const ProblemKey& key) const {
  return resident_.find(key) != resident_.end();
}

std::uint64_t CachePolicy::frequency(const ProblemKey& key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

void CachePolicy::clear() {
  resident_.clear();
  byLastUse_.clear();
  counts_.clear();
  bytesInUse_ = 0;
  sinceAging_ = 0;
}

}  // namespace hplmxp::serve
