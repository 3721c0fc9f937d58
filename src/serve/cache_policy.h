// Admission and eviction policy of a byte-budgeted factor cache.
//
// The policy holds no payloads: it owns the cache's byte accounting, the
// recency order of its resident keys, the lookup frequency of every key
// it has seen recently, and the decision of what to keep. The live
// FactorCache and fleetsim's simulated shard caches both ask it, so the
// fleet and its co-simulation keep the same keys for the same lookups.
//
// Eviction is least-recently-used; admission is frequency-gated, after
// TinyLFU (Einziger, Friedman and Manes, ACM TOS 2017):
//   - every lookup counts once for its key. Counts are exact; every
//     kAgingWindowPerEntry x (resident entries) lookups they are halved
//     and zeros dropped, so popularity that moves is forgotten and the
//     frequency map tracks about twice that many keys;
//   - a new entry that fits the free budget is admitted;
//   - one that does not fit is admitted only when its count is strictly
//     greater than that of each LRU victim it would displace, which then
//     leave oldest first. On a tie the resident stays, so a stream of
//     one-off keys cannot flush the hot set;
//   - an entry larger than the whole budget is never admitted and evicts
//     nothing.
//
// The clock is a use counter, so the same sequence of calls keeps the
// same keys on any host. Not thread-safe: the owner serializes calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "serve/problem_key.h"

namespace hplmxp::serve {

class CachePolicy {
 public:
  /// Aging window, as a multiple of the resident entry count.
  static constexpr std::uint64_t kAgingWindowPerEntry = 20;

  /// What admit() decided.
  struct Admission {
    bool admitted = false;
    std::vector<ProblemKey> evicted;  // LRU victims dropped, oldest first
  };

  explicit CachePolicy(std::size_t budgetBytes);

  /// Counts one lookup of `key`. Returns whether it is resident; a
  /// resident key becomes the most recently used.
  bool lookup(const ProblemKey& key);

  /// Offers a freshly computed entry of `bytes` for `key`, which must not
  /// be resident. An admitted entry becomes the most recently used.
  Admission admit(const ProblemKey& key, std::size_t bytes);

  [[nodiscard]] bool contains(const ProblemKey& key) const;
  [[nodiscard]] std::size_t size() const { return resident_.size(); }
  [[nodiscard]] std::size_t bytesInUse() const { return bytesInUse_; }
  [[nodiscard]] std::size_t budgetBytes() const { return budgetBytes_; }
  /// The key's current lookup count (0 when untracked).
  [[nodiscard]] std::uint64_t frequency(const ProblemKey& key) const;
  /// Keys the frequency map holds, resident or not.
  [[nodiscard]] std::size_t trackedKeys() const { return counts_.size(); }

  /// Drops every resident entry and the frequency history: a crashed
  /// shard restarts cold.
  void clear();

 private:
  struct Resident {
    std::size_t bytes = 0;
    std::uint64_t lastUse = 0;  // key of this entry in byLastUse_
  };

  std::size_t budgetBytes_;
  std::size_t bytesInUse_ = 0;
  std::uint64_t clock_ = 0;       // one tick per use: lookup hit or admission
  std::uint64_t sinceAging_ = 0;  // lookups counted since the last halving
  std::map<ProblemKey, Resident> resident_;
  std::map<std::uint64_t, ProblemKey> byLastUse_;  // oldest first
  std::map<ProblemKey, std::uint64_t> counts_;
};

}  // namespace hplmxp::serve
