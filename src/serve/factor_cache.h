// Memory-budgeted cache of completed mixed-precision factorizations.
//
// The factorization is the "loaded model" of the serving stack: O(N^3)
// flops to produce, O(N^2) bytes to keep, and every solve against it is
// cheap. The cache keys entries by ProblemKey and holds their payloads;
// what it keeps is decided by a CachePolicy (serve/cache_policy.h), the
// same one fleetsim's shard caches run: least-recently-used eviction
// under a byte budget, with a new factorization admitted over a victim
// only when its key is looked up more often. A factorization the policy
// declines still answers the caller that ran it, and is then dropped.
//
// One caller: only the owning engine's worker calls getOrFactor, one
// lookup per batch, so a miss is one lookup, one factorization and one
// admission offer, and no two callers ever factor the same key at once.
// The report and the fleet's crash hook read and clear the cache from
// other threads, so every member still takes the lock, and a
// factorization runs outside it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "core/single_solver.h"
#include "serve/cache_policy.h"
#include "serve/problem_key.h"
#include "util/common.h"

namespace hplmxp::serve {

class FactorCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;     // getOrFactor calls; == hits + misses
    std::uint64_t hits = 0;        // served from a resident entry
    std::uint64_t misses = 0;      // caller ran the factorization
    /// Always 0: one caller never waits on another's factorization.
    /// perfbench's serve_zipf sums it into serve.coalesced, so the name
    /// stays until the benchmark change of ROADMAP item 9 deletes it.
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;   // admitted entries dropped for budget
    std::uint64_t declined = 0;    // factorizations the policy did not admit
    std::uint64_t factorCount = 0; // factorizations actually executed
    std::size_t bytesInUse = 0;    // admitted entries currently resident
    std::size_t budgetBytes = 0;

    [[nodiscard]] double hitRate() const {
      return lookups > 0
                 ? static_cast<double>(hits) / static_cast<double>(lookups)
                 : 0.0;
    }
  };

  /// What getOrFactor returned and how it got it.
  struct Fetch {
    std::shared_ptr<const Factorization> factors;
    bool hit = false;            // served from a resident entry
    double factorSeconds = 0.0;  // time this caller spent factoring (miss)
  };

  explicit FactorCache(std::size_t budgetBytes);

  /// Returns the cached factorization for `key`, running `factorFn` on a
  /// miss and offering its result to the policy. `factorFn` must produce
  /// a Factorization for exactly this key; it runs outside the cache
  /// lock. If it throws, nothing is cached and the exception propagates.
  /// One caller at a time (the owning engine's worker).
  Fetch getOrFactor(const ProblemKey& key,
                    const std::function<Factorization()>& factorFn);

  [[nodiscard]] bool contains(const ProblemKey& key) const;
  [[nodiscard]] std::size_t size() const;  // resident entries
  [[nodiscard]] Stats stats() const;
  /// Drops resident entries and the policy's frequency history; a
  /// factorization in progress is still offered to the policy when it
  /// lands.
  void clear();

 private:
  mutable std::mutex mutex_;
  CachePolicy policy_;
  std::map<ProblemKey, std::shared_ptr<const Factorization>> resident_;
  Stats stats_;
};

}  // namespace hplmxp::serve
