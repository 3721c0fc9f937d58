// Memory-budgeted cache of completed mixed-precision factorizations.
//
// The factorization is the "loaded model" of the serving stack: O(N^3)
// flops to produce, O(N^2) bytes to keep, and every solve against it is
// cheap. The cache keys entries by ProblemKey and holds their payloads;
// what it keeps is decided by a CachePolicy (serve/cache_policy.h), the
// same one fleetsim's shard caches run: least-recently-used eviction
// under a byte budget, with a new factorization admitted over a victim
// only when its key is looked up more often. A factorization the policy
// declines still answers the caller that ran it and everyone coalesced on
// its flight, and is then dropped.
//
// Concurrent misses on the same key are single-flighted: the first caller
// factors, every other caller blocks on the in-flight factorization and
// shares the result — a burst of requests for a new problem costs exactly
// one factorization (the factorCount counter is the proof the serve
// acceptance test asserts on).
#pragma once

#include <condition_variable>
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
    std::uint64_t hits = 0;        // served from cache (resident or coalesced)
    std::uint64_t misses = 0;      // caller ran the factorization
    std::uint64_t coalesced = 0;   // wait events on another caller's flight
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
    bool hit = false;            // resident entry or coalesced wait
    double factorSeconds = 0.0;  // time this caller spent factoring (miss)
  };

  explicit FactorCache(std::size_t budgetBytes);

  /// Returns the cached factorization for `key`, running `factorFn` under
  /// single-flight on a miss. `factorFn` must produce a Factorization for
  /// exactly this key; it runs outside the cache lock. If it throws, the
  /// flight is withdrawn, waiters retry (one of them becomes the new
  /// factoring caller), and the exception propagates to this caller.
  Fetch getOrFactor(const ProblemKey& key,
                    const std::function<Factorization()>& factorFn);

  [[nodiscard]] bool contains(const ProblemKey& key) const;
  [[nodiscard]] std::size_t size() const;  // resident entries
  [[nodiscard]] Stats stats() const;
  /// Drops resident entries and the policy's frequency history; flights
  /// in progress complete normally.
  void clear();

 private:
  /// One factorization in progress; its waiters hold it past its end.
  struct Flight {
    std::shared_ptr<const Factorization> value;  // null if factorFn threw
    bool done = false;
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  CachePolicy policy_;
  std::map<ProblemKey, std::shared_ptr<const Factorization>> resident_;
  std::map<ProblemKey, std::shared_ptr<Flight>> flights_;
  Stats stats_;
};

}  // namespace hplmxp::serve
