// Consistent-hash ring mapping ProblemKeys onto fleet shards.
//
// Each shard contributes `virtualNodes` deterministic points (a SplitMix64
// hash of (shard, vnode) — no RNG state, so every process builds the
// identical ring). A key routes to the first healthy shard clockwise of
// its own hash point; failover and hedging walk further clockwise past
// the shards the filter rejects. Because points depend only on (shard,
// vnode), removing a shard reassigns only the keys it owned — the classic
// consistent-hashing property that makes drain/rebalance cheap.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "serve/problem_key.h"
#include "util/common.h"

namespace hplmxp::serve {

class HashRing {
 public:
  /// Predicate deciding whether a shard may receive new routes right now.
  using HealthFn = std::function<bool(index_t)>;

  HashRing(index_t shards, index_t virtualNodes);

  [[nodiscard]] index_t points() const {
    return static_cast<index_t>(ring_.size());
  }

  /// First healthy shard clockwise of the key's point; -1 when no shard
  /// passes `healthy`.
  [[nodiscard]] index_t route(const ProblemKey& key,
                              const HealthFn& healthy) const;

  /// The key's point on the ring (exposed for tests asserting placement
  /// determinism).
  [[nodiscard]] static std::uint64_t hashKey(const ProblemKey& key);

 private:
  std::vector<std::pair<std::uint64_t, index_t>> ring_;  // sorted points
};

}  // namespace hplmxp::serve
