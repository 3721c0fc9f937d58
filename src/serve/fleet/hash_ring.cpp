#include "serve/fleet/hash_ring.h"

#include <algorithm>

namespace hplmxp::serve {

namespace {

/// SplitMix64 finalizer — the same mixing discipline as the engine's
/// retry jitter and the fault plan: pure, seedless, replayable.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

HashRing::HashRing(index_t shards, index_t virtualNodes) : shards_(shards) {
  HPLMXP_REQUIRE(shards > 0, "hash ring needs >= 1 shard");
  HPLMXP_REQUIRE(virtualNodes > 0, "hash ring needs >= 1 virtual node");
  ring_.reserve(static_cast<std::size_t>(shards * virtualNodes));
  for (index_t s = 0; s < shards; ++s) {
    for (index_t v = 0; v < virtualNodes; ++v) {
      const std::uint64_t point =
          mix64(mix64(static_cast<std::uint64_t>(s) + 1) ^
                mix64((static_cast<std::uint64_t>(v) + 1) * 0xA24BAED4963EE407ull));
      ring_.emplace_back(point, s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::uint64_t HashRing::hashKey(const ProblemKey& key) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(key.n));
  h = mix64(h ^ static_cast<std::uint64_t>(key.b));
  h = mix64(h ^ key.seed);
  h = mix64(h ^ static_cast<std::uint64_t>(key.pr));
  h = mix64(h ^ static_cast<std::uint64_t>(key.pc));
  // Round of the retired scheduler field (always 0): keys keep their points.
  h = mix64(h);
  h = mix64(h ^ static_cast<std::uint64_t>(key.precision));
  return h;
}

index_t HashRing::route(const ProblemKey& key, const HealthFn& healthy) const {
  const std::uint64_t point = hashKey(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(point, index_t{0}));
  for (std::size_t walked = 0; walked < ring_.size(); ++walked) {
    if (it == ring_.end()) {
      it = ring_.begin();  // wrap
    }
    if (!healthy || healthy(it->second)) {
      return it->second;
    }
    ++it;
  }
  return -1;
}

std::vector<index_t> HashRing::successors(const ProblemKey& key, index_t count,
                                          const HealthFn& healthy) const {
  std::vector<index_t> out;
  if (count <= 0) {
    return out;
  }
  const std::uint64_t point = hashKey(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(point, index_t{0}));
  std::vector<bool> seen(static_cast<std::size_t>(shards_), false);
  for (std::size_t walked = 0; walked < ring_.size(); ++walked) {
    if (it == ring_.end()) {
      it = ring_.begin();
    }
    const index_t s = it->second;
    if (!seen[static_cast<std::size_t>(s)]) {
      seen[static_cast<std::size_t>(s)] = true;
      if (!healthy || healthy(s)) {
        out.push_back(s);
        if (static_cast<index_t>(out.size()) == count) {
          break;
        }
      }
    }
    ++it;
  }
  return out;
}

}  // namespace hplmxp::serve
