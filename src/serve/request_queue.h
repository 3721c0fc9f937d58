// Bounded, admission-controlled store of pending solve requests: the one
// shard-lane queue that the live ServeEngine and fleetsim's shards run.
//
// Admission control is the backpressure half of the serving contract:
// when the pending depth reaches the bound, new requests are rejected
// immediately (kRejectedQueueFull) instead of growing an unbounded queue
// whose tail latency no deadline could honor. Within the bound, items are
// bucketed per key in FIFO order, and the pick-up rule is
// work-conserving: popOldest hands a freed worker the key whose head was
// admitted first, with up to a batch of its items. Order is an admission
// counter kept here, not a clock reading, so two racing submitters are
// picked in the order the queue admitted them.
//
// The queue is passive and payload-agnostic: the engine guards it with
// its lock and a condition variable, and fleetsim drives it from its
// event loop with pending-request records for items.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "util/common.h"

namespace hplmxp::serve {

template <typename Key, typename Item>
class RequestQueue {
 public:
  /// Up to maxBatch items of one key, in FIFO order.
  struct Batch {
    Key key;
    std::vector<Item> items;
  };

  explicit RequestQueue(index_t maxDepth) : maxDepth_(maxDepth) {
    HPLMXP_REQUIRE(maxDepth > 0, "queue depth bound must be positive");
  }

  /// Admits or rejects one item. Returns false (and queues nothing) when
  /// the queue is at its depth bound.
  bool push(const Key& key, Item item) {
    if (depth_ >= maxDepth_) {
      return false;
    }
    buckets_[key].push_back({nextSeq_++, std::move(item)});
    ++depth_;
    peakDepth_ = std::max(peakDepth_, depth_);
    return true;
  }

  /// Removes and returns the key whose head was admitted first, with up
  /// to `maxBatch` of its items in FIFO order; nullopt when empty.
  std::optional<Batch> popOldest(index_t maxBatch) {
    auto oldest = buckets_.end();
    for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
      if (oldest == buckets_.end() ||
          it->second.front().seq < oldest->second.front().seq) {
        oldest = it;
      }
    }
    if (oldest == buckets_.end()) {
      return std::nullopt;
    }
    Batch batch{oldest->first, {}};
    std::deque<Entry>& bucket = oldest->second;
    while (!bucket.empty() &&
           static_cast<index_t>(batch.items.size()) < maxBatch) {
      batch.items.push_back(std::move(bucket.front().item));
      bucket.pop_front();
      --depth_;
    }
    if (bucket.empty()) {
      buckets_.erase(oldest);
    }
    return batch;
  }

  /// Removes and returns every item with its key: keys in map order, FIFO
  /// within a key.
  std::vector<std::pair<Key, Item>> drain() {
    std::vector<std::pair<Key, Item>> out;
    out.reserve(static_cast<std::size_t>(depth_));
    for (auto& [key, bucket] : buckets_) {
      for (Entry& e : bucket) {
        out.emplace_back(key, std::move(e.item));
      }
    }
    buckets_.clear();
    depth_ = 0;
    return out;
  }

  [[nodiscard]] index_t depth() const { return depth_; }
  [[nodiscard]] bool empty() const { return depth_ == 0; }
  [[nodiscard]] index_t peakDepth() const { return peakDepth_; }

 private:
  struct Entry {
    std::uint64_t seq = 0;  // admission order
    Item item;
  };

  index_t maxDepth_;
  index_t depth_ = 0;
  index_t peakDepth_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::map<Key, std::deque<Entry>> buckets_;  // no empty bucket is kept
};

}  // namespace hplmxp::serve
