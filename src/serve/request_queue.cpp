#include "serve/request_queue.h"

#include <algorithm>

namespace hplmxp::serve {

RequestQueue::RequestQueue(index_t maxDepth) : maxDepth_(maxDepth) {
  HPLMXP_REQUIRE(maxDepth > 0, "queue depth bound must be positive");
}

bool RequestQueue::push(QueuedRequest qr) {
  if (depth_ >= maxDepth_) {
    ++rejectedFull_;
    return false;
  }
  buckets_[qr.request.key].push_back(std::move(qr));
  ++depth_;
  peakDepth_ = std::max(peakDepth_, depth_);
  return true;
}

void RequestQueue::pushRetry(QueuedRequest qr) {
  buckets_[qr.request.key].push_back(std::move(qr));
  ++depth_;
  peakDepth_ = std::max(peakDepth_, depth_);
}

const ProblemKey* RequestQueue::oldestKey(double* ageOut) const {
  const ProblemKey* best = nullptr;
  double bestSubmit = 0.0;
  for (const auto& [key, bucket] : buckets_) {
    if (bucket.empty()) {
      continue;
    }
    const QueuedRequest& front = bucket.front();
    if (best == nullptr || front.submitSeconds < bestSubmit) {
      best = &key;
      bestSubmit = front.submitSeconds;
    }
  }
  if (best != nullptr && ageOut != nullptr) {
    *ageOut = bestSubmit;
  }
  return best;
}

std::vector<QueuedRequest> RequestQueue::take(const ProblemKey& key,
                                              index_t maxBatch) {
  std::vector<QueuedRequest> out;
  const auto it = buckets_.find(key);
  if (it == buckets_.end()) {
    return out;
  }
  while (!it->second.empty() &&
         static_cast<index_t>(out.size()) < maxBatch) {
    out.push_back(std::move(it->second.front()));
    it->second.pop_front();
    --depth_;
  }
  if (it->second.empty()) {
    buckets_.erase(it);
  }
  return out;
}

}  // namespace hplmxp::serve
