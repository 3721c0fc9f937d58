#include "simmpi/runtime.h"

#include <exception>
#include <thread>
#include <vector>

#include "simmpi/faults.h"

namespace hplmxp::simmpi {

std::string MultiRankError::renderMessage(
    const std::vector<RankFailure>& failures, index_t partitionBoundary,
    std::uint64_t partitionDrops) {
  std::string msg =
      std::to_string(failures.size()) + " ranks failed:";
  if (partitionDrops > 0) {
    msg += " [network partition at rank boundary " +
           std::to_string(partitionBoundary) + " dropped " +
           std::to_string(partitionDrops) + " sends]";
  }
  for (const RankFailure& f : failures) {
    msg += "\n  rank " + std::to_string(f.rank) + ": " + f.message;
  }
  return msg;
}

MultiRankError::MultiRankError(std::vector<RankFailure> failures)
    : CheckError(renderMessage(failures, -1, 0)),
      failures_(std::move(failures)) {}

MultiRankError::MultiRankError(std::vector<RankFailure> failures,
                               index_t partitionBoundary,
                               std::uint64_t partitionDrops)
    : CheckError(renderMessage(failures, partitionBoundary, partitionDrops)),
      failures_(std::move(failures)),
      partitionBoundary_(partitionBoundary),
      partitionDrops_(partitionDrops) {}

void run(index_t worldSize, const std::function<void(Comm&)>& fn) {
  run(worldSize, fn, RunOptions{});
}

void run(index_t worldSize, const std::function<void(Comm&)>& fn,
         const RunOptions& options) {
  HPLMXP_REQUIRE(worldSize > 0, "world size must be positive");
  auto world = Comm::makeWorld(worldSize);
  world[0].setTimeout(options.timeout);
  world[0].setSendRetry(options.sendMaxRetries, options.sendBackoff);
  if (options.faults) {
    world[0].setFaultInjector(options.faults);
  }
  if (options.replayLog) {
    world[0].enableReplayLog();
  }

  if (worldSize == 1) {
    bindThreadRank(0);
    fn(world[0]);
    return;
  }

  std::vector<std::exception_ptr> rankExc(
      static_cast<std::size_t>(worldSize));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(worldSize));
  for (index_t r = 0; r < worldSize; ++r) {
    threads.emplace_back([&, r] {
      bindThreadRank(r);
      try {
        fn(world[static_cast<std::size_t>(r)]);
      } catch (...) {
        rankExc[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  std::vector<RankFailure> failures;
  std::exception_ptr single;
  for (index_t r = 0; r < worldSize; ++r) {
    const auto& exc = rankExc[static_cast<std::size_t>(r)];
    if (!exc) {
      continue;
    }
    if (!single) {
      single = exc;
    }
    try {
      std::rethrow_exception(exc);
    } catch (const std::exception& e) {
      failures.push_back({r, e.what()});
    } catch (...) {
      failures.push_back({r, "unknown exception"});
    }
  }
  if (failures.size() == 1) {
    std::rethrow_exception(single);  // preserve the original type
  }
  if (!failures.empty()) {
    if (options.faults) {
      // Per-rank fault provenance: which deterministic plan was active and
      // how far into its op sequence each failed rank got. Diagnosing a
      // cascade (one crash, many timeouts) needs this to find the root.
      const FaultConfig& cfg = options.faults->plan().config();
      for (RankFailure& f : failures) {
        f.message += " [fault plan seed " + std::to_string(cfg.seed) +
                     "; rank had issued " +
                     std::to_string(options.faults->opsSeen(f.rank)) +
                     " comm ops]";
      }
      const std::uint64_t drops = options.faults->stats().partitionDrops;
      if (drops > 0) {
        // Symmetric timeout cascades with zero dead ranks are the
        // partition signature; carry it so callers don't misdiagnose.
        throw MultiRankError(std::move(failures), cfg.partitionBoundary,
                             drops);
      }
    }
    throw MultiRankError(std::move(failures));
  }
}

}  // namespace hplmxp::simmpi
