// Stress tests of the message-passing runtime: randomized traffic
// patterns, interleaved collectives, and repeated splits — probing for
// ordering bugs, tag cross-talk, lost wakeups, and deadlocks that the
// structured benchmark traffic would not expose.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "simmpi/comm.h"
#include "simmpi/ring_bcast.h"
#include "simmpi/runtime.h"

namespace hplmxp {
namespace {

using simmpi::Comm;

/// Deterministic per-rank RNG (SplitMix64).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t x = (s += 0x9E3779B97F4A7C15ULL);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }
  index_t below(index_t n) { return static_cast<index_t>(next() % n); }
};

TEST(SimmpiStress, AllToAllRandomSizedMessages) {
  // Every rank sends one message of pseudo-random size to every other
  // rank, then receives from everyone; sizes are derivable by both sides.
  constexpr index_t kRanks = 8;
  constexpr index_t kRounds = 20;
  simmpi::run(kRanks, [](Comm& comm) {
    for (index_t round = 0; round < kRounds; ++round) {
      for (index_t dst = 0; dst < comm.size(); ++dst) {
        if (dst == comm.rank()) {
          continue;
        }
        // Size depends on (round, src, dst): both peers can compute it.
        const index_t len = 1 + (round * 131 + comm.rank() * 17 + dst) % 97;
        std::vector<std::int32_t> payload(static_cast<std::size_t>(len));
        for (index_t i = 0; i < len; ++i) {
          payload[static_cast<std::size_t>(i)] =
              static_cast<std::int32_t>(round * 1000000 +
                                        comm.rank() * 1000 + i);
        }
        comm.send(dst, round, payload.data(), len);
      }
      for (index_t src = 0; src < comm.size(); ++src) {
        if (src == comm.rank()) {
          continue;
        }
        const index_t len =
            1 + (round * 131 + src * 17 + comm.rank()) % 97;
        std::vector<std::int32_t> payload(static_cast<std::size_t>(len));
        comm.recv(src, round, payload.data(), len);
        for (index_t i = 0; i < len; ++i) {
          ASSERT_EQ(payload[static_cast<std::size_t>(i)],
                    static_cast<std::int32_t>(round * 1000000 + src * 1000 +
                                              i));
        }
      }
    }
  });
}

TEST(SimmpiStress, InterleavedCollectivesKeepOrder) {
  // Alternate allreduce / bcast / barrier / maxloc many times; any
  // tag-reuse bug between successive collectives would corrupt values.
  constexpr index_t kRanks = 6;
  simmpi::run(kRanks, [](Comm& comm) {
    double running = 1.0;
    for (int round = 0; round < 50; ++round) {
      double v = static_cast<double>(comm.rank() + round);
      comm.allreduceSum(&v, 1);
      const double expectSum =
          static_cast<double>(kRanks * round + 15);  // 0+..+5 = 15
      ASSERT_DOUBLE_EQ(v, expectSum);

      double payload = comm.rank() == round % kRanks ? v * 2.0 : -1.0;
      comm.bcast(round % kRanks, &payload, 1);
      ASSERT_DOUBLE_EQ(payload, expectSum * 2.0);

      const auto ml = comm.allreduceMaxLoc(
          static_cast<double>((comm.rank() * 7 + round) % kRanks),
          comm.rank());
      ASSERT_GE(ml.value, 0.0);
      comm.barrier();
      running += payload;
    }
    ASSERT_GT(running, 0.0);
  });
}

TEST(SimmpiStress, ManyConcurrentRingBroadcasts) {
  // Every rank is root of its own ring broadcast, fired back to back with
  // small segments; all five strategies in rotation.
  constexpr index_t kRanks = 7;
  simmpi::run(kRanks, [](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      for (index_t root = 0; root < comm.size(); ++root) {
        const auto strategy = simmpi::kAllBcastStrategies[
            static_cast<std::size_t>((round + root) % 5)];
        std::vector<std::uint64_t> buf(33, 0);
        if (comm.rank() == root) {
          for (std::size_t i = 0; i < buf.size(); ++i) {
            buf[i] = static_cast<std::uint64_t>(round) << 32 |
                     static_cast<std::uint64_t>(root * 100 + i);
          }
        }
        simmpi::broadcast(comm, strategy, root, buf.data(),
                          static_cast<index_t>(buf.size()),
                          /*segmentBytes=*/32);
        for (std::size_t i = 0; i < buf.size(); ++i) {
          ASSERT_EQ(buf[i], static_cast<std::uint64_t>(round) << 32 |
                                static_cast<std::uint64_t>(root * 100 + i));
        }
      }
    }
  });
}

TEST(SimmpiStress, RepeatedSplitsAndSubCommTraffic) {
  // Split into changing groupings every round and run collectives inside
  // each; epoch bookkeeping must keep the groups straight.
  constexpr index_t kRanks = 8;
  simmpi::run(kRanks, [](Comm& comm) {
    for (index_t round = 1; round <= 8; ++round) {
      const index_t color = comm.rank() % round;
      Comm sub = comm.split(color, comm.rank());
      double v = 1.0;
      sub.allreduceSum(&v, 1);
      // Group size: ranks with rank%round == color.
      index_t expected = 0;
      for (index_t r = 0; r < kRanks; ++r) {
        expected += (r % round == color) ? 1 : 0;
      }
      ASSERT_DOUBLE_EQ(v, static_cast<double>(expected))
          << "round " << round;
      // P2P within the subcomm.
      if (sub.size() >= 2) {
        const index_t partner =
            sub.rank() % 2 == 0
                ? std::min<index_t>(sub.rank() + 1, sub.size() - 1)
                : sub.rank() - 1;
        if (partner != sub.rank()) {
          double mine = static_cast<double>(sub.rank());
          double theirs = -1.0;
          sub.sendrecv(partner, 5, &mine, &theirs, 1);
          ASSERT_DOUBLE_EQ(theirs, static_cast<double>(partner));
        }
      }
      comm.barrier();
    }
  });
}

TEST(SimmpiStress, RandomizedPairwiseExchanges) {
  // A random (but globally agreed) pairing per round; partners exchange
  // random-length payloads. Runs enough rounds to shake out races.
  constexpr index_t kRanks = 8;
  simmpi::run(kRanks, [](Comm& comm) {
    Rng pairRng{12345};  // same seed on every rank -> same pairings
    for (int round = 0; round < 30; ++round) {
      // Fisher-Yates with the shared RNG.
      std::vector<index_t> perm(kRanks);
      std::iota(perm.begin(), perm.end(), 0);
      for (index_t i = kRanks - 1; i > 0; --i) {
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(pairRng.below(i + 1))]);
      }
      // Pair perm[0]<->perm[1], perm[2]<->perm[3], ...
      index_t partner = -1;
      for (index_t i = 0; i < kRanks; i += 2) {
        if (perm[static_cast<std::size_t>(i)] == comm.rank()) {
          partner = perm[static_cast<std::size_t>(i + 1)];
        }
        if (perm[static_cast<std::size_t>(i + 1)] == comm.rank()) {
          partner = perm[static_cast<std::size_t>(i)];
        }
      }
      ASSERT_GE(partner, 0);
      const index_t len = 1 + (round * 7) % 55;
      std::vector<double> mine(static_cast<std::size_t>(len),
                               static_cast<double>(comm.rank()));
      std::vector<double> theirs(static_cast<std::size_t>(len), -1.0);
      comm.sendrecv(partner, 1000 + round, mine.data(), theirs.data(), len);
      for (double v : theirs) {
        ASSERT_DOUBLE_EQ(v, static_cast<double>(partner));
      }
    }
  });
}

TEST(SimmpiStress, LargePayloadIntegrity) {
  // A multi-megabyte broadcast with a checksum: catches torn copies.
  simmpi::run(4, [](Comm& comm) {
    const index_t len = 1 << 20;  // 8 MiB of doubles
    std::vector<double> buf(static_cast<std::size_t>(len), 0.0);
    if (comm.rank() == 1) {
      for (index_t i = 0; i < len; ++i) {
        buf[static_cast<std::size_t>(i)] = static_cast<double>(i % 1009);
      }
    }
    simmpi::broadcast(comm, simmpi::BcastStrategy::kRing2M, 1, buf.data(),
                      len);
    double sum = 0.0;
    for (double v : buf) {
      sum += v;
    }
    // Expected: sum over i of (i % 1009).
    double expect = 0.0;
    for (index_t i = 0; i < len; ++i) {
      expect += static_cast<double>(i % 1009);
    }
    EXPECT_DOUBLE_EQ(sum, expect);
  });
}

TEST(SimmpiStress, RequestTestPollLoopYieldsInsteadOfSpinning) {
  // Regression for the Request::test() busy-wait: rank 0 polls a pending
  // irecv in a tight test() loop while rank 1 sits on the payload. The
  // bounded spin-then-yield backoff must keep the loop cheap enough that
  // the run completes promptly, and test() must still flip to true.
  simmpi::run(2, [](simmpi::Comm& comm) {
    constexpr index_t kLen = 1024;
    if (comm.rank() == 0) {
      std::vector<float> buf(static_cast<std::size_t>(kLen), 0.0f);
      simmpi::Request req =
          comm.irecvBytes(1, 7, buf.data(), buf.size() * sizeof(float));
      std::uint64_t polls = 0;
      const auto start = std::chrono::steady_clock::now();
      while (!req.test()) {
        ++polls;
        const auto waited = std::chrono::steady_clock::now() - start;
        ASSERT_LT(waited, std::chrono::seconds(30)) << "poll loop hung";
      }
      EXPECT_GT(polls, 0u);  // we really did poll before completion
      for (index_t i = 0; i < kLen; ++i) {
        ASSERT_EQ(buf[static_cast<std::size_t>(i)],
                  static_cast<float>(i));
      }
    } else {
      // Let rank 0 enter its poll loop first.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::vector<float> buf(static_cast<std::size_t>(kLen));
      for (index_t i = 0; i < kLen; ++i) {
        buf[static_cast<std::size_t>(i)] = static_cast<float>(i);
      }
      comm.send(0, 7, buf.data(), kLen);
    }
  });
}

}  // namespace
}  // namespace hplmxp
