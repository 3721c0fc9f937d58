// Serving subsystem: cache policy (LRU eviction, frequency admission,
// aging), factor cache (budget, declines, a failed factorization), the
// admission queue and its pick-up rule, the end-to-end engine (including
// bitwise equivalence of served solutions, deadline rejections at pick-up
// and after a slow factorization, a failed batch answered once, and one
// batch at a time), trace I/O, and the `hplmxp serve` command.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cli/commands.h"
#include "cli/options.h"
#include "core/single_solver.h"
#include "gen/matgen.h"
#include "serve/cache_policy.h"
#include "serve/engine.h"
#include "serve/json.h"
#include "serve/request_queue.h"
#include "serve/trace_io.h"

namespace hplmxp::serve {
namespace {

ProblemKey key(index_t n, index_t b, std::uint64_t seed) {
  ProblemKey k;
  k.n = n;
  k.b = b;
  k.seed = seed;
  return k;
}

Factorization factorOf(const ProblemKey& k) {
  const ProblemGenerator gen(k.seed, k.n);
  return factorMixedSingle(gen, k.b, Vendor::kAmd);
}

// ---------------------------------------------------------------- JSON --

TEST(Json, ParsesScalarsObjectsArrays) {
  const JsonValue v = JsonValue::parse(
      R"({"name": "t", "pi": 3.5, "on": true, "off": false,
          "nil": null, "list": [1, 2, 3], "nest": {"k": -2e2}})");
  EXPECT_EQ(v.get("name").asString(), "t");
  EXPECT_DOUBLE_EQ(v.get("pi").asNumber(), 3.5);
  EXPECT_TRUE(v.get("on").asBool());
  EXPECT_FALSE(v.get("off").asBool());
  EXPECT_TRUE(v.get("nil").isNull());
  ASSERT_EQ(v.get("list").asArray().size(), 3u);
  EXPECT_DOUBLE_EQ(v.get("list").asArray()[2].asNumber(), 3.0);
  EXPECT_DOUBLE_EQ(v.get("nest").get("k").asNumber(), -200.0);
  EXPECT_DOUBLE_EQ(v.numberOr("absent", 7.0), 7.0);
  EXPECT_EQ(v.stringOr("absent", "d"), "d");
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  // The escape sequences are assembled from `esc` so the test source
  // itself stays plain ASCII.
  const std::string esc = "\\u";
  // BMP code points across the 1-, 2-, and 3-byte UTF-8 ranges.
  EXPECT_EQ(JsonValue::parse("\"" + esc + "0041\"").asString(), "A");
  EXPECT_EQ(JsonValue::parse("\"" + esc + "00e9\"").asString(),
            "\xC3\xA9");  // e-acute
  EXPECT_EQ(JsonValue::parse("\"" + esc + "20AC\"").asString(),
            "\xE2\x82\xAC");  // euro sign
  // Escaped control characters (the reason external traces escape).
  EXPECT_EQ(JsonValue::parse("\"" + esc + "0007\"").asString(), "\a");
  // Surrogate pair: U+1D11E (musical G clef) -> 4-byte UTF-8.
  EXPECT_EQ(JsonValue::parse("\"" + esc + "D834" + esc + "DD1E\"").asString(),
            "\xF0\x9D\x84\x9E");
  // Mixed with plain escapes and surrounding text.
  EXPECT_EQ(JsonValue::parse("\"a" + esc + "0042c\\n\"").asString(), "aBc\n");
  // Round trip: jsonQuote emits the \uXXXX escapes the parser decodes.
  const std::string original = std::string("x\x01y\x1Fz");
  EXPECT_EQ(JsonValue::parse(jsonQuote(original)).asString(), original);
}

TEST(Json, MalformedUnicodeEscapesCarryByteOffset) {
  const std::string esc = "\\u";
  const auto offsetOf = [](const std::string& text) -> std::size_t {
    try {
      (void)JsonValue::parse(text);
    } catch (const JsonParseError& e) {
      return e.offset();
    }
    ADD_FAILURE() << "expected JsonParseError for: " << text;
    return static_cast<std::size_t>(-1);
  };
  // Bad hex digit: blamed on the digit itself.
  EXPECT_EQ(offsetOf("\"" + esc + "12G4\""), 5u);
  // Truncated escape: blamed on the opening backslash.
  EXPECT_EQ(offsetOf("\"" + esc + "12"), 1u);
  // Unpaired low surrogate.
  EXPECT_EQ(offsetOf("\"" + esc + "DC00\""), 1u);
  // High surrogate with no escape after it.
  EXPECT_EQ(offsetOf("\"" + esc + "D834x\""), 1u);
  // High surrogate followed by an escape that is not a low surrogate.
  EXPECT_EQ(offsetOf("\"" + esc + "D834\\n\""), 1u);
  // The offset survives nesting: the prefix before the escape counts
  // (the bad hex digit 'Z' sits at byte 11).
  EXPECT_EQ(offsetOf("{\"k\": \"ab" + esc + "ZZZZ\"}"), 11u);
  // JsonParseError is still a CheckError for existing catch sites.
  EXPECT_THROW((void)JsonValue::parse("\"" + esc + "DEAD beef\""), CheckError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse("{"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("{} trailing"), CheckError);
  const JsonValue v = JsonValue::parse(R"({"a": 1})");
  EXPECT_THROW((void)v.get("missing"), CheckError);
  EXPECT_THROW((void)v.get("a").asString(), CheckError);
  // Defaulted lookups still type-check present keys.
  EXPECT_THROW((void)v.stringOr("a", "x"), CheckError);
  EXPECT_DOUBLE_EQ(v.numberOr("a", 0.0), 1.0);
}

// ------------------------------------------------------------ trace IO --

TEST(TraceIo, RoundTripsThroughJson) {
  const RequestTrace trace = makeSyntheticTrace(10, 3, 0.5, 64, 16, 21);
  const std::string path = "test_serve_trace_roundtrip.json";
  {
    std::ofstream out(path);
    out << traceToJson(trace);
  }
  const RequestTrace back = loadRequestTrace(path);
  std::remove(path.c_str());
  EXPECT_EQ(back.name, trace.name);
  ASSERT_EQ(back.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(back.requests[i].seed, trace.requests[i].seed);
    EXPECT_EQ(back.requests[i].rhsSeed, trace.requests[i].rhsSeed);
    EXPECT_EQ(back.requests[i].n, trace.requests[i].n);
    EXPECT_DOUBLE_EQ(back.requests[i].atMs, trace.requests[i].atMs);
  }
}

TEST(TraceIo, ArrivalUsAccumulatesFromPreviousRequest) {
  const std::string path = "test_serve_trace_arrival_us.json";
  {
    std::ofstream out(path);
    out << R"({"name": "gaps", "requests": [
      {"arrival_us": 0,    "n": 32, "b": 16, "seed": 1},
      {"arrival_us": 250,  "n": 32, "b": 16, "seed": 2},
      {"arrival_us": 1500, "n": 32, "b": 16, "seed": 3},
      {"at_ms": 10.0,      "n": 32, "b": 16, "seed": 4},
      {"arrival_us": 500,  "n": 32, "b": 16, "seed": 5},
      {"n": 32, "b": 16, "seed": 6}
    ]})";
  }
  const RequestTrace trace = loadRequestTrace(path);
  std::remove(path.c_str());
  ASSERT_EQ(trace.requests.size(), 6u);
  EXPECT_DOUBLE_EQ(trace.requests[0].atMs, 0.0);
  EXPECT_DOUBLE_EQ(trace.requests[1].atMs, 0.25);
  EXPECT_DOUBLE_EQ(trace.requests[2].atMs, 1.75);
  // at_ms stays absolute and resets the accumulation base.
  EXPECT_DOUBLE_EQ(trace.requests[3].atMs, 10.0);
  EXPECT_DOUBLE_EQ(trace.requests[4].atMs, 10.5);
  // Neither field: back-to-back with the predecessor.
  EXPECT_DOUBLE_EQ(trace.requests[5].atMs, 0.0);
}

TEST(TraceIo, ArrivalUsRejectsNegativeGaps) {
  const std::string path = "test_serve_trace_arrival_neg.json";
  {
    std::ofstream out(path);
    out << R"({"requests": [{"arrival_us": -5, "n": 32, "b": 16, "seed": 1}]})";
  }
  EXPECT_THROW((void)loadRequestTrace(path), CheckError);
  std::remove(path.c_str());
}

// --------------------------------------------------------- CachePolicy --

TEST(CachePolicyTest, AdmitsOnlyOverLessPopularVictims) {
  // A 100-byte budget of 40-byte entries holds two.
  CachePolicy policy(100);
  const ProblemKey a = key(32, 16, 1);
  const ProblemKey b = key(32, 16, 2);
  const ProblemKey c = key(32, 16, 3);
  const ProblemKey d = key(32, 16, 4);
  const auto offer = [&](const ProblemKey& k, std::size_t bytes) {
    EXPECT_FALSE(policy.lookup(k));
    return policy.admit(k, bytes);
  };

  // Free room admits whatever the count.
  EXPECT_TRUE(offer(a, 40).admitted);
  EXPECT_TRUE(offer(b, 40).admitted);
  EXPECT_EQ(policy.bytesInUse(), 80u);

  // c ties a, the LRU victim, at one lookup: the resident stays.
  CachePolicy::Admission r = offer(c, 40);
  EXPECT_FALSE(r.admitted);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_TRUE(policy.contains(a));
  EXPECT_FALSE(policy.contains(c));

  // Its second lookup beats a's one: a leaves, not the newer b.
  r = offer(c, 40);
  EXPECT_TRUE(r.admitted);
  EXPECT_EQ(r.evicted, std::vector<ProblemKey>{a});
  EXPECT_TRUE(policy.contains(b));
  EXPECT_TRUE(policy.contains(c));

  // An 80-byte d must displace both b (1 lookup) and c (2). Two lookups
  // beat b but tie c, so nothing moves; the third beats both, and they
  // leave oldest first.
  EXPECT_FALSE(offer(d, 80).admitted);
  r = offer(d, 80);
  EXPECT_FALSE(r.admitted);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_TRUE(policy.contains(b));
  r = offer(d, 80);
  EXPECT_TRUE(r.admitted);
  EXPECT_EQ(r.evicted, (std::vector<ProblemKey>{b, c}));
  EXPECT_EQ(policy.size(), 1u);
  EXPECT_EQ(policy.bytesInUse(), 80u);

  // Larger than the whole budget: never admitted, however popular, and
  // nothing is evicted for it.
  const ProblemKey big = key(64, 16, 5);
  for (int i = 0; i < 10; ++i) {
    r = offer(big, 101);
    EXPECT_FALSE(r.admitted);
    EXPECT_TRUE(r.evicted.empty());
  }
  EXPECT_TRUE(policy.contains(d));
  EXPECT_EQ(policy.bytesInUse(), 80u);

  // Every lookup counts, hit or miss.
  EXPECT_TRUE(policy.lookup(d));
  EXPECT_EQ(policy.frequency(d), 4u);
}

/// Runs one lookup through `policy` as a cache would: a miss offers an
/// entry of `bytes`. Returns whether the lookup hit.
bool access(CachePolicy& policy, const ProblemKey& k, std::size_t bytes) {
  if (policy.lookup(k)) {
    return true;
  }
  (void)policy.admit(k, bytes);
  return false;
}

TEST(CachePolicyTest, RecoversTheHotSetAfterAPopularityShift) {
  // Four 1-byte slots; the hot set cycles with a one-off key between
  // hot lookups. When the hot set moves to four new keys, the old ones
  // carry high counts, which halve every aging window (20 x 4 = 80
  // lookups here). The new hot set must be resident within 2 windows
  // (this sequence needs 80 to 88 lookups, about one).
  constexpr std::size_t kSlots = 4;
  CachePolicy policy(kSlots);
  const std::uint64_t window = CachePolicy::kAgingWindowPerEntry * kSlots;
  std::uint64_t oneOff = 1000;
  std::uint64_t lookups = 0;
  const auto phase = [&](std::uint64_t firstSeed, std::uint64_t rounds,
                         bool stopWhenResident) {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      (void)access(policy, key(32, 16, firstSeed + i % kSlots), 1);
      (void)access(policy, key(32, 16, ++oneOff), 1);
      lookups += 2;
      bool all = true;
      for (std::uint64_t h = 0; h < kSlots; ++h) {
        all = all && policy.contains(key(32, 16, firstSeed + h));
      }
      if (stopWhenResident && all) {
        return true;
      }
    }
    return false;
  };

  (void)phase(1, 2000, false);
  for (std::uint64_t h = 1; h <= kSlots; ++h) {
    EXPECT_TRUE(policy.contains(key(32, 16, h))) << "old hot key " << h;
  }
  lookups = 0;
  EXPECT_TRUE(phase(101, window, true))
      << "new hot set not resident within 2 aging windows";
  EXPECT_LE(lookups, 2 * window);
  for (std::uint64_t h = 1; h <= kSlots; ++h) {
    EXPECT_FALSE(policy.contains(key(32, 16, h))) << "old hot key " << h;
  }
}

TEST(CachePolicyTest, FrequencyMapStaysBoundedUnderOneOffKeys) {
  // 100k distinct keys, each looked up once, between lookups of four
  // hot keys: the one-offs never displace the hot set, and aging keeps
  // the frequency map near twice the window.
  constexpr std::size_t kSlots = 4;
  CachePolicy policy(kSlots);
  const std::uint64_t window = CachePolicy::kAgingWindowPerEntry * kSlots;
  std::size_t peak = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    (void)access(policy, key(32, 16, i % kSlots), 1);
    (void)access(policy, key(32, 16, 1000 + i), 1);
    peak = std::max(peak, policy.trackedKeys());
  }
  EXPECT_LE(peak, 2 * window);
  for (std::uint64_t h = 0; h < kSlots; ++h) {
    EXPECT_TRUE(policy.contains(key(32, 16, h))) << "hot key " << h;
  }
}

TEST(CachePolicyTest, SameSequenceKeepsTheSameKeys) {
  // A skewed draw over 40 keys of three sizes, replayed into two
  // policies, and into the first again after clear(): clear() restores a
  // cold policy, so all three keep the same keys at every step.
  std::vector<std::pair<ProblemKey, std::size_t>> sequence;
  std::uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
    const auto k = static_cast<std::uint64_t>(40.0 * u * u * u);
    sequence.emplace_back(key(32, 16, k), 100 + 50 * (k % 3));
  }
  const auto replay = [&](CachePolicy& policy) {
    std::vector<std::size_t> trail;
    for (const auto& [k, bytes] : sequence) {
      trail.push_back(access(policy, k, bytes) ? 1 : 0);
      trail.push_back(policy.bytesInUse());
    }
    return trail;
  };
  CachePolicy first(1000);
  CachePolicy second(1000);
  const std::vector<std::size_t> trail = replay(first);
  EXPECT_EQ(replay(second), trail);
  first.clear();
  EXPECT_EQ(first.size(), 0u);
  EXPECT_EQ(first.bytesInUse(), 0u);
  EXPECT_EQ(first.trackedKeys(), 0u);
  EXPECT_EQ(replay(first), trail);
  for (std::uint64_t k = 0; k < 40; ++k) {
    EXPECT_EQ(first.contains(key(32, 16, k)), second.contains(key(32, 16, k)));
  }
}

// --------------------------------------------------------- FactorCache --

TEST(FactorCacheTest, HitsMissesAndProblemKeyIdentity) {
  FactorCache cache(std::size_t{16} << 20);
  const ProblemKey k1 = key(32, 16, 1);
  const ProblemKey k2 = key(32, 16, 2);  // different seed => different entry

  const FactorCache::Fetch a = cache.getOrFactor(k1, [&] { return factorOf(k1); });
  EXPECT_FALSE(a.hit);
  const FactorCache::Fetch b = cache.getOrFactor(k1, [&] { return factorOf(k1); });
  EXPECT_TRUE(b.hit);
  EXPECT_EQ(a.factors.get(), b.factors.get());
  const FactorCache::Fetch c = cache.getOrFactor(k2, [&] { return factorOf(k2); });
  EXPECT_FALSE(c.hit);

  const FactorCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.factorCount, 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NEAR(s.hitRate(), 1.0 / 3.0, 1e-12);
}

TEST(FactorCacheTest, EvictsLeastRecentlyUsedForBudget) {
  // Budget two 32x32 factorizations. k1 and k2 are looked up twice each,
  // k1 last, so k2 is the least recently used of two equally popular
  // entries. k3 displaces a resident only once its count beats the
  // victim's: its first two lookups are declined, the third evicts k2.
  const std::size_t one = Factorization::residentBytes(32);
  FactorCache cache(2 * one + 64);
  const ProblemKey k1 = key(32, 16, 1);
  const ProblemKey k2 = key(32, 16, 2);
  const ProblemKey k3 = key(32, 16, 3);

  for (const ProblemKey& k : {k1, k2, k2, k1}) {
    (void)cache.getOrFactor(k, [&] { return factorOf(k); });
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(cache.getOrFactor(k3, [&] { return factorOf(k3); }).hit);
    EXPECT_EQ(cache.contains(k3), i == 2) << "lookup " << i + 1 << " of k3";
  }

  EXPECT_TRUE(cache.contains(k1));
  EXPECT_FALSE(cache.contains(k2));
  EXPECT_TRUE(cache.contains(k3));
  const FactorCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.declined, 2u);
  EXPECT_EQ(s.bytesInUse, 2 * one);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
}

TEST(FactorCacheTest, OversizedFactorizationLeavesResidentsInPlace) {
  // A 64x64 factorization is larger than the whole two-entry budget: it
  // answers its caller and is dropped, and no resident 32x32 entry is
  // evicted to make room it could never have.
  const std::size_t one = Factorization::residentBytes(32);
  FactorCache cache(2 * one + 64);
  const ProblemKey k1 = key(32, 16, 1);
  const ProblemKey k2 = key(32, 16, 2);
  const ProblemKey big = key(64, 16, 3);
  ASSERT_GT(Factorization::residentBytes(64), 2 * one + 64);
  (void)cache.getOrFactor(k1, [&] { return factorOf(k1); });
  (void)cache.getOrFactor(k2, [&] { return factorOf(k2); });

  const FactorCache::Fetch f =
      cache.getOrFactor(big, [&] { return factorOf(big); });
  ASSERT_NE(f.factors, nullptr);
  EXPECT_EQ(f.factors->n, 64);
  EXPECT_TRUE(cache.contains(k1));
  EXPECT_TRUE(cache.contains(k2));
  EXPECT_FALSE(cache.contains(big));
  const FactorCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.declined, 1u);
  EXPECT_EQ(s.bytesInUse, 2 * one);
}

TEST(FactorCacheTest, FailedFactorizationIsWithdrawn) {
  FactorCache cache(std::size_t{16} << 20);
  const ProblemKey k = key(32, 16, 4);
  EXPECT_THROW((void)cache.getOrFactor(
                   k, [&]() -> Factorization { throw CheckError("boom"); }),
               CheckError);
  EXPECT_FALSE(cache.contains(k));
  // The key is retryable: the next caller factors fresh.
  const FactorCache::Fetch f = cache.getOrFactor(k, [&] { return factorOf(k); });
  EXPECT_FALSE(f.hit);
  EXPECT_NE(f.factors, nullptr);
}

// -------------------------------------------------------- RequestQueue --

using IdQueue = RequestQueue<ProblemKey, std::uint64_t>;  // request ids

TEST(RequestQueueTest, BoundsDepthAndCountsRejections) {
  IdQueue q(2);
  EXPECT_TRUE(q.push(key(32, 16, 1), 1));
  EXPECT_TRUE(q.push(key(32, 16, 1), 2));
  EXPECT_FALSE(q.push(key(32, 16, 1), 3));
  EXPECT_EQ(q.depth(), 2);
  ASSERT_TRUE(q.popOldest(1).has_value());
  EXPECT_EQ(q.depth(), 1);
  EXPECT_EQ(q.peakDepth(), 2);
}

TEST(RequestQueueTest, TakesFifoPerKeyAndTracksOldest) {
  IdQueue q(8);
  const ProblemKey a = key(32, 16, 1);
  const ProblemKey b = key(32, 16, 2);
  ASSERT_TRUE(q.push(b, 10));
  ASSERT_TRUE(q.push(a, 11));
  ASSERT_TRUE(q.push(b, 12));

  // b's head was admitted first, though a sorts first.
  const std::optional<IdQueue::Batch> taken = q.popOldest(8);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->key, b);
  ASSERT_EQ(taken->items.size(), 2u);
  EXPECT_EQ(taken->items[0], 10u);
  EXPECT_EQ(taken->items[1], 12u);
  EXPECT_EQ(q.depth(), 1);
  const std::optional<IdQueue::Batch> next = q.popOldest(8);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->key, a);
  EXPECT_EQ(next->items.size(), 1u);
}

TEST(RequestQueueTest, PopOldestOnAnEmptyQueueReturnsNothing) {
  IdQueue q(4);
  EXPECT_FALSE(q.popOldest(8).has_value());
  ASSERT_TRUE(q.push(key(32, 16, 1), 1));
  ASSERT_TRUE(q.popOldest(8).has_value());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.popOldest(8).has_value());
}

TEST(RequestQueueTest, DrainReturnsKeysInMapOrderFifoWithinAKey) {
  // fleetsim's crash path fails a shard's queue over in this order.
  IdQueue q(8);
  const ProblemKey a = key(32, 16, 1);
  const ProblemKey b = key(32, 16, 2);
  ASSERT_TRUE(a < b);
  ASSERT_TRUE(q.push(b, 10));
  ASSERT_TRUE(q.push(a, 11));
  ASSERT_TRUE(q.push(b, 12));
  ASSERT_TRUE(q.push(a, 13));

  const std::vector<std::pair<ProblemKey, std::uint64_t>> all = q.drain();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0], std::make_pair(a, std::uint64_t{11}));
  EXPECT_EQ(all[1], std::make_pair(a, std::uint64_t{13}));
  EXPECT_EQ(all[2], std::make_pair(b, std::uint64_t{10}));
  EXPECT_EQ(all[3], std::make_pair(b, std::uint64_t{12}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peakDepth(), 4);
  EXPECT_FALSE(q.popOldest(8).has_value());
}

// -------------------------------------------------------------- Engine --

SolveRequest request(const ProblemKey& k, std::uint64_t rhsSeed,
                     double deadlineSeconds = 0.0) {
  SolveRequest r;
  r.key = k;
  r.rhsSeed = rhsSeed;
  r.deadlineSeconds = deadlineSeconds;
  return r;
}

TEST(ServeEngineTest, BatchesCompatibleRequestsAndMatchesSoloBitwise) {
  ServeConfig cfg;
  cfg.startPaused = true;  // queue everything, then release: one batch
  cfg.maxBatch = 8;
  ServeEngine engine(cfg);

  const ProblemKey k = key(64, 16, 31);
  const std::vector<std::uint64_t> rhsSeeds = {101, 202, 303, 404};
  std::vector<ServeEngine::HandlePtr> handles;
  for (const std::uint64_t s : rhsSeeds) {
    handles.push_back(engine.submit(request(k, s)));
  }
  engine.resume();
  engine.drain();

  const Factorization f = factorOf(k);
  const ProblemGenerator gen(k.seed, k.n);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const RequestOutcome& o = handles[i]->wait();
    ASSERT_EQ(o.status, RequestStatus::kCompleted) << o.error;
    EXPECT_EQ(o.batchSize, static_cast<index_t>(rhsSeeds.size()));
    EXPECT_TRUE(o.converged);
    std::vector<std::vector<double>> xs;
    (void)solveManyMixedSingle(f, gen, {rhsSeeds[i]}, xs);
    ASSERT_EQ(handles[i]->solution().size(), xs[0].size());
    EXPECT_EQ(0, std::memcmp(handles[i]->solution().data(), xs[0].data(),
                             sizeof(double) * xs[0].size()))
        << "rhs seed " << rhsSeeds[i];
  }
  const ServeReport report = engine.report();
  EXPECT_EQ(report.completed, rhsSeeds.size());
  EXPECT_EQ(report.cache.factorCount, 1u);  // one batch, one factorization
  EXPECT_EQ(report.maxBatchSize, static_cast<index_t>(rhsSeeds.size()));
}

TEST(ServeEngineTest, LoneRequestsArePickedUpAtOnce) {
  // Work-conserving dispatch: a request that finds the worker idle starts
  // at once instead of waiting out a coalescing hold for batch-mates.
  ServeEngine engine(ServeConfig{});
  const ProblemKey k = key(32, 16, 4);
  double fastest = 1.0;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    const ServeEngine::HandlePtr h = engine.submit(request(k, 500 + s));
    const RequestOutcome& o = h->wait();
    ASSERT_EQ(o.status, RequestStatus::kCompleted) << o.error;
    EXPECT_EQ(o.batchSize, 1);
    fastest = std::min(fastest, o.queueWaitSeconds);
  }
  // The best of five wake-ups on a loaded host; a 1 ms hold never beats it.
  EXPECT_LT(fastest, 0.5e-3);
}

TEST(ServeEngineTest, RepeatedKeysHitTheCache) {
  ServeConfig cfg;
  ServeEngine engine(cfg);
  const ProblemKey k = key(32, 16, 5);
  for (std::uint64_t s = 1; s <= 6; ++s) {
    engine.submit(request(k, 1000 + s))->wait();
  }
  engine.drain();
  const ServeReport report = engine.report();
  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.cache.factorCount, 1u);
  EXPECT_GT(report.cache.hitRate(), 0.0);
}

TEST(ServeEngineTest, QueueFullRejectsImmediately) {
  ServeConfig cfg;
  cfg.queueDepth = 2;
  cfg.startPaused = true;
  ServeEngine engine(cfg);
  const ProblemKey k = key(32, 16, 6);
  const ServeEngine::HandlePtr a = engine.submit(request(k, 1));
  const ServeEngine::HandlePtr b = engine.submit(request(k, 2));
  const ServeEngine::HandlePtr c = engine.submit(request(k, 3));
  EXPECT_TRUE(c->done());  // rejected synchronously, while still paused
  EXPECT_EQ(c->wait().status, RequestStatus::kRejectedQueueFull);
  engine.resume();
  engine.drain();
  EXPECT_EQ(a->wait().status, RequestStatus::kCompleted);
  EXPECT_EQ(b->wait().status, RequestStatus::kCompleted);
  EXPECT_EQ(engine.report().rejectedQueueFull, 1u);
}

TEST(ServeEngineTest, RejectsKeysTheBackendCannotServe) {
  ServeEngine engine(ServeConfig{});
  ProblemKey distributed = key(64, 16, 1);
  distributed.pr = 2;
  const ServeEngine::HandlePtr gridHandle =
      engine.submit(request(distributed, 1));
  const RequestOutcome& grid = gridHandle->wait();
  EXPECT_EQ(grid.status, RequestStatus::kFailed);
  EXPECT_NE(grid.error.find("1x1"), std::string::npos);

  const ServeEngine::HandlePtr shapeHandle =
      engine.submit(request(key(0, 16, 1), 1));
  const RequestOutcome& shape = shapeHandle->wait();
  EXPECT_EQ(shape.status, RequestStatus::kFailed);
}

TEST(ServeEngineTest, LateRequestIsRejectedAtPickUp) {
  // A request that outwaits its budget in the queue is answered rejected
  // at pick-up, never solved late and never hung.
  ServeConfig cfg;
  cfg.startPaused = true;
  ServeEngine engine(cfg);
  const ServeEngine::HandlePtr h =
      engine.submit(request(key(32, 16, 7), 1, /*deadlineSeconds=*/0.001));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.resume();
  EXPECT_EQ(h->wait().status, RequestStatus::kRejectedDeadline);
  engine.drain();
  EXPECT_EQ(engine.report().rejectedDeadline, 1u);
}

TEST(ServeEngineTest, SlowFactorizationSurfacesAsDeadlineRejection) {
  // The second deadline check: a cold factorization that outlasts the
  // budget rejects the batch's requests instead of solving them late.
  ServeConfig cfg;
  cfg.defaultDeadlineSeconds = 0.005;
  cfg.factorOverride = [](const ProblemKey& k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const ProblemGenerator gen(k.seed, k.n);
    return factorStorageSingle(gen, k.b, Vendor::kAmd, k.precision);
  };
  ServeEngine engine(cfg);
  const ServeEngine::HandlePtr h = engine.submit(request(key(32, 16, 8), 1));
  const RequestOutcome& o = h->wait();
  EXPECT_EQ(o.status, RequestStatus::kRejectedDeadline);
  EXPECT_GT(o.factorSeconds, 0.0);
  engine.drain();
  EXPECT_EQ(engine.report().rejectedDeadline, 1u);
}

TEST(ServeEngineTest, FailedBatchIsAnsweredOnceWithItsError) {
  // One failure path: the engine runs a failed batch once and answers
  // every request in it kFailed with the error. Re-routing is the
  // fleet's job.
  ServeConfig cfg;
  cfg.startPaused = true;  // queue the requests, then release one batch
  std::atomic<int> runs{0};
  cfg.factorOverride = [&runs](const ProblemKey&) -> Factorization {
    runs.fetch_add(1);
    throw CheckError("injected factor failure");
  };
  ServeEngine engine(cfg);
  const ProblemKey k = key(32, 16, 9);
  std::vector<ServeEngine::HandlePtr> handles;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    handles.push_back(engine.submit(request(k, s)));
  }
  engine.resume();
  engine.drain();

  for (const ServeEngine::HandlePtr& h : handles) {
    const RequestOutcome& o = h->wait();
    EXPECT_EQ(o.status, RequestStatus::kFailed);
    EXPECT_NE(o.error.find("injected factor failure"), std::string::npos)
        << o.error;
  }
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(engine.report().failed, handles.size());
}

TEST(ServeEngineTest, StopAnswersEveryQueuedRequest) {
  // stop() without resume(): the stop flush dispatches the queue through
  // the normal worker path, so every admitted request is answered before
  // stop() returns.
  ServeConfig cfg;
  cfg.startPaused = true;
  ServeEngine engine(cfg);
  const ProblemKey a = key(32, 16, 72);
  const ProblemKey b = key(32, 16, 73);
  std::vector<ServeEngine::HandlePtr> handles;
  for (std::uint64_t s = 0; s < 6; ++s) {
    handles.push_back(engine.submit(request(s % 2 == 0 ? a : b, 700 + s)));
  }
  engine.stop();

  for (const ServeEngine::HandlePtr& h : handles) {
    ASSERT_TRUE(h->done());
    EXPECT_EQ(h->outcome().status, RequestStatus::kCompleted)
        << h->outcome().error;
  }
  EXPECT_EQ(engine.report().completed, handles.size());

  const Factorization f = factorOf(a);
  const ProblemGenerator gen(a.seed, a.n);
  std::vector<std::vector<double>> xs;
  (void)solveManyMixedSingle(f, gen, {700}, xs);
  ASSERT_EQ(handles[0]->solution().size(), xs[0].size());
  EXPECT_EQ(0, std::memcmp(handles[0]->solution().data(), xs[0].data(),
                           sizeof(double) * xs[0].size()));
}

TEST(ServeEngineTest, RejectsAnyWorkerCountButOne) {
  // An engine is one lane; a fleet scales by shards.
  for (const index_t workers : {0, 2, 4}) {
    ServeConfig cfg;
    cfg.workers = workers;
    EXPECT_THROW({ ServeEngine engine(cfg); }, CheckError)
        << workers << " workers";
  }
  EXPECT_NO_THROW({ ServeEngine engine(ServeConfig{}); });
}

TEST(ServeEngineTest, RunsOneBatchAtATime) {
  // The lane fleetsim models per shard: eight distinct keys queued on a
  // paused engine are factored one after another, never two at once.
  ServeConfig cfg;
  cfg.startPaused = true;
  std::atomic<int> inside{0};
  std::atomic<int> overlaps{0};  // entries while another was inside
  cfg.factorOverride = [&](const ProblemKey& k) {
    if (inside.fetch_add(1) > 0) {
      overlaps.fetch_add(1);
    }
    // Long enough for a second lane, were there one, to enter too.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const ProblemGenerator gen(k.seed, k.n);
    Factorization f = factorStorageSingle(gen, k.b, Vendor::kAmd, k.precision);
    inside.fetch_sub(1);
    return f;
  };
  ServeEngine engine(cfg);
  std::vector<ServeEngine::HandlePtr> handles;
  for (std::uint64_t s = 0; s < 8; ++s) {
    handles.push_back(engine.submit(request(key(32, 16, 90 + s), 1)));
  }
  engine.resume();
  engine.drain();

  for (const ServeEngine::HandlePtr& h : handles) {
    EXPECT_EQ(h->wait().status, RequestStatus::kCompleted) << h->wait().error;
  }
  EXPECT_EQ(overlaps.load(), 0);
  const ServeReport report = engine.report();
  EXPECT_EQ(report.cache.factorCount, 8u);
  EXPECT_EQ(report.cache.misses, 8u);
}

// ----------------------------------------------------------------- CLI --

TEST(CmdServe, ReplayReportsAndVerifiesBitwise) {
  const std::string jsonPath = "test_serve_report.json";
  // serve.batch=2 caps coalescing below the 5 requests per key, so each
  // key dispatches several batches and the second onward is a cache hit
  // no matter how the scheduler interleaves arrivals with the worker.
  const int rc = cli::cmdServe(cli::Options::parseArgs(
      {"--requests=10", "--keys=2", "--gap-ms=0.2", "--n=48", "--b=16",
       "--serve.batch=2", "--json", jsonPath, "--verify=3"}));
  EXPECT_EQ(rc, 0);

  std::ifstream in(jsonPath);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(jsonPath.c_str());

  const JsonValue report = JsonValue::parse(text.str());
  EXPECT_EQ(report.get("completed").asNumber(), 10.0);
  EXPECT_GT(report.get("cache_hit_rate").asNumber(), 0.0);
  EXPECT_EQ(report.get("factor_count").asNumber(), 2.0);
  EXPECT_GE(report.get("queue_wait_ms").get("p99").asNumber(), 0.0);
  EXPECT_GE(report.get("solve_ms").get("p99").asNumber(), 0.0);
  EXPECT_GE(report.get("total_ms").get("p50").asNumber(), 0.0);
}

}  // namespace
}  // namespace hplmxp::serve
