// serve_zipf: the sharded serve fleet under a closed loop of 4 callers.
//
// serve::FleetEngine with 2 shards at fleet defaults (2-rank groups, one
// worker per shard, hedging off, health monitor on) and one pool lane
// (HPLMXP_THREADS=1), so at most the two shard workers compute at once.
// Requests name n=256, b=64, fp16 problems whose matrix seed is drawn
// Zipf(s=1.1) over 64 keys, each with a fresh rhs seed; one generator
// thread keeps 4 requests outstanding and replaces each as soon as it is
// answered (callers are solver codes that wait for their answer). The
// 8 MiB fleet cache holds about half the working set's factors, so hits
// (cached factor, batched multi-RHS IR) and misses (factor job on the
// shard's rank group, then eviction) mix.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "blas/trsm.h"
#include "core/single_solver.h"
#include "gen/matgen.h"
#include "harness.h"
#include "serve/fleet/fleet.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using hplmxp::index_t;
namespace serve = hplmxp::serve;

constexpr index_t kN = 256;
constexpr index_t kB = 64;
constexpr index_t kKeys = 64;
constexpr double kZipfS = 1.1;
constexpr std::size_t kOutstanding = 4;
constexpr std::chrono::microseconds kPoll{100};
constexpr index_t kShards = 2;
constexpr std::size_t kCacheBytes = std::size_t{8} << 20;
constexpr index_t kWarmKeys = 32;  // the hottest keys, about what fits
constexpr int kSetups = 5;
constexpr std::size_t kVerifySample = 8;
constexpr std::size_t kVerifyStride = 97;  // sample every 97th request
constexpr int kProbeReps = 7;

// Zipf(s) over key ranks 0..kKeys-1 (P(k) ~ 1/(k+1)^s), drawn by inverting
// the CDF with a seeded 64-bit generator: the same seed, the same keys.
class ZipfKeys {
 public:
  explicit ZipfKeys(std::uint64_t seed) : rng_(seed) {
    double total = 0.0;
    for (index_t k = 0; k < kKeys; ++k) {
      total += std::pow(static_cast<double>(k + 1), -kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  index_t next() {
    const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<index_t>(static_cast<index_t>(it - cdf_.begin()),
                             kKeys - 1);
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> cdf_;
};

// The 64 problems are the same for every workload seed (matrix seeds
// 1..64, hottest first): the seed draws the traffic over them, not the
// problems, so each run routes the same keys to the same shards.
serve::ProblemKey keyOf(index_t rank) {
  serve::ProblemKey key;
  key.n = kN;
  key.b = kB;
  key.seed = static_cast<std::uint64_t>(rank) + 1;
  key.precision = hplmxp::lowp::StoragePrecision::kFp16;
  return key;
}

serve::FleetConfig fleetConfig() {
  serve::FleetConfig config;
  config.shards = kShards;
  config.groupSize = 2;
  config.fleetCacheBytes = kCacheBytes;
  config.shard.workers = 1;
  config.hedge.enabled = false;
  config.healthMonitor.enabled = true;
  return config;
}

struct Answer {
  index_t keyRank = 0;
  double submitAt = 0.0;  // wall stamp just before FleetEngine::submit
  serve::RequestOutcome outcome;
  std::vector<double> solution;  // kept for the sampled requests only
};

// Runs requests from `next` (which returns false when the stream ends)
// keeping kOutstanding in flight until `seconds` pass, then drains. A
// request is replaced as soon as it is answered, whichever it is: the
// generator polls the in-flight handles and sleeps kPoll when none is
// done. Each answer's latency is the fleet's own submit-to-publish time,
// so the polling adds nothing to it.
template <typename Next>
std::vector<Answer> closedLoop(serve::FleetEngine& fleet, Next&& next,
                               double seconds, bool sample) {
  struct InFlight {
    Answer answer;
    serve::FleetEngine::HandlePtr handle;
  };
  std::vector<InFlight> inFlight;
  std::vector<Answer> answers;
  const double start = now();
  bool open = true;
  while (true) {
    while (open && inFlight.size() < kOutstanding) {
      serve::SolveRequest request;
      index_t rank = 0;
      if (now() - start >= seconds || !next(request, rank)) {
        open = false;
        break;
      }
      InFlight f;
      f.answer.keyRank = rank;
      f.answer.submitAt = now();
      f.handle = fleet.submit(request);
      inFlight.push_back(std::move(f));
    }
    if (inFlight.empty()) {
      break;
    }
    const auto done =
        std::find_if(inFlight.begin(), inFlight.end(),
                     [](const InFlight& f) { return f.handle->done(); });
    if (done == inFlight.end()) {
      std::this_thread::sleep_for(kPoll);
      continue;
    }
    InFlight f = std::move(*done);
    inFlight.erase(done);
    f.answer.outcome = f.handle->wait();
    if (sample && answers.size() % kVerifyStride == 0 &&
        answers.size() / kVerifyStride < kVerifySample) {
      f.answer.solution = f.handle->solution();
    }
    answers.push_back(std::move(f.answer));
  }
  return answers;
}

// One warm-up pass: the kWarmKeys hottest keys once each.
void warm(serve::FleetEngine& fleet, std::uint64_t seed) {
  index_t rank = 0;
  closedLoop(
      fleet,
      [&](serve::SolveRequest& request, index_t& keyRank) {
        if (rank >= kWarmKeys) {
          return false;
        }
        keyRank = rank;
        request.key = keyOf(rank);
        request.rhsSeed = (seed << 32) + (std::uint64_t{1} << 31) +
                          static_cast<std::uint64_t>(rank);
        ++rank;
        return true;
      },
      std::numeric_limits<double>::infinity(), false);
  fleet.drain();
}

std::string countersJson(const serve::FleetReport& r) {
  serve::FactorCache::Stats cache;
  std::vector<double> routed;
  std::uint64_t groupJobs = 0;
  for (const serve::ShardReport& s : r.perShard) {
    cache.lookups += s.report.cache.lookups;
    cache.hits += s.report.cache.hits;
    cache.misses += s.report.cache.misses;
    cache.coalesced += s.report.cache.coalesced;
    cache.evictions += s.report.cache.evictions;
    cache.factorCount += s.report.cache.factorCount;
    routed.push_back(static_cast<double>(s.routed));
    groupJobs += s.groupJobs;
  }
  return JsonObject()
      .count("lookups", cache.lookups)
      .count("hits", cache.hits)
      .count("misses", cache.misses)
      .count("coalesced", cache.coalesced)
      .count("evictions", cache.evictions)
      .count("factors", cache.factorCount)
      .count("group_jobs", groupJobs)
      .raw("routed", jsonNumbers(routed))
      .count("affinity_hits", r.affinityHits)
      .count("reroutes", r.reroutes)
      .count("health_detours", r.healthDetours)
      .count("quarantines", r.quarantines)
      .count("failovers", r.failovers)
      .count("submitted", r.submitted)
      .count("answered", r.answered)
      .count("dropped", r.dropped)
      .count("double_answered", r.doubleAnswered)
      .str();
}

std::string answerJson(const Answer& a) {
  const serve::RequestOutcome& o = a.outcome;
  return JsonObject()
      .count("key", static_cast<std::uint64_t>(a.keyRank))
      .text("status", serve::toString(o.status))
      .flag("converged", o.converged)
      .num("total_s", o.totalSeconds)
      .num("queue_s", o.queueWaitSeconds)
      .num("factor_s", o.factorSeconds)
      .num("solve_s", o.solveSeconds)
      .flag("hit", o.cacheHit)
      .count("batch", static_cast<std::uint64_t>(o.batchSize))
      .count("ir_iterations", static_cast<std::uint64_t>(o.irIterations))
      .str();
}

// A completed request's span and, inside it, the queue / factor / solve
// intervals the fleet reports, laid end to end from the submit stamp; the
// request's self time is routing, hand-off and publish.
void recordRequestSpans(SpanRecorder& spans, const Answer& a,
                        std::uint64_t op) {
  const serve::RequestOutcome& o = a.outcome;
  const double start = a.submitAt;
  const std::uint64_t request =
      spans.add("serve.request", start, start + o.totalSeconds, op);
  if (o.status != serve::RequestStatus::kCompleted) {
    return;
  }
  double t = start;
  for (const auto& [name, seconds] :
       {std::pair{"serve.queue", o.queueWaitSeconds},
        std::pair{"serve.factor", o.factorSeconds},
        std::pair{"serve.solve", o.solveSeconds}}) {
    spans.add(name, t, t + seconds, op, request, true);
    t += seconds;
  }
}

// Standalone calls at the workload's shape (n=256, b=64) on the one pool
// lane: what a miss and a hit cost without the fleet around them.
void probe(std::uint64_t seed, JsonObject& doc, SpanRecorder& spans) {
  const hplmxp::ProblemGenerator gen(keyOf(0).seed, kN);
  const hplmxp::Vendor vendor = serve::ServeConfig{}.vendor;
  const auto precision = hplmxp::lowp::StoragePrecision::kFp16;
  JsonObject probes;

  // One residual's FP64 rows regenerated one at a time, as every IR pass
  // of solveManyMixedSingle does.
  std::vector<double> row(static_cast<std::size_t>(kN));
  probes.raw("row_regen", jsonNumbers(timeReps(kProbeReps, spans,
                                               "probe.gen.row_regen", [&] {
    for (index_t i = 0; i < kN; ++i) {
      gen.fillTile<double>(i, 0, 1, kN, row.data(), 1);
    }
  })));

  hplmxp::Factorization f;
  probes.raw("factor_single",
             jsonNumbers(timeReps(kProbeReps, spans,
                                  "probe.core.factor_single", [&] {
               f = hplmxp::factorStorageSingle(gen, kB, vendor, precision);
             })));

  std::vector<std::vector<double>> xs;
  const std::uint64_t rhs0 = (seed << 32) + (std::uint64_t{3} << 30);
  probes.raw("solve_k1",
             jsonNumbers(timeReps(kProbeReps, spans, "probe.core.solve_k1",
                                  [&] {
                                    hplmxp::solveManyMixedSingle(
                                        f, gen, {rhs0}, xs);
                                  })));
  probes.raw("solve_k4",
             jsonNumbers(timeReps(kProbeReps, spans, "probe.core.solve_k4",
                                  [&] {
                                    hplmxp::solveManyMixedSingle(
                                        f, gen,
                                        {rhs0, rhs0 + 1, rhs0 + 2, rhs0 + 3},
                                        xs);
                                  })));

  // The two triangular solves of one correction step, 4 columns.
  constexpr index_t kRhs = 4;
  std::vector<double> fresh(static_cast<std::size_t>(kN * kRhs));
  for (index_t c = 0; c < kRhs; ++c) {
    hplmxp::ProblemGenerator(rhs0 + static_cast<std::uint64_t>(c), kN)
        .fillRhs<double>(0, kN, fresh.data() + c * kN);
  }
  std::vector<double> x;
  std::vector<double> trsmSecs;
  for (int r = 0; r < kProbeReps; ++r) {
    x = fresh;
    const double t0 = now();
    hplmxp::blas::strsmMixed(hplmxp::blas::Uplo::kLower,
                             hplmxp::blas::Diag::kUnit, kN, kRhs,
                             f.lu.data(), kN, x.data(), kN);
    hplmxp::blas::strsmMixed(hplmxp::blas::Uplo::kUpper,
                             hplmxp::blas::Diag::kNonUnit, kN, kRhs,
                             f.lu.data(), kN, x.data(), kN);
    const double t1 = now();
    spans.add("probe.blas.strsm_mixed", t0, t1, 0);
    trsmSecs.push_back(t1 - t0);
  }
  probes.raw("strsm_mixed", jsonNumbers(trsmSecs));
  doc.raw("probes", probes.str());
}

}  // namespace

void runServeZipf(const Options& options, JsonObject& doc,
                  SpanRecorder* spans) {
  const index_t lanes = hplmxp::ThreadPool::global().laneCount();
  if (lanes != 1) {
    throw std::runtime_error("serve_zipf needs HPLMXP_THREADS=1 (pool has " +
                             std::to_string(lanes) + " lanes)");
  }
  const serve::FleetConfig config = fleetConfig();

  // Set-up: fleet construction (rank groups, shard engines, routing) plus
  // a warm-up pass over the hottest keys, repeated so the run's median
  // rests on enough samples; the last fleet serves.
  std::vector<double> setup;
  std::unique_ptr<serve::FleetEngine> fleet;
  for (int r = 0; r < kSetups; ++r) {
    fleet.reset();
    const double t0 = now();
    fleet = std::make_unique<serve::FleetEngine>(config);
    warm(*fleet, options.seed);
    setup.push_back(now() - t0);
    if (spans != nullptr) {
      spans->add("serve.setup", t0, now(), 0);
    }
  }
  const serve::FleetReport warmReport = fleet->report();

  ZipfKeys zipf(options.seed);
  std::uint64_t sent = 0;
  const double windowStart = now();
  const std::vector<Answer> answers = closedLoop(
      *fleet,
      [&](serve::SolveRequest& request, index_t& keyRank) {
        keyRank = zipf.next();
        request.key = keyOf(keyRank);
        request.rhsSeed = (options.seed << 32) + sent++;
        return true;
      },
      options.seconds, true);
  const double window = now() - windowStart;
  // A handle resolves before the fleet counts the answer; drain so the
  // report sees every answer counted.
  fleet->drain();
  const serve::FleetReport endReport = fleet->report();

  Checks checks;
  checks.add("serve.ledger",
             endReport.answered == endReport.submitted &&
                 endReport.dropped == 0 && endReport.doubleAnswered == 0,
             "submitted " + std::to_string(endReport.submitted) +
                 ", answered " + std::to_string(endReport.answered) +
                 ", dropped " + std::to_string(endReport.dropped) +
                 ", double-answered " +
                 std::to_string(endReport.doubleAnswered));
  std::uint64_t lookups = 0;
  std::uint64_t hitsAndMisses = 0;
  for (const serve::ShardReport& s : endReport.perShard) {
    lookups += s.report.cache.lookups;
    hitsAndMisses += s.report.cache.hits + s.report.cache.misses;
  }
  checks.add("serve.cache_lookups",
             hitsAndMisses == lookups && endReport.cacheLookupInvariant,
             "hits + misses " + std::to_string(hitsAndMisses) +
                 ", lookups " + std::to_string(lookups));

  // Sampled answers against a direct factor + single-RHS refinement of the
  // same (key, rhs seed).
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  const hplmxp::Vendor vendor = config.shard.vendor;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    if (a.solution.empty()) {
      continue;
    }
    const serve::ProblemKey key = keyOf(a.keyRank);
    const hplmxp::ProblemGenerator gen(key.seed, key.n);
    const hplmxp::Factorization f =
        hplmxp::factorStorageSingle(gen, key.b, vendor, key.precision);
    std::vector<std::vector<double>> xs;
    hplmxp::solveManyMixedSingle(f, gen, {a.outcome.rhsSeed}, xs,
                                 config.shard.maxIrIterations);
    ++checked;
    if (xs.front() != a.solution) {
      ++mismatched;
    }
  }
  checks.add("serve.sample_bitwise", checked > 0 && mismatched == 0,
             std::to_string(checked) + " answers re-solved directly, " +
                 std::to_string(mismatched) + " differ");

  std::vector<std::string> answerItems;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    answerItems.push_back(answerJson(answers[i]));
    if (spans != nullptr) {
      recordRequestSpans(*spans, answers[i], i + 1);
    }
  }
  doc.raw("env",
          JsonObject()
              .count("nproc", std::thread::hardware_concurrency())
              .count("pool_lanes", static_cast<std::uint64_t>(lanes))
              .count("rank_threads",
                     static_cast<std::uint64_t>(kShards * config.groupSize))
              .count("shard_workers", static_cast<std::uint64_t>(
                                          kShards * config.shard.workers))
              .count("outstanding", kOutstanding)
              .count("keys", kKeys)
              .count("n", kN)
              .count("b", kB)
              .count("cache_bytes", kCacheBytes)
              .str())
      .raw("setup_s", jsonNumbers(setup))
      .num("window_s", window)
      .raw("counters_warm", countersJson(warmReport))
      .raw("counters_end", countersJson(endReport))
      .raw("requests", jsonArray(answerItems));
  if (spans != nullptr) {
    probe(options.seed, doc, *spans);
  }
  doc.raw("checks", checks.json());
}

}  // namespace perfbench
