// Serving benchmark: throughput/latency of the solver-as-a-service engine.
//
// Three sweeps, all on synthetic open-loop traces over repeated problem
// keys (the serving analogue of the paper's factor-once economics):
//   1. batching   — a stream dense enough that requests queue while the
//                   worker solves, with batch caps of 1 and 8: what
//                   multi-RHS batching buys under work-conserving dispatch.
//   2. cache      — key working set smaller vs. larger than the factor
//                   cache budget: hit-rate and its latency cliff.
//   3. fleet      — the same stream over 1/2/3 shards, one run degraded.
//
// Writes BENCH_serve.json: the final section of each sweep plus the full
// latency report of the headline run (queue-wait and solve-time
// p50/p95/p99 — the fields the serve-smoke CI job asserts exist).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "serve/engine.h"
#include "serve/fleet/fleet.h"
#include "serve/trace_io.h"
#include "util/table.h"

namespace hplmxp {
namespace {

using serve::RequestTrace;
using serve::ServeConfig;
using serve::ServeEngine;
using serve::ServeReport;
using serve::SolveRequest;
using serve::TraceRequest;

/// Replays `trace` open-loop through a fresh engine and returns the report.
ServeReport replay(const RequestTrace& trace, ServeConfig cfg) {
  ServeEngine engine(std::move(cfg));
  Timer clock;
  for (const TraceRequest& tr : trace.requests) {
    const double at = tr.atMs * 1e-3;
    const double nowS = clock.seconds();
    if (at > nowS) {
      std::this_thread::sleep_for(std::chrono::duration<double>(at - nowS));
    }
    SolveRequest req;
    req.key = {tr.n, tr.b, tr.seed, tr.pr, tr.pc};
    req.rhsSeed = tr.rhsSeed;
    req.deadlineSeconds = tr.deadlineMs * 1e-3;
    engine.submit(req);
  }
  engine.drain();
  ServeReport r = engine.report();
  r.trace = trace.name;
  return r;
}

/// Replays `trace` through a sharded fleet, optionally breaking
/// shard 0 for the middle third of the arrivals (drain + re-route).
serve::FleetReport fleetReplay(const RequestTrace& trace,
                               serve::FleetConfig cfg, bool degrade) {
  serve::FleetEngine fleet(std::move(cfg));
  Timer clock;
  const std::size_t total = trace.requests.size();
  for (std::size_t i = 0; i < total; ++i) {
    if (degrade && i == total / 3) {
      fleet.breakShard(0);
    }
    if (degrade && i == 2 * total / 3) {
      fleet.unbreakShard(0);
    }
    const TraceRequest& tr = trace.requests[i];
    const double at = tr.atMs * 1e-3;
    const double nowS = clock.seconds();
    if (at > nowS) {
      std::this_thread::sleep_for(std::chrono::duration<double>(at - nowS));
    }
    SolveRequest req;
    req.key = {tr.n, tr.b, tr.seed, tr.pr, tr.pc};
    req.rhsSeed = tr.rhsSeed;
    req.deadlineSeconds = tr.deadlineMs * 1e-3;
    fleet.submit(req);
  }
  fleet.drain();
  serve::FleetReport r = fleet.report();
  r.trace = trace.name;
  return r;
}

}  // namespace
}  // namespace hplmxp

int main() {
  using namespace hplmxp;
  bench::banner("BENCH serve", "solver-as-a-service: factor cache, request "
                               "batching, multi-RHS refinement");

  const index_t kRequests = 48;
  const index_t kKeys = 3;
  const index_t kN = 96;
  const index_t kB = 16;

  // Sweep 1: batch cap. Arrivals 20 us apart outpace the worker, so the
  // requests that queue during one solve leave together in the next.
  Table batching({"max batch", "mean batch", "throughput r/s", "p50 ms",
                  "p99 ms", "hit rate"});
  ServeReport headline;
  for (const index_t maxBatch : {index_t{1}, index_t{8}}) {
    ServeConfig cfg;
    cfg.maxBatch = maxBatch;
    const ServeReport r =
        replay(serve::makeSyntheticTrace(kRequests, kKeys, 0.02, kN, kB, 21),
               std::move(cfg));
    batching.addRow({Table::num((long long)maxBatch),
                     Table::num(r.meanBatchSize, 2),
                     Table::num(r.throughputRps, 1),
                     Table::num(r.total.p50Ms, 2), Table::num(r.total.p99Ms, 2),
                     Table::num(r.cache.hitRate() * 100.0, 1) + "%"});
    if (maxBatch == 8) {
      headline = r;
    }
  }
  batching.print();

  // Sweep 2: factor-cache working set vs. budget. One n=96 FP32 panel set
  // is ~36 KB; a 64 KB budget holds one key, a 64 MB budget holds all.
  // At 64 KB the keys take turns, so a newcomer rarely out-counts the
  // resident and is declined: the resident keeps hitting, where admitting
  // every miss would refactor at every lookup.
  Table cache({"cache budget", "keys", "factorizations", "hit rate",
               "evictions", "declined", "p99 ms"});
  for (const std::size_t budget :
       {std::size_t{64} << 10, std::size_t{64} << 20}) {
    ServeConfig cfg;
    cfg.cacheBytes = budget;
    const ServeReport r =
        replay(serve::makeSyntheticTrace(kRequests, kKeys, 0.25, kN, kB, 21),
               std::move(cfg));
    cache.addRow({Table::num((long long)(budget >> 10)) + " KB",
                  Table::num((long long)kKeys),
                  Table::num((long long)r.cache.factorCount),
                  Table::num(r.cache.hitRate() * 100.0, 1) + "%",
                  Table::num((long long)r.cache.evictions),
                  Table::num((long long)r.cache.declined),
                  Table::num(r.total.p99Ms, 2)});
  }
  cache.print();

  // Sweep 3: the sharded fleet. The same stream over 1/2/3 shards, plus a
  // degraded 3-shard run with shard 0 broken for the middle third
  // of the arrivals. Answers are bitwise-invariant to sharding
  // (tests/test_fleet.cpp proves it); this sweep records what sharding
  // costs and what degradation does to the ledger — dropped must be 0 in
  // every row.
  Table fleetSweep({"fleet", "completed", "p50 ms", "p99 ms", "hit rate",
                    "reroutes", "dropped"});
  for (const index_t shards : {index_t{1}, index_t{2}, index_t{3}}) {
    for (const bool degrade : {false, true}) {
      if (degrade && shards < 3) {
        continue;
      }
      serve::FleetConfig cfg;
      cfg.shards = shards;
      const serve::FleetReport r = fleetReplay(
          serve::makeSyntheticTrace(kRequests, kKeys, 0.25, kN, kB, 21),
          std::move(cfg), degrade);
      fleetSweep.addRow(
          {Table::num((long long)shards) + " shard" + (shards > 1 ? "s" : "") +
               (degrade ? " (degraded)" : ""),
           Table::num((long long)r.fleet.completed),
           Table::num(r.fleet.total.p50Ms, 2),
           Table::num(r.fleet.total.p99Ms, 2),
           Table::num(r.fleet.cache.hitRate() * 100.0, 1) + "%",
           Table::num((long long)r.reroutes),
           Table::num((long long)r.dropped)});
    }
  }
  fleetSweep.print();

  headline.trace = "bench-serve-headline";
  serve::writeReportFile("BENCH_serve.json", headline.toJson());
  std::printf("\nwrote BENCH_serve.json (headline: %.1f req/s, hit rate "
              "%.0f%%, total p99 %.2f ms)\n",
              headline.throughputRps, headline.cache.hitRate() * 100.0,
              headline.total.p99Ms);
  return 0;
}
