// Factor-once / solve-many through the serving stack.
//
// The mixed-precision factorization is the expensive artifact (O(N^3)
// flops); each refined right-hand side against it is cheap (O(N^2)). This
// example submits a burst of requests for a handful of problems through
// the ServeEngine and shows the economics: one factorization per distinct
// ProblemKey, every later request a cache hit, compatible requests
// coalesced into blocked multi-RHS refinement.
//
// Build & run:
//   cmake -B build -S . && cmake --build build --target solve_service
//   ./build/examples/solve_service
#include <cstdio>
#include <vector>

#include "serve/engine.h"

int main() {
  using namespace hplmxp;
  using namespace hplmxp::serve;

  ServeConfig config;
  config.maxBatch = 8;
  config.startPaused = true;  // queue the whole burst, then release it
  ServeEngine engine(config);

  // 12 requests over 2 distinct problems: 2 factorizations total.
  std::vector<ServeEngine::HandlePtr> handles;
  for (std::uint64_t i = 0; i < 12; ++i) {
    SolveRequest request;
    request.key.n = 128;
    request.key.b = 32;
    request.key.seed = 40 + (i % 2);  // alternate between two keys
    request.rhsSeed = 1000 + i;      // every request its own rhs
    handles.push_back(engine.submit(request));
  }
  engine.resume();
  engine.drain();

  std::printf("request  key-seed  rhs-seed  status     hit  batch  iters\n");
  for (const ServeEngine::HandlePtr& handle : handles) {
    const RequestOutcome& o = handle->wait();
    std::printf("%7llu  %8llu  %8llu  %-9s  %3s  %5lld  %5lld\n",
                (unsigned long long)o.id, (unsigned long long)o.key.seed,
                (unsigned long long)o.rhsSeed, toString(o.status),
                o.cacheHit ? "yes" : "no", (long long)o.batchSize,
                (long long)o.irIterations);
  }

  const ServeReport report = engine.report();
  std::printf("\n%llu requests served by %llu factorization(s); cache hit "
              "rate %.0f%%, mean batch %.1f\n",
              (unsigned long long)report.completed,
              (unsigned long long)report.cache.factorCount,
              report.cache.hitRate() * 100.0, report.meanBatchSize);
  report.toTable().print();
  return report.completed == handles.size() ? 0 : 1;
}
