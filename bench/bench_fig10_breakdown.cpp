// Fig. 10: per-iteration timing breakdown of the components on Frontier
// with 64 GCDs — the progress-report output of the paper's monitoring
// mechanism. Shows the benchmark is compute bound until the final trailing
// iterations, where communication wait dominates.
#include <vector>

#include "bench_util.h"
#include "core/dist_context.h"
#include "core/dist_kernels.h"
#include "core/hplai.h"
#include "core/lu_dist.h"
#include "device/shim.h"
#include "gen/matgen.h"
#include "simmpi/runtime.h"
#include "trace/progress.h"
#include "trace/sched_timeline.h"
#include "util/buffer.h"
#include "util/timer.h"

using namespace hplmxp;

namespace {

/// Factors one functional problem under the given scheduler, returning
/// (seconds, scheduler timeline stats from rank 0).
std::pair<double, TaskGraph::ExecStats> timeFactorization(
    HplaiConfig cfg, HplaiConfig::Scheduler sched) {
  cfg.scheduler = sched;
  double seconds = 0.0;
  TaskGraph::ExecStats stats;
  simmpi::run(cfg.worldSize(), [&](simmpi::Comm& world) {
    DistContext ctx(world, cfg);
    const ProblemGenerator gen(cfg.seed, cfg.n);
    const index_t lda = ctx.localRows();
    Buffer<float> local(ctx.localRows() * ctx.localCols());
    fillOwnedTiles(ctx, gen, local.data(), lda);
    BlasShim shim(cfg.vendor);
    DistLU lu(ctx, cfg, shim);
    world.barrier();
    Timer timer;
    lu.factor(local.data(), lda);
    world.barrier();
    if (world.rank() == 0) {
      seconds = timer.seconds();
      stats = lu.schedStats();
    }
  });
  return {seconds, stats};
}

}  // namespace

int main() {
  bench::banner("Fig. 10",
                "Per-iteration breakdown, Frontier 64 GCDs (model)");

  ScaleSimConfig cfg = bench::frontierEvalConfig();
  cfg.pr = cfg.pc = 8;
  cfg.qr = 2;
  cfg.qc = 4;
  cfg.recordIterations = true;
  const ScaleSimResult r = simulateRun(cfg);

  Table t({"iter", "trailing", "getrf ms", "diag ms", "trsm ms", "cast ms",
           "bcast ms", "gemm ms", "iter ms", "bound"});
  const index_t nb = static_cast<index_t>(r.iterations.size());
  const index_t step = std::max<index_t>(1, nb / 16);
  for (index_t k = 0; k < nb; k += step) {
    const SimIteration& it = r.iterations[static_cast<std::size_t>(k)];
    t.addRow({Table::num((long long)it.k),
              Table::num((long long)(nb - it.k - 1)),
              Table::num(it.getrfSeconds * 1e3, 2),
              Table::num(it.diagBcastSeconds * 1e3, 2),
              Table::num(it.trsmSeconds * 1e3, 2),
              Table::num(it.castSeconds * 1e3, 2),
              Table::num(it.panelBcastSeconds * 1e3, 2),
              Table::num(it.gemmSeconds * 1e3, 2),
              Table::num(it.iterSeconds * 1e3, 2),
              it.commBound ? "comm" : "compute"});
  }
  t.addRow({Table::num((long long)(nb - 1)), "0",
            Table::num(r.iterations.back().getrfSeconds * 1e3, 2),
            Table::num(r.iterations.back().diagBcastSeconds * 1e3, 2),
            Table::num(r.iterations.back().trsmSeconds * 1e3, 2),
            Table::num(r.iterations.back().castSeconds * 1e3, 2),
            Table::num(r.iterations.back().panelBcastSeconds * 1e3, 2),
            Table::num(r.iterations.back().gemmSeconds * 1e3, 2),
            Table::num(r.iterations.back().iterSeconds * 1e3, 2),
            r.iterations.back().commBound ? "comm" : "compute"});
  t.print();

  std::printf("\ncompute-bound fraction: %.1f%% of iterations "
              "(paper: \"computational bounded until the final trailing "
              "iterations\")\n",
              (1.0 - r.commBoundFraction) * 100.0);

  // Early-termination demonstration: feed the breakdown into the monitor
  // with the model as the reference, then inject a fabric stall.
  bench::banner("Sec. VI-B", "Progress monitor / early termination demo");
  ProgressMonitor mon(ProgressPolicy{.slowdownFactor = 2.0, .strikes = 3},
                      [&](index_t k) {
                        return r.iterations[static_cast<std::size_t>(k)]
                            .iterSeconds;
                      });
  index_t terminatedAt = -1;
  for (index_t k = 0; k < nb; ++k) {
    double observed = r.iterations[static_cast<std::size_t>(k)].iterSeconds;
    if (k >= nb / 2) {
      observed *= 10.0;  // injected fabric hang at mid-run
    }
    if (mon.observe(k, observed) == ProgressVerdict::kTerminate) {
      terminatedAt = k;
      break;
    }
  }
  std::printf("injected a 10x slowdown at iteration %lld; monitor "
              "terminated the run at iteration %lld (3 strikes), saving "
              "%.0f%% of the remaining node-hours.\n",
              (long long)(nb / 2), (long long)terminatedAt,
              (1.0 - (double)terminatedAt / (double)nb) * 100.0);

  // Scheduler comparison on the functional substrate: the same problem
  // factored by the bulk (barriered) engine and by the dataflow task
  // graph, with the per-task timeline showing where the dataflow engine
  // hides communication and what the lanes did.
  bench::banner("Scheduler", "bulk vs dataflow tile task graph (functional)");
  HplaiConfig fcfg;
  fcfg.n = 1024;
  fcfg.b = 64;
  fcfg.pr = 2;
  fcfg.pc = 2;
  fcfg.seed = 2022;
  fcfg.panelBcast = simmpi::BcastStrategy::kRing2M;
  fcfg.lookahead = true;

  const auto [bulkSeconds, bulkStats] =
      timeFactorization(fcfg, HplaiConfig::Scheduler::kBulk);
  const auto [dfSeconds, dfStats] =
      timeFactorization(fcfg, HplaiConfig::Scheduler::kDataflow);

  Table cmp({"scheduler", "factor s", "speedup"});
  cmp.addRow({"bulk", Table::num(bulkSeconds, 4), "1.00"});
  cmp.addRow({"dataflow", Table::num(dfSeconds, 4),
              Table::num(dfSeconds > 0.0 ? bulkSeconds / dfSeconds : 0.0,
                         2)});
  cmp.print();

  std::printf("\nrank-0 dataflow timeline:\n%s\n",
              trace::renderSchedTimeline(
                  trace::summarizeSchedTimeline(dfStats))
                  .c_str());
  Table kinds({"task kind", "count", "seconds"});
  for (const trace::SchedKindBreakdown& row :
       trace::schedKindBreakdown(dfStats)) {
    kinds.addRow({toString(row.kind),
                  Table::num(static_cast<long long>(row.count)),
                  Table::num(row.seconds, 4)});
  }
  kinds.print();
  return 0;
}
