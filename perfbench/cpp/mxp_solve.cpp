// mxp_solve: the paper's benchmark in a closed loop of one caller.
//
// Back-to-back runHplai at N=2048, B=128 on a 2x1 rank grid with the
// HplaiConfig defaults (bulk scheduler, look-ahead, classical IR). The pool
// has one lane (HPLMXP_THREADS=1), so the two rank threads are the only
// compute threads. Solve i uses matrix seed (workload seed + i): every
// solve generates, factors and refines a fresh matrix.
//
// A traced run also records rank 0's per-step phase times (collectTrace)
// and every rank's per-step barrier wait (rankProgressCallback), and times
// standalone blas / simmpi calls at the solve's own step-0 shapes.
#include <algorithm>
#include <stdexcept>
#include <thread>

#include "blas/cast.h"
#include "blas/gemm.h"
#include "blas/getrf.h"
#include "blas/trsm.h"
#include "core/hplai.h"
#include "gen/matgen.h"
#include "harness.h"
#include "perfmodel/autotune.h"
#include "perfmodel/runtime_model.h"
#include "simmpi/ring_bcast.h"
#include "simmpi/runtime.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using hplmxp::half16;
using hplmxp::HplaiConfig;
using hplmxp::index_t;

constexpr index_t kN = 2048;
constexpr index_t kB = 128;
constexpr index_t kPr = 2;
constexpr index_t kPc = 1;
constexpr int kSetups = 5;
constexpr int kProbeReps = 7;  // odd: the median is one sample
// Warm-up matrices come from seeds no timed solve of any workload seed
// below 2^40 reaches.
constexpr std::uint64_t kWarmSeedOffset = std::uint64_t{1} << 40;

struct SolveRecord {
  double start = 0.0;
  double end = 0.0;
  hplmxp::HplaiResult result;
  std::string solution;  // hash of the FP64 solution vector
  std::string error;
  std::vector<double> waitSums;  // per rank, summed over steps (traced)
};

SolveRecord solveOnce(std::uint64_t seed, bool traced) {
  HplaiConfig config;
  config.n = kN;
  config.b = kB;
  config.pr = kPr;
  config.pc = kPc;
  config.seed = seed;
  SolveRecord rec;
  if (traced) {
    config.collectTrace = true;
    rec.waitSums.assign(static_cast<std::size_t>(kPr * kPc), 0.0);
    // Runs on rank 0 between steps; runHplai joins every rank before it
    // returns, so `rec` is not touched concurrently.
    config.rankProgressCallback = [&rec](index_t,
                                         const std::vector<double>& waits) {
      for (std::size_t r = 0; r < waits.size() && r < rec.waitSums.size();
           ++r) {
        rec.waitSums[r] += waits[r];
      }
      return false;
    };
  }
  std::vector<double> x;
  rec.start = now();
  try {
    rec.result = hplmxp::runHplai(config, &x);
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.end = now();
  rec.solution = hashHex(x);
  return rec;
}

struct PhaseSums {
  double diag = 0.0;
  double trsm = 0.0;
  double cast = 0.0;
  double bcast = 0.0;
  double gemm = 0.0;
};

PhaseSums phaseSums(const hplmxp::HplaiResult& r) {
  PhaseSums s;
  for (const hplmxp::IterationTrace& t : r.trace) {
    s.diag += t.diagSeconds;
    s.trsm += t.trsmSeconds;
    s.cast += t.castSeconds;
    s.bcast += t.bcastSeconds;
    s.gemm += t.gemmSeconds;
  }
  return s;
}

std::string solveJson(const SolveRecord& s, bool traced) {
  const hplmxp::HplaiResult& r = s.result;
  JsonObject o;
  o.num("wall_s", s.end - s.start)
      .num("factor_s", r.factorSeconds)
      .num("ir_s", r.irSeconds)
      .count("ir_iterations", static_cast<std::uint64_t>(r.irIterations))
      .flag("converged", r.converged)
      .num("scaled_residual", s.error.empty() ? r.scaledResidual() : -1.0)
      .text("solution", s.solution)
      .text("error", s.error);
  if (traced) {
    const PhaseSums p = phaseSums(r);
    o.num("diag_s", p.diag)
        .num("trsm_s", p.trsm)
        .num("cast_s", p.cast)
        .num("bcast_s", p.bcast)
        .num("gemm_s", p.gemm)
        .raw("wait_s", jsonNumbers(s.waitSums));
  }
  return o.str();
}

// Span tree of one traced solve. runHplai reports the factor and IR
// durations; the recorder places them at the end of the call (IR last,
// as runHplai runs them) and lays rank 0's phase sums inside the factor
// span, so each span's self time is what its children do not explain.
void recordSolveSpans(SpanRecorder& spans, const SolveRecord& s,
                      std::uint64_t op) {
  const hplmxp::HplaiResult& r = s.result;
  const std::uint64_t solve = spans.add("mxp.solve", s.start, s.end, op);
  const double irStart = s.end - r.irSeconds;
  const double factorStart = irStart - r.factorSeconds;
  const std::uint64_t factor = spans.add("core.factor", factorStart, irStart,
                                         op, solve, true);
  spans.add("core.ir", irStart, s.end, op, solve, true);
  const PhaseSums p = phaseSums(r);
  double t = factorStart;
  for (const auto& [name, seconds] :
       {std::pair{"core.diag", p.diag}, std::pair{"core.trsm", p.trsm},
        std::pair{"core.cast", p.cast}, std::pair{"core.bcast", p.bcast},
        std::pair{"core.gemm", p.gemm}}) {
    spans.add(name, t, t + seconds, op, factor, true);
    t += seconds;
  }
}

// Bytes the factorization broadcasts per solve, from the shapes: at step
// k every process row sends its U-panel piece down its process column and
// every process column its L-panel piece along its process row (FP16,
// trailing x B in total each), and the FP32 B x B diagonal block goes to
// the other ranks of its row and column.
double panelBytesPerSolve() {
  double bytes = 0.0;
  for (index_t k = 0; k < kN / kB; ++k) {
    const double trailing = static_cast<double>(kN - (k + 1) * kB);
    const double panel = trailing * kB * sizeof(half16);
    const double diag = static_cast<double>(kB) * kB * sizeof(float);
    bytes += panel * (kPr - 1) + panel * (kPc - 1) +
             diag * ((kPr - 1) + (kPc - 1));
  }
  return bytes;
}

std::string probeJson(double flops, double bytes,
                      const std::vector<double>& seconds) {
  return JsonObject()
      .num("flops", flops)
      .num("bytes", bytes)
      .raw("seconds", jsonNumbers(seconds))
      .str();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Standalone kernel and comm calls at step 0's shapes on rank 0, which owns
// the diagonal block: an (N/Pr - B) x B L panel, a B x (N/Pc - B) U panel
// and their trailing update, all on the one pool lane. Flops and bytes are
// computed from the shapes, not measured.
void probe(const Options& options, JsonObject& doc, SpanRecorder& spans) {
  const index_t lr = kN / kPr;
  const index_t m = lr - kB;
  const index_t n = kN / kPc - kB;
  const hplmxp::ProblemGenerator gen(options.seed, kN);
  JsonObject probes;

  std::vector<float> diag(static_cast<std::size_t>(kB * kB));
  gen.fillTile<float>(0, 0, kB, kB, diag.data(), kB);
  std::vector<float> work = diag;
  std::vector<double> getrfSecs;
  for (int r = 0; r < kProbeReps; ++r) {
    work = diag;
    const double t0 = now();
    hplmxp::blas::getrfNoPiv(kB, work.data(), kB);
    const double t1 = now();
    spans.add("probe.blas.getrf", t0, t1, 0);
    getrfSecs.push_back(t1 - t0);
  }
  probes.raw("getrf", probeJson(hplmxp::blas::getrfFlops(kB),
                                2.0 * kB * kB * sizeof(float), getrfSecs));

  std::vector<float> lPanel(static_cast<std::size_t>(m * kB));
  std::vector<float> uPanel(static_cast<std::size_t>(kB * n));
  gen.fillTile<float>(kB, 0, m, kB, lPanel.data(), m);
  gen.fillTile<float>(0, kB, kB, n, uPanel.data(), kB);
  probes.raw("trsm",
             probeJson(hplmxp::blas::trsmFlops(hplmxp::blas::Side::kLeft, kB,
                                               n),
                       (static_cast<double>(kB) * kB + 2.0 * kB * n) *
                           sizeof(float),
                       timeReps(kProbeReps, spans, "probe.blas.trsm", [&] {
                         hplmxp::blas::strsm(
                             hplmxp::blas::Side::kLeft,
                             hplmxp::blas::Uplo::kLower,
                             hplmxp::blas::Diag::kUnit, kB, n, 1.0f,
                             work.data(), kB, uPanel.data(), kB);
                       })));

  std::vector<half16> lHalf(static_cast<std::size_t>(m * kB));
  std::vector<half16> uHalf(static_cast<std::size_t>(n * kB));
  probes.raw("cast",
             probeJson(0.0,
                       static_cast<double>(m * kB + kB * n) *
                           (sizeof(float) + sizeof(half16)),
                       timeReps(kProbeReps, spans, "probe.blas.cast", [&] {
                         hplmxp::blas::castToHalf(m, kB, lPanel.data(), m,
                                                  lHalf.data(), m);
                         hplmxp::blas::transCastToHalf(kB, n, uPanel.data(),
                                                       kB, uHalf.data(), n);
                       })));

  std::vector<float> c(static_cast<std::size_t>(lr * n));
  gen.fillTile<float>(kB, kB, m, n, c.data(), lr);
  probes.raw("gemm",
             probeJson(hplmxp::blas::gemmFlops(m, n, kB),
                       static_cast<double>(m * kB + n * kB) * sizeof(half16) +
                           2.0 * m * n * sizeof(float),
                       timeReps(kProbeReps, spans, "probe.blas.gemm", [&] {
                         hplmxp::blas::gemmMixed(
                             hplmxp::blas::Trans::kNoTrans,
                             hplmxp::blas::Trans::kTrans, m, n, kB, -1.0f,
                             lHalf.data(), m, uHalf.data(), n, 1.0f,
                             c.data(), lr);
                       })));

  // The step-0 U panel, broadcast between the two ranks of a process
  // column with the LU's own strategy (HplaiConfig::panelBcast default).
  const std::size_t panelBytes = uHalf.size() * sizeof(half16);
  std::vector<double> bcastSecs;
  hplmxp::simmpi::run(kPr, [&](hplmxp::simmpi::Comm& comm) {
    std::vector<std::uint8_t> buf(panelBytes,
                                  static_cast<std::uint8_t>(comm.rank()));
    for (int r = 0; r <= kProbeReps; ++r) {  // r == 0 warms the path
      comm.barrier();
      const double t0 = now();
      hplmxp::simmpi::broadcast(comm, HplaiConfig{}.panelBcast, 0,
                                static_cast<void*>(buf.data()), panelBytes);
      comm.barrier();
      const double t1 = now();
      if (comm.rank() == 0 && r > 0) {
        spans.add("probe.simmpi.bcast", t0, t1, 0);
        bcastSecs.push_back(t1 - t0);
      }
    }
  });
  probes.raw("bcast", probeJson(0.0, static_cast<double>(panelBytes),
                                bcastSecs));
  doc.raw("probes", probes.str());

  // Eq. 3 projection with kernel rates calibrated on this host in this run
  // and the broadcast bandwidth just measured.
  const double t0 = now();
  hplmxp::KernelModel model(hplmxp::MachineKind::kFrontier);
  model.calibrate(hplmxp::measureKernelCurves({64, 128, 256, 512}));
  hplmxp::ModelInput in;
  in.n = kN;
  in.b = kB;
  in.pr = kPr;
  in.pc = kPc;
  in.nbb = static_cast<double>(panelBytes) / median(bcastSecs);
  const hplmxp::ParallelBound bound =
      hplmxp::projectedParallelBound(model, in);
  spans.add("probe.perfmodel.calibrate", t0, now(), 0);
  doc.raw("model", JsonObject()
                       .num("nbb_bytes_per_s", in.nbb)
                       .num("getrf_s", bound.getrf)
                       .num("trsm_s", bound.trsmRow + bound.trsmCol)
                       .num("bcast_s", bound.bcastRow + bound.bcastCol)
                       .num("gemm_s", bound.gemm)
                       .str());
}

}  // namespace

void runMxpSolve(const Options& options, JsonObject& doc,
                 SpanRecorder* spans) {
  const bool traced = spans != nullptr;
  // Pool start: the first touch spawns the process-wide pool, sized by
  // HPLMXP_THREADS. The benchmark runs it at one lane per rank and refuses
  // any other width rather than inherit this host's core count.
  const double poolStart0 = now();
  const index_t lanes = hplmxp::ThreadPool::global().laneCount();
  const double poolStart = now() - poolStart0;
  if (lanes != 1) {
    throw std::runtime_error("mxp_solve needs HPLMXP_THREADS=1 (pool has " +
                             std::to_string(lanes) + " lanes)");
  }
  // Set-up is the pool start plus the paper's warm-up solve. The pool
  // starts once per process, so its time is counted in every sample; the
  // warm-up solve is repeated so the run's median rests on enough samples.
  std::vector<double> setup;
  for (int r = 0; r < kSetups; ++r) {
    const double t0 = now();
    const SolveRecord warm = solveOnce(options.seed + kWarmSeedOffset +
                                           static_cast<std::uint64_t>(r),
                                       false);
    if (!warm.error.empty()) {
      throw std::runtime_error("warm-up solve failed: " + warm.error);
    }
    setup.push_back(poolStart + (now() - t0));
    if (traced) {
      spans->add("mxp.setup", t0, now(), 0);
    }
  }

  std::vector<SolveRecord> solves;
  const double windowStart = now();
  do {
    solves.push_back(solveOnce(options.seed + solves.size(), traced));
    if (traced) {
      recordSolveSpans(*spans, solves.back(), solves.size());
    }
  } while (now() - windowStart < options.seconds);
  const double window = now() - windowStart;

  Checks checks;
  const SolveRecord again = solveOnce(options.seed, false);
  checks.add("mxp.resolve_bitwise",
             again.error.empty() && again.solution == solves.front().solution,
             "seed " + std::to_string(options.seed) + " solved twice: " +
                 solves.front().solution + " vs " + again.solution);

  std::vector<std::string> solveItems;
  for (const SolveRecord& s : solves) {
    solveItems.push_back(solveJson(s, traced));
  }
  hplmxp::HplaiResult shape;  // the HPL-MxP flop count of one solve
  shape.n = kN;
  doc.raw("env", JsonObject()
                     .count("nproc", std::thread::hardware_concurrency())
                     .count("pool_lanes", static_cast<std::uint64_t>(lanes))
                     .count("rank_threads", kPr * kPc)
                     .count("outstanding", 1)
                     .count("n", kN)
                     .count("b", kB)
                     .text("grid", std::to_string(kPr) + "x" +
                                       std::to_string(kPc))
                     .str())
      .raw("setup_s", jsonNumbers(setup))
      .num("window_s", window)
      .num("flops_per_solve", shape.effectiveFlops())
      .num("panel_bytes_per_solve", panelBytesPerSolve())
      .raw("solves", jsonArray(solveItems));
  if (traced) {
    probe(options, doc, *spans);
  }
  doc.raw("checks", checks.json());
}

}  // namespace perfbench
