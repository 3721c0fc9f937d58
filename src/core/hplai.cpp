#include "core/hplai.h"

#include <optional>

#include "blas/cast.h"
#include "core/dist_context.h"
#include "core/dist_kernels.h"
#include "core/gmres_ir.h"
#include "core/ir_dist.h"
#include "core/lu_dist.h"
#include "device/shim.h"
#include "gen/matgen.h"
#include "simmpi/runtime.h"
#include "util/buffer.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hplmxp {

HplaiResult runHplaiOnComm(simmpi::Comm& world, const HplaiConfig& config,
                           std::vector<double>* solutionOut) {
  config.validate();
  HPLMXP_REQUIRE(config.n / config.b >= std::max(config.pr, config.pc),
                 "need at least one block row/col per grid row/col");
  DistContext ctx(world, config);
  const ProblemGenerator gen(config.seed, config.n);
  const index_t b = config.b;
  const index_t lr = ctx.localRows();
  const index_t lc = ctx.localCols();

  // Device memory accounting (Finding 1: the whole problem is GPU
  // resident — FP32 local matrix, FP16 panel + look-ahead buffers, and the
  // FP32 diagonal block all live in device memory).
  std::optional<Gcd> gcd;
  std::optional<DeviceAllocation> charge;
  if (config.deviceMemoryBytes > 0) {
    gcd.emplace(config.vendor, config.deviceMemoryBytes);
    const std::size_t matrixBytes =
        static_cast<std::size_t>(lr) * static_cast<std::size_t>(lc) *
        sizeof(float);
    const std::size_t panelBytes =
        static_cast<std::size_t>(DistLU::panelSets(config)) *
        static_cast<std::size_t>(lr + lc) *
        static_cast<std::size_t>(b) * sizeof(half16);
    const std::size_t diagBytes =
        static_cast<std::size_t>(b) * static_cast<std::size_t>(b) *
        sizeof(float);
    charge.emplace(*gcd, matrixBytes + panelBytes + diagBytes);
  }

  // Local matrix fill: FP64 entries from the LCG, narrowed to FP32 for the
  // device-resident factorization (fillTile<float> performs exactly the
  // generate-then-narrow conversion per element).
  Buffer<float> localA(lr * lc);
  const index_t lda = lr;
  fillOwnedTiles(ctx, gen, localA.data(), lda);

  BlasShim shim(config.vendor);
  DistLU lu(ctx, config, shim);
  std::optional<simmpi::RecoveryManager> recovery;
  if (config.recovery.enabled) {
    // The regenerator replays the exact fill above: a resurrected rank's
    // untouched tiles come back bit-identical from the LCG jump-ahead, so
    // the step-0 checkpoint stores no matrix at all.
    auto regen = [&gen, &ctx](float* a, index_t ld) {
      fillOwnedTiles(ctx, gen, a, ld);
    };
    simmpi::RecoveryGeometry geometry;
    geometry.localRows = lr;
    geometry.localCols = lc;
    geometry.blockB = b;
    geometry.panelSteps = config.n / config.b;
    recovery.emplace(world, config.recovery, geometry, config.recoveryStats,
                     std::move(regen));
    lu.setRecovery(&*recovery);
  }
  if (config.progressCallback) {
    lu.setProgressCallback(config.progressCallback);
  }
  if (config.rankProgressCallback) {
    lu.setRankProgressCallback(config.rankProgressCallback);
  }

  if (world.rank() == 0) {
    logInfo("hplai: N=", config.n, " B=", config.b, " grid=", config.pr,
            "x", config.pc, " bcast=", simmpi::toString(config.panelBcast),
            " lookahead=", config.lookahead ? "on" : "off");
  }
  world.barrier();
  Timer timer;
  std::vector<IterationTrace> trace = lu.factor(localA.data(), lda);
  world.barrier();
  const double factorSeconds = timer.seconds();
  if (lu.aborted()) {
    // Early termination: report what we have; the factors are incomplete,
    // so refinement is skipped and the result is marked aborted.
    HplaiResult result;
    result.n = config.n;
    result.b = config.b;
    result.ranks = world.size();
    result.factorSeconds = factorSeconds;
    result.totalSeconds = factorSeconds;
    result.aborted = true;
    result.trace = std::move(trace);
    return result;
  }

  // "A_cpu <- A": the factored matrix moves back to the host for IR. In
  // this substrate host and device share memory, so the transfer is a
  // no-op; the algorithmic structure (IR reads the FP32 factors) is kept.
  timer.reset();
  // Algorithm 1 line 32: x = b / diag(A), a cheap Jacobi-style guess.
  std::vector<double> x(static_cast<std::size_t>(config.n));
  {
    Buffer<double> diag(config.n);
    gen.fillRhs<double>(0, config.n, x.data());
    gen.fillDiagonal(diag.data());
    for (index_t i = 0; i < config.n; ++i) {
      x[static_cast<std::size_t>(i)] /= diag[i];
    }
  }
  IrOutcome outcome;
  if (config.refiner == HplaiConfig::Refiner::kGmres) {
    outcome = refineGmres(ctx, config, gen, localA.data(), lda, x,
                          GmresConfig{.restart = config.gmresRestart,
                                      .maxOuter = config.maxIrIterations});
  } else {
    DistIR ir(ctx, config, gen);
    outcome = ir.refine(localA.data(), lda, x);
  }
  world.barrier();
  const double irSeconds = timer.seconds();
  if (world.rank() == 0) {
    logInfo("hplai: factor=", factorSeconds, "s refine=", irSeconds,
            "s iterations=", outcome.iterations,
            outcome.converged ? " converged" : " NOT converged");
  }

  HplaiResult result;
  result.n = config.n;
  result.b = config.b;
  result.ranks = world.size();
  result.factorSeconds = factorSeconds;
  result.irSeconds = irSeconds;
  result.totalSeconds = factorSeconds + irSeconds;
  result.irIterations = outcome.iterations;
  result.converged = outcome.converged;
  result.fellBackToGmres = outcome.fellBack;
  result.residualInf = outcome.residualInf;
  result.threshold = outcome.threshold;
  result.trace = std::move(trace);

  // Share rank 0's timings so every rank reports identical numbers.
  double times[2] = {result.factorSeconds, result.irSeconds};
  world.bcast(0, times, 2);
  result.factorSeconds = times[0];
  result.irSeconds = times[1];
  result.totalSeconds = times[0] + times[1];

  if (solutionOut != nullptr) {
    *solutionOut = std::move(x);
  }
  return result;
}

HplaiResult runHplai(const HplaiConfig& config,
                     std::vector<double>* solutionOut) {
  HplaiResult rank0;
  std::vector<double> solution;
  simmpi::RunOptions options;
  options.replayLog = config.recovery.enabled;
  simmpi::run(config.worldSize(), [&](simmpi::Comm& world) {
    std::vector<double> local;
    HplaiResult r = runHplaiOnComm(world, config, &local);
    if (world.rank() == 0) {
      rank0 = std::move(r);
      solution = std::move(local);
    }
  }, options);
  if (solutionOut != nullptr) {
    *solutionOut = std::move(solution);
  }
  return rank0;
}

}  // namespace hplmxp
