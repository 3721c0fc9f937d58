#include "core/ir_dist.h"

#include <cmath>
#include <limits>

#include "core/dist_kernels.h"
#include "core/gmres_ir.h"
#include "core/verify.h"
#include "util/logging.h"

namespace hplmxp {

DistIR::DistIR(DistContext& ctx, const HplaiConfig& config,
               const ProblemGenerator& gen)
    : ctx_(ctx), config_(config), gen_(gen) {
  // Norm terms of the line-44 criterion; every rank regenerates them
  // identically (O(N) LCG jumps).
  diagInf_ = gen_.diagInfNorm();
  bInf_ = gen_.rhsInfNorm();
}

double DistIR::threshold(double xInf) const {
  return hplaiThreshold(config_.n, diagInf_, xInf, bInf_);
}

void DistIR::residual(const std::vector<double>& x, std::vector<double>& r) {
  distributedResidual(ctx_, gen_, x, r);
}

void DistIR::blockTrsv(blas::Uplo uplo, const float* localLU, index_t lda,
                       std::vector<double>& rhs) {
  distributedBlockTrsv<float>(ctx_, config_.b, uplo, localLU, lda, rhs);
}

IrOutcome DistIR::refine(const float* localLU, index_t lda,
                         std::vector<double>& x) {
  const index_t n = config_.n;
  IrOutcome out;
  std::vector<double> r;
  std::vector<double> d;

  // Divergence guard state: the best iterate seen so far and how many
  // consecutive iterations failed to improve on it.
  double bestR = std::numeric_limits<double>::infinity();
  std::vector<double> xBest;
  index_t badStreak = 0;

  for (index_t iter = 0; iter <= config_.maxIrIterations; ++iter) {
    residual(x, r);
    double rInf = 0.0;
    double xInf = 0.0;
    for (index_t i = 0; i < n; ++i) {
      rInf = std::max(rInf, std::fabs(r[static_cast<std::size_t>(i)]));
      xInf = std::max(xInf, std::fabs(x[static_cast<std::size_t>(i)]));
    }
    out.residualInf = rInf;
    out.threshold = threshold(xInf);
    if (rInf < out.threshold) {
      out.converged = true;
      break;
    }
    if (iter == config_.maxIrIterations) {
      break;  // budget exhausted without convergence
    }

    if (config_.irDivergenceStrikes > 0) {
      if (std::isfinite(rInf) && rInf < bestR) {
        bestR = rInf;
        xBest = x;
        badStreak = 0;
      } else {
        ++badStreak;
      }
      if (badStreak >= config_.irDivergenceStrikes) {
        // Classical IR is a stationary iteration; with a damaged
        // preconditioner its error operator has spectral radius >= 1 and
        // the residual only grows. Restore the best iterate and hand the
        // remaining budget to GMRES, which minimizes the residual over the
        // Krylov space and tolerates far worse preconditioners.
        if (!xBest.empty()) {
          x = xBest;
        }
        if (ctx_.rank() == 0) {
          logInfo("ir: residual stagnant/divergent for ", badStreak,
                  " iterations (best ", bestR, ", now ", rInf,
                  ") - falling back to GMRES refinement");
        }
        const index_t remaining =
            std::max<index_t>(1, config_.maxIrIterations - iter);
        IrOutcome g = refineGmres(ctx_, config_, gen_, localLU, lda, x,
                                  GmresConfig{.restart = config_.gmresRestart,
                                              .maxOuter = remaining});
        g.iterations += out.iterations;
        g.fellBack = true;
        return g;
      }
    }

    // Correction solve: L*(U*d) = r with FP32 factors, FP64 vectors.
    d = r;
    blockTrsv(blas::Uplo::kLower, localLU, lda, d);
    blockTrsv(blas::Uplo::kUpper, localLU, lda, d);
    for (index_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] += d[static_cast<std::size_t>(i)];
    }
    ++out.iterations;
  }
  return out;
}

}  // namespace hplmxp
