#include "core/gmres_ir.h"

#include <cmath>

#include "core/dist_kernels.h"
#include "core/verify.h"

namespace hplmxp {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

}  // namespace

IrOutcome refineGmres(DistContext& ctx, const HplaiConfig& config,
                      const ProblemGenerator& gen, const float* localLU,
                      index_t lda, std::vector<double>& x,
                      const GmresConfig& gmres) {
  const index_t n = config.n;
  const index_t m = gmres.restart;
  HPLMXP_REQUIRE(m >= 1, "GMRES restart dimension must be positive");

  const double diagInf = gen.diagInfNorm();
  const double bInf = gen.rhsInfNorm();
  auto threshold = [&](double xInf) {
    return hplaiThreshold(n, diagInf, xInf, bInf);
  };
  auto precondition = [&](std::vector<double>& v) {
    distributedBlockTrsv<float>(ctx, config.b, blas::Uplo::kLower, localLU,
                                lda, v);
    distributedBlockTrsv<float>(ctx, config.b, blas::Uplo::kUpper, localLU,
                                lda, v);
  };

  IrOutcome out;
  std::vector<double> r, w;
  std::vector<std::vector<double>> v(static_cast<std::size_t>(m) + 1);
  // Hessenberg in column-major with Givens rotations applied on the fly.
  std::vector<double> h(static_cast<std::size_t>((m + 1) * m), 0.0);
  std::vector<double> cs(static_cast<std::size_t>(m), 0.0);
  std::vector<double> sn(static_cast<std::size_t>(m), 0.0);
  std::vector<double> g(static_cast<std::size_t>(m) + 1, 0.0);

  for (index_t outer = 0; outer < gmres.maxOuter; ++outer) {
    // True (unpreconditioned) residual and convergence check.
    distributedResidual(ctx, gen, x, r);
    out.residualInf = infNorm(r);
    out.threshold = threshold(infNorm(x));
    if (out.residualInf < out.threshold) {
      out.converged = true;
      return out;
    }

    // z = M^{-1} r seeds the Krylov space.
    precondition(r);
    const double beta = norm2(r);
    if (beta == 0.0) {
      out.converged = true;
      return out;
    }
    v[0] = r;
    for (double& val : v[0]) {
      val /= beta;
    }
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    index_t steps = 0;
    for (index_t j = 0; j < m; ++j) {
      // w = M^{-1} A v_j.
      distributedMatVec(ctx, gen, v[static_cast<std::size_t>(j)], w);
      precondition(w);
      // Modified Gram-Schmidt.
      for (index_t i = 0; i <= j; ++i) {
        const double hij = dot(w, v[static_cast<std::size_t>(i)]);
        h[static_cast<std::size_t>(i + j * (m + 1))] = hij;
        for (index_t e = 0; e < n; ++e) {
          w[static_cast<std::size_t>(e)] -=
              hij * v[static_cast<std::size_t>(i)][static_cast<std::size_t>(
                  e)];
        }
      }
      const double hj1 = norm2(w);
      h[static_cast<std::size_t>(j + 1 + j * (m + 1))] = hj1;
      ++steps;
      ++out.iterations;

      // Apply previous Givens rotations to the new column, then form the
      // rotation that annihilates h(j+1, j).
      for (index_t i = 0; i < j; ++i) {
        double& a = h[static_cast<std::size_t>(i + j * (m + 1))];
        double& bq = h[static_cast<std::size_t>(i + 1 + j * (m + 1))];
        const double t = cs[static_cast<std::size_t>(i)] * a +
                         sn[static_cast<std::size_t>(i)] * bq;
        bq = -sn[static_cast<std::size_t>(i)] * a +
             cs[static_cast<std::size_t>(i)] * bq;
        a = t;
      }
      double& a = h[static_cast<std::size_t>(j + j * (m + 1))];
      double& bq = h[static_cast<std::size_t>(j + 1 + j * (m + 1))];
      const double denom = std::hypot(a, bq);
      cs[static_cast<std::size_t>(j)] = denom == 0.0 ? 1.0 : a / denom;
      sn[static_cast<std::size_t>(j)] = denom == 0.0 ? 0.0 : bq / denom;
      a = denom;
      bq = 0.0;
      g[static_cast<std::size_t>(j + 1)] =
          -sn[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] *= cs[static_cast<std::size_t>(j)];

      if (hj1 == 0.0 ||
          std::fabs(g[static_cast<std::size_t>(j + 1)]) < beta * 1e-14) {
        break;  // happy breakdown / inner convergence
      }
      v[static_cast<std::size_t>(j + 1)] = w;
      for (double& val : v[static_cast<std::size_t>(j + 1)]) {
        val /= hj1;
      }
    }

    // Back-substitute the triangular least-squares system and update x.
    std::vector<double> y(static_cast<std::size_t>(steps), 0.0);
    for (index_t i = steps - 1; i >= 0; --i) {
      double acc = g[static_cast<std::size_t>(i)];
      for (index_t jj = i + 1; jj < steps; ++jj) {
        acc -= h[static_cast<std::size_t>(i + jj * (m + 1))] *
               y[static_cast<std::size_t>(jj)];
      }
      y[static_cast<std::size_t>(i)] =
          acc / h[static_cast<std::size_t>(i + i * (m + 1))];
    }
    for (index_t jj = 0; jj < steps; ++jj) {
      const double yj = y[static_cast<std::size_t>(jj)];
      for (index_t e = 0; e < n; ++e) {
        x[static_cast<std::size_t>(e)] +=
            yj * v[static_cast<std::size_t>(jj)][static_cast<std::size_t>(e)];
      }
    }
  }

  // Final residual report after exhausting the budget.
  distributedResidual(ctx, gen, x, r);
  out.residualInf = infNorm(r);
  out.threshold = threshold(infNorm(x));
  out.converged = out.residualInf < out.threshold;
  return out;
}

}  // namespace hplmxp
