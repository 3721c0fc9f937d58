#include "core/hpl64.h"

#include <limits>

#include "blas/blas.h"
#include "core/verify.h"
#include "util/buffer.h"
#include "util/timer.h"

namespace hplmxp {

Hpl64Result runHpl64(const ProblemGenerator& gen, std::vector<double>& x) {
  const index_t n = gen.n();
  Hpl64Result result;
  result.n = n;

  Buffer<double> a(n * n);
  gen.fillTile<double>(0, 0, n, n, a.data(), n);
  Buffer<double> bvec(n);
  gen.fillRhs<double>(0, n, bvec.data());

  Timer timer;
  std::vector<index_t> ipiv;
  blas::dgetrf(n, a.data(), n, ipiv);
  result.factorSeconds = timer.seconds();

  timer.reset();
  x.assign(bvec.data(), bvec.data() + n);
  // Apply the row interchanges to the right-hand side, then L, U solves.
  for (index_t k = 0; k < n; ++k) {
    const index_t piv = ipiv[static_cast<std::size_t>(k)];
    if (piv != k) {
      std::swap(x[static_cast<std::size_t>(k)],
                x[static_cast<std::size_t>(piv)]);
    }
  }
  blas::dtrsv(blas::Uplo::kLower, blas::Diag::kUnit, n, a.data(), n, x.data());
  blas::dtrsv(blas::Uplo::kUpper, blas::Diag::kNonUnit, n, a.data(), n,
              x.data());
  result.solveSeconds = timer.seconds();

  // HPL residual check against regenerated A: r = A x - b.
  std::vector<double> r(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    r[static_cast<std::size_t>(i)] = -bvec[i];
  }
  gen.addProduct(1.0, 1, x.data(), n, r.data(), n);
  const double rInf = infNorm(r);
  const double xInf = infNorm(x);
  const double aInf = gen.matrixInfNorm();
  const double bInf = gen.rhsInfNorm();
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  result.scaledResidual =
      rInf / (kEps * (aInf * xInf + bInf) * static_cast<double>(n));
  return result;
}

}  // namespace hplmxp
