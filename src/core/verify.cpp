#include "core/verify.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hplmxp {

double residualInfDense(const ProblemGenerator& gen,
                        const std::vector<double>& x) {
  const index_t n = gen.n();
  HPLMXP_REQUIRE(static_cast<index_t>(x.size()) == n, "x size mismatch");
  std::vector<double> r(static_cast<std::size_t>(n));
  gen.fillRhs<double>(0, n, r.data());
  gen.addProduct(-1.0, 1, x.data(), n, r.data(), n);
  return infNorm(r);
}

double hplaiThreshold(index_t n, double diagInf, double xInf, double bInf) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  return 8.0 * static_cast<double>(n) * kEps * (2.0 * diagInf * xInf + bInf);
}

double hplaiThreshold(const ProblemGenerator& gen, double xInf) {
  return hplaiThreshold(gen.n(), gen.diagInfNorm(), xInf, gen.rhsInfNorm());
}

double infNorm(const std::vector<double>& x) {
  double best = 0.0;
  for (double v : x) {
    best = std::max(best, std::fabs(v));
  }
  return best;
}

bool hplaiValid(const ProblemGenerator& gen, const std::vector<double>& x) {
  return residualInfDense(gen, x) < hplaiThreshold(gen, infNorm(x));
}

}  // namespace hplmxp
