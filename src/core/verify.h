// Solution verification helpers shared by tests, examples and benches.
#pragma once

#include <vector>

#include "gen/matgen.h"
#include "util/common.h"

namespace hplmxp {

/// ||b - A x||_inf in FP64, A regenerated column by column
/// (ProblemGenerator::addProduct). O(N^2).
double residualInfDense(const ProblemGenerator& gen,
                        const std::vector<double>& x);

/// The HPL-AI convergence threshold (Algorithm 1, line 44):
/// 8 n eps (2 ||diag A||_inf ||x||_inf + ||b||_inf).
double hplaiThreshold(index_t n, double diagInf, double xInf, double bInf);

/// The line-44 threshold for the given problem and ||x||_inf.
double hplaiThreshold(const ProblemGenerator& gen, double xInf);

/// ||x||_inf.
double infNorm(const std::vector<double>& x);

/// True when x satisfies the HPL-AI convergence criterion.
bool hplaiValid(const ProblemGenerator& gen, const std::vector<double>& x);

}  // namespace hplmxp
