#include "core/dist_kernels.h"

#include <algorithm>

namespace hplmxp {

namespace {

/// Shared core of residual/matvec: out = sign * A*x (+ b if addRhs), all
/// via regeneration and one Allreduce. Each owned block is one fused
/// regenerate-and-accumulate walk.
void regenApply(DistContext& ctx, const ProblemGenerator& gen,
                const std::vector<double>& x, std::vector<double>& out,
                double sign, bool addRhs) {
  const index_t n = ctx.layout().n();
  const index_t b = ctx.layout().blockSize();
  HPLMXP_REQUIRE(static_cast<index_t>(x.size()) == n, "x size mismatch");
  out.assign(static_cast<std::size_t>(n), 0.0);
  ctx.forEachOwnedBlock([&](index_t gi, index_t gj, index_t, index_t) {
    gen.accumulateTile(gi * b, gj * b, b, b, sign, 1, x.data() + gj * b, b,
                       out.data() + gi * b, b);
  });

  ctx.world().allreduceSum(out.data(), n);
  if (addRhs) {
    Buffer<double> bvec(n);
    gen.fillRhs<double>(0, n, bvec.data());
    for (index_t i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] += bvec[i];
    }
  }
}

}  // namespace

void distributedResidual(DistContext& ctx, const ProblemGenerator& gen,
                         const std::vector<double>& x,
                         std::vector<double>& r) {
  regenApply(ctx, gen, x, r, /*sign=*/-1.0, /*addRhs=*/true);
}

void distributedMatVec(DistContext& ctx, const ProblemGenerator& gen,
                       const std::vector<double>& x, std::vector<double>& y) {
  regenApply(ctx, gen, x, y, /*sign=*/1.0, /*addRhs=*/false);
}

double distributedMatrixInfNorm(DistContext& ctx,
                                const ProblemGenerator& gen) {
  const index_t n = ctx.layout().n();
  const index_t b = ctx.layout().blockSize();
  std::vector<double> rowSums(static_cast<std::size_t>(n), 0.0);
  ctx.forEachOwnedBlock([&](index_t gi, index_t gj, index_t, index_t) {
    gen.accumulateAbsRowSums(gi * b, gj * b, b, b, rowSums.data() + gi * b);
  });
  ctx.world().allreduceSum(rowSums.data(), n);
  double best = 0.0;
  for (double v : rowSums) {
    best = std::max(best, v);
  }
  return best;
}

void guardVector(const char* what, const std::vector<double>& v,
                 double magnitudeLimit) {
  const blas::AbnormalScan s =
      blas::scanAbnormal(static_cast<index_t>(v.size()), 1, v.data(),
                         std::max<index_t>(1, static_cast<index_t>(v.size())),
                         magnitudeLimit);
  if (s) {
    throw blas::AbnormalValueError(std::string(what) + ": " + s.describe());
  }
}

}  // namespace hplmxp
