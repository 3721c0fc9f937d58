#include "core/hpl_dist.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "blas/gemm.h"
#include "blas/trsm.h"
#include "core/dist_context.h"
#include "core/dist_kernels.h"
#include "gen/matgen.h"
#include "simmpi/runtime.h"
#include "util/buffer.h"
#include "util/timer.h"

namespace hplmxp {

namespace {

constexpr simmpi::Tag kSwapTag = 900;

/// Per-rank engine for the pivoted FP64 factorization.
class DistHpl {
 public:
  DistHpl(DistContext& ctx, const HplDistConfig& cfg,
          const ProblemGenerator& gen)
      : ctx_(ctx), cfg_(cfg), gen_(gen), b_(cfg.b),
        lda_(std::max<index_t>(1, ctx.localRows())) {
    localA_.allocate(ctx_.localRows() * ctx_.localCols());
    fillOwnedTiles(ctx_, gen_, localA_.data(), lda_);
    diagBuf_.allocate(b_ * b_);
    lPanel_.allocate(ctx_.localRows() * b_);
    uPanel_.allocate(b_ * ctx_.localCols());
    pivots_.assign(static_cast<std::size_t>(cfg_.n), 0);
  }

  /// Factors P*A = L*U; returns the number of genuine row interchanges.
  index_t factor() {
    const index_t nb = cfg_.n / b_;
    index_t swaps = 0;
    for (index_t k = 0; k < nb; ++k) {
      std::vector<index_t> ipiv(static_cast<std::size_t>(b_), 0);
      const index_t pic = k % ctx_.layout().pc();
      if (ctx_.myCol() == pic) {
        panelFactor(k, ipiv);
      }
      // Everyone learns the panel's interchanges (HPL broadcasts ipiv with
      // the panel), then applies them to the columns outside the panel.
      ctx_.rowComm().bcast(pic, ipiv.data(), b_);
      for (index_t jj = 0; jj < b_; ++jj) {
        const index_t g = k * b_ + jj;
        pivots_[static_cast<std::size_t>(g)] = ipiv[static_cast<std::size_t>(jj)];
        swaps += ipiv[static_cast<std::size_t>(jj)] != g ? 1 : 0;
      }
      applySwapsOutsidePanel(k, ipiv);
      updateTrailing(k);
    }
    return swaps;
  }

  /// Solves A x = b using the factors and recorded interchanges.
  void solve(std::vector<double>& x) {
    const index_t n = cfg_.n;
    x.assign(static_cast<std::size_t>(n), 0.0);
    gen_.fillRhs<double>(0, n, x.data());
    for (index_t g = 0; g < n; ++g) {
      const index_t rp = pivots_[static_cast<std::size_t>(g)];
      if (rp != g) {
        std::swap(x[static_cast<std::size_t>(g)],
                  x[static_cast<std::size_t>(rp)]);
      }
    }
    distributedBlockTrsv<double>(ctx_, b_, blas::Uplo::kLower, localA_.data(),
                                 lda_, x);
    distributedBlockTrsv<double>(ctx_, b_, blas::Uplo::kUpper, localA_.data(),
                                 lda_, x);
  }

 private:
  [[nodiscard]] index_t ownerRowOfGlobal(index_t i) const {
    return (i / b_) % ctx_.layout().pr();
  }
  [[nodiscard]] index_t localRowOfGlobal(index_t i) const {
    return ((i / b_) / ctx_.layout().pr()) * b_ + i % b_;
  }

  /// Visits local element rows whose global row is > g, within the
  /// trailing area of step k (block rows >= k).
  template <typename Fn>
  void forEachLocalRowBelow(index_t k, index_t g, Fn&& fn) const {
    const BlockCyclic& layout = ctx_.layout();
    const index_t lbr = layout.localBlockRows(ctx_.myRow());
    for (index_t li = layout.firstLocalBlockRowAtOrAfter(ctx_.myRow(), k);
         li < lbr; ++li) {
      const index_t gi = layout.globalBlockRow(ctx_.myRow(), li);
      for (index_t r = 0; r < b_; ++r) {
        if (gi * b_ + r > g) {
          fn(li * b_ + r);
        }
      }
    }
  }

  /// Swaps global rows g <-> rp across local columns [col0, col0+width).
  /// Collective over the process column (grid rows exchange pairwise).
  void swapRows(index_t g, index_t rp, index_t col0, index_t width) {
    if (g == rp || width <= 0) {
      return;
    }
    const index_t gr1 = ownerRowOfGlobal(g);
    const index_t gr2 = ownerRowOfGlobal(rp);
    const bool own1 = ctx_.myRow() == gr1;
    const bool own2 = ctx_.myRow() == gr2;
    if (!own1 && !own2) {
      return;
    }
    auto packRow = [&](index_t lr, std::vector<double>& buf) {
      buf.resize(static_cast<std::size_t>(width));
      for (index_t c = 0; c < width; ++c) {
        buf[static_cast<std::size_t>(c)] = localA_[lr + (col0 + c) * lda_];
      }
    };
    auto unpackRow = [&](index_t lr, const std::vector<double>& buf) {
      for (index_t c = 0; c < width; ++c) {
        localA_[lr + (col0 + c) * lda_] = buf[static_cast<std::size_t>(c)];
      }
    };
    if (gr1 == gr2) {
      // Both rows local: plain swap.
      const index_t lr1 = localRowOfGlobal(g);
      const index_t lr2 = localRowOfGlobal(rp);
      for (index_t c = 0; c < width; ++c) {
        std::swap(localA_[lr1 + (col0 + c) * lda_],
                  localA_[lr2 + (col0 + c) * lda_]);
      }
      return;
    }
    // Exchange with the partner rank in the other grid row, same column.
    const index_t myGlobal = own1 ? g : rp;
    const index_t partnerGridRow = own1 ? gr2 : gr1;
    const index_t lr = localRowOfGlobal(myGlobal);
    std::vector<double> mine, theirs(static_cast<std::size_t>(width));
    packRow(lr, mine);
    ctx_.colComm().sendrecv(partnerGridRow, kSwapTag, mine.data(),
                            theirs.data(), width);
    unpackRow(lr, theirs);
  }

  /// Pivoted panel factorization of block column k (grid column k%Pc).
  void panelFactor(index_t k, std::vector<index_t>& ipiv) {
    const BlockCyclic& layout = ctx_.layout();
    const index_t lcol0 = layout.localBlockCol(k) * b_;
    std::vector<double> seg(static_cast<std::size_t>(b_));

    for (index_t jj = 0; jj < b_; ++jj) {
      const index_t g = k * b_ + jj;
      // Pivot search: max |A(i, g)| over i >= g (my local share).
      double best = -1.0;
      index_t bestRow = g;
      const double* colJ = localA_.data() + (lcol0 + jj) * lda_;
      forEachLocalRowBelow(k, g - 1, [&](index_t lr) {
        const double v = std::fabs(colJ[lr]);
        if (v > best) {
          best = v;
          bestRow = layout.globalBlockRow(ctx_.myRow(), lr / b_) * b_ +
                    lr % b_;
        }
      });
      const auto ml = ctx_.colComm().allreduceMaxLoc(best, bestRow);
      HPLMXP_REQUIRE(ml.value > 0.0, "HPL: singular matrix");
      ipiv[static_cast<std::size_t>(jj)] = ml.where;
      swapRows(g, ml.where, lcol0, b_);

      // Broadcast the pivot row's remaining panel segment (row g now holds
      // the pivot row) down the process column.
      const index_t ownerRow = ownerRowOfGlobal(g);
      const index_t segLen = b_ - jj;
      if (ctx_.myRow() == ownerRow) {
        const index_t lr = localRowOfGlobal(g);
        for (index_t c = 0; c < segLen; ++c) {
          seg[static_cast<std::size_t>(c)] =
              localA_[lr + (lcol0 + jj + c) * lda_];
        }
      }
      ctx_.colComm().bcast(ownerRow, seg.data(), segLen);
      const double pivot = seg[0];

      // Scale the multipliers and rank-1-update the rest of the panel.
      double* colMut = localA_.data() + (lcol0 + jj) * lda_;
      forEachLocalRowBelow(k, g, [&](index_t lr) {
        colMut[lr] /= pivot;
      });
      for (index_t c = 1; c < segLen; ++c) {
        double* colC = localA_.data() + (lcol0 + jj + c) * lda_;
        const double up = seg[static_cast<std::size_t>(c)];
        forEachLocalRowBelow(k, g, [&](index_t lr) {
          colC[lr] -= colMut[lr] * up;
        });
      }
    }
  }

  /// HPL's laswp: applies the panel's interchanges to every local column
  /// outside the panel itself.
  void applySwapsOutsidePanel(index_t k, const std::vector<index_t>& ipiv) {
    const BlockCyclic& layout = ctx_.layout();
    const bool ownPanel = ctx_.myCol() == k % layout.pc();
    const index_t lcol0 = ownPanel ? layout.localBlockCol(k) * b_ : 0;
    for (index_t jj = 0; jj < b_; ++jj) {
      const index_t g = k * b_ + jj;
      const index_t rp = ipiv[static_cast<std::size_t>(jj)];
      if (ownPanel) {
        swapRows(g, rp, 0, lcol0);
        swapRows(g, rp, lcol0 + b_, ctx_.localCols() - lcol0 - b_);
      } else {
        swapRows(g, rp, 0, ctx_.localCols());
      }
    }
  }

  /// TRSM + panel broadcasts + FP64 trailing GEMM of step k.
  void updateTrailing(index_t k) {
    const BlockCyclic& layout = ctx_.layout();
    const index_t pir = k % layout.pr();
    const index_t pic = k % layout.pc();
    const index_t iStartBlk =
        layout.firstLocalBlockRowAtOrAfter(ctx_.myRow(), k + 1);
    const index_t jStartBlk =
        layout.firstLocalBlockColAtOrAfter(ctx_.myCol(), k + 1);
    const index_t h = ctx_.localRows() - iStartBlk * b_;
    const index_t w = ctx_.localCols() - jStartBlk * b_;

    // Diagonal block to everyone in the owner's row (for the U TRSM).
    if (ctx_.myRow() == pir) {
      if (ctx_.myCol() == pic) {
        const double* src = localA_.data() + layout.localBlockRow(k) * b_ +
                            layout.localBlockCol(k) * b_ * lda_;
        for (index_t j = 0; j < b_; ++j) {
          std::memcpy(diagBuf_.data() + j * b_, src + j * lda_,
                      static_cast<std::size_t>(b_) * sizeof(double));
        }
      }
      ctx_.rowComm().bcast(pic, diagBuf_.data(), b_ * b_);
      if (w > 0) {
        double* panel = localA_.data() + layout.localBlockRow(k) * b_ +
                        jStartBlk * b_ * lda_;
        blas::dtrsm(blas::Side::kLeft, blas::Uplo::kLower, blas::Diag::kUnit,
                    b_, w, 1.0, diagBuf_.data(), b_, panel, lda_);
        // Pack U (b x w) contiguously for the broadcast.
        for (index_t c = 0; c < w; ++c) {
          std::memcpy(uPanel_.data() + c * b_,
                      panel + c * lda_,
                      static_cast<std::size_t>(b_) * sizeof(double));
        }
      }
    }
    if (w > 0) {
      simmpi::broadcast(ctx_.colComm(), cfg_.panelBcast, pir, uPanel_.data(),
                        w * b_);
    }

    // L panel (the freshly factored multipliers) along the rows.
    if (ctx_.myCol() == pic && h > 0) {
      const double* src = localA_.data() + iStartBlk * b_ +
                          layout.localBlockCol(k) * b_ * lda_;
      for (index_t c = 0; c < b_; ++c) {
        std::memcpy(lPanel_.data() + c * h, src + c * lda_,
                    static_cast<std::size_t>(h) * sizeof(double));
      }
    }
    if (h > 0) {
      simmpi::broadcast(ctx_.rowComm(), cfg_.panelBcast, pic, lPanel_.data(),
                        h * b_);
    }

    if (h > 0 && w > 0) {
      blas::dgemm(blas::Trans::kNoTrans, blas::Trans::kNoTrans, h, w, b_,
                  -1.0, lPanel_.data(), h, uPanel_.data(), b_, 1.0,
                  localA_.data() + iStartBlk * b_ + jStartBlk * b_ * lda_,
                  lda_);
    }
  }

  DistContext& ctx_;
  const HplDistConfig& cfg_;
  const ProblemGenerator& gen_;
  index_t b_;
  index_t lda_;
  Buffer<double> localA_;
  Buffer<double> diagBuf_;
  Buffer<double> lPanel_;
  Buffer<double> uPanel_;
  std::vector<index_t> pivots_;
};

}  // namespace

HplDistResult runHplDistOnComm(simmpi::Comm& world,
                               const HplDistConfig& config,
                               std::vector<double>* solutionOut) {
  config.validate();
  HplaiConfig layoutCfg;  // reuse the layout/context plumbing
  layoutCfg.n = config.n;
  layoutCfg.b = config.b;
  layoutCfg.pr = config.pr;
  layoutCfg.pc = config.pc;
  DistContext ctx(world, layoutCfg);
  const ProblemGenerator gen(config.seed, config.n, config.diagShift);

  DistHpl engine(ctx, config, gen);
  world.barrier();
  Timer timer;
  const index_t swaps = engine.factor();
  world.barrier();
  const double factorSeconds = timer.seconds();

  timer.reset();
  std::vector<double> x;
  engine.solve(x);
  world.barrier();
  const double solveSeconds = timer.seconds();

  // HPL validity check against the regenerated (unpermuted) system.
  std::vector<double> r;
  distributedResidual(ctx, gen, x, r);
  double rInf = 0.0;
  double xInf = 0.0;
  for (index_t i = 0; i < config.n; ++i) {
    rInf = std::max(rInf, std::fabs(r[static_cast<std::size_t>(i)]));
    xInf = std::max(xInf, std::fabs(x[static_cast<std::size_t>(i)]));
  }
  const double aInf = distributedMatrixInfNorm(ctx, gen);
  const double bInf = gen.rhsInfNorm();
  constexpr double kEps = std::numeric_limits<double>::epsilon();

  HplDistResult result;
  result.n = config.n;
  result.b = config.b;
  result.ranks = world.size();
  result.rowSwaps = swaps;
  result.residualInf = rInf;
  result.scaledResidual =
      rInf / (kEps * (aInf * xInf + bInf) * static_cast<double>(config.n));

  double times[2] = {factorSeconds, solveSeconds};
  world.bcast(0, times, 2);
  result.factorSeconds = times[0];
  result.solveSeconds = times[1];

  if (solutionOut != nullptr) {
    *solutionOut = std::move(x);
  }
  return result;
}

HplDistResult runHplDist(const HplDistConfig& config,
                         std::vector<double>* solutionOut) {
  HplDistResult rank0;
  std::vector<double> solution;
  simmpi::run(config.worldSize(), [&](simmpi::Comm& world) {
    std::vector<double> local;
    HplDistResult r = runHplDistOnComm(world, config, &local);
    if (world.rank() == 0) {
      rank0 = r;
      solution = std::move(local);
    }
  });
  if (solutionOut != nullptr) {
    *solutionOut = std::move(solution);
  }
  return rank0;
}

}  // namespace hplmxp
