// Distributed GPU-style block LU factorization without pivoting —
// part (1) of Algorithm 1.
//
// Each iteration k:
//   (1a) Diagonal Update: the owner of A(k,k) factors it with no-pivot
//        GETRF (FP32) and broadcasts the factors along its process row and
//        process column.
//   (1b) Panel Update: grid row k%Pr solves the U row panel with
//        TRSM_L_LOW; grid column k%Pc solves the L column panel with
//        TRSM_R_UP (both FP32). Each solve also writes its FP16 panel as
//        it writes the FP32 result back (blas::HalfPanel): L as CAST
//        stores it, U transposed as TRANS_CAST stores it, so the trailing
//        GEMM reads both panels with a uniform fast layout and no pass
//        reads a panel again to narrow it. The cast is therefore timed as
//        TRSM. Panels are broadcast along columns/rows with the configured
//        strategy (Bcast/IBcast/Ring1/Ring1M/Ring2M).
//   (1c) Update Trailing Matrix: mixed-precision GEMM
//        A22 -= L21 * U12 with FP16 operands and FP32 accumulation.
//
// Look-ahead (Sec. IV-B): iteration k's trailing update is split into the
// strips iteration k+1 needs (global block row/column k+1), updated first,
// and the bulk. Each rank then orders iteration k+1's diagonal/panel work
// and panel broadcast against the bulk GEMM by the grid geometry alone. A
// rank that a peer waits on (the next row owner when Pr > 1, the next
// column owner when Pc > 1) does its panel work first, so its sends leave
// before its bulk GEMM. Every other rank (a pure receiver, a ring or tree
// forwarder, the 1x1 grid) runs the bulk first and only then takes the
// panels, which have usually landed by then. Either order is safe:
//   - simmpi sends are eager, so a panel-first owner never waits for a
//     bulk-first receiver;
//   - the panels are double-buffered: the bulk reads set k%2 while the
//     panel work writes the other set;
//   - the bulk region skips the k+1 row and column strips, the only tiles
//     the panel work reads or writes, and the diagonal and ABFT checksum
//     scratch belong to the panel work (the bulk uses only its own GEMM
//     carry-check scratch);
//   - the bulk makes no comm call, so each rank's sequence of comm ops, and
//     every op-indexed fault plan with it, is the same in either order.
// The factored matrix is bitwise identical with look-ahead on or off (each
// element's update is a single dot product either way), which
// tests/test_lookahead_equiv.cpp checks.
#pragma once

#include <functional>
#include <vector>

#include "blas/abft.h"
#include "core/config.h"
#include "core/dist_context.h"
#include "device/shim.h"
#include "fp16/half.h"
#include "simmpi/recovery.h"
#include "util/buffer.h"

namespace hplmxp {

class DistLU {
 public:
  DistLU(DistContext& ctx, const HplaiConfig& config, BlasShim& shim);

  /// FP16 panel buffer sets (one L + one U panel each) a factorization
  /// under `config` keeps in flight: two with look-ahead (step k's GEMM
  /// reads set k%2 while step k+1's panels land in the other), else one.
  [[nodiscard]] static index_t panelSets(const HplaiConfig& config) {
    return config.lookahead ? 2 : 1;
  }

  /// Arms crash-rank recovery (config.recovery.enabled must also be set):
  /// the no-look-ahead loop checkpoints every `checkpointEveryK`
  /// steps and resurrects this rank from an InjectedCrashError by
  /// restoring the checkpoint and replaying forward. The manager is owned
  /// by the caller (one per rank thread) and must outlive factor().
  void setRecovery(simmpi::RecoveryManager* recovery) {
    recovery_ = recovery;
  }

  /// Progress hook, evaluated on rank 0 after each block step with
  /// (k, iteration seconds); returning true aborts the run collectively
  /// (all ranks stop at the same step). This is the paper's early-
  /// termination mechanism for hung/slow runs (Sec. VI-B); wire a
  /// trace::ProgressMonitor into it from the caller.
  using ProgressFn = std::function<bool(index_t k, double iterSeconds)>;
  void setProgressCallback(ProgressFn fn) { progress_ = std::move(fn); }

  /// Per-rank progress hook for mid-run slow-rank detection: after each
  /// block step the per-rank barrier-wait times are gathered and the hook
  /// runs on rank 0 with (k, waits). A persistently last-arriving rank
  /// waits ~0 while its peers idle, so `max(waits) - waits[r]` is rank r's
  /// lag behind the pipeline; wire a trace::SlowRankMonitor in. Returning
  /// true aborts collectively, like the progress hook. Costs one timed
  /// barrier + one small gather per step — only when set.
  using RankProgressFn =
      std::function<bool(index_t k, const std::vector<double>& waits)>;
  void setRankProgressCallback(RankProgressFn fn) {
    rankProgress_ = std::move(fn);
  }

  /// Factors the rank-local matrix (col-major FP32, leading dimension
  /// `lda` >= localRows) in place. Returns the rank-0 per-iteration trace
  /// when config.collectTrace is set (empty vector on other ranks).
  std::vector<IterationTrace> factor(float* localA, index_t lda);

  /// True when the last factor() was stopped early by the progress hook.
  [[nodiscard]] bool aborted() const { return aborted_; }
  /// Block steps completed by the last factor().
  [[nodiscard]] index_t stepsCompleted() const { return stepsCompleted_; }

 private:
  /// Geometry of one block step, identical on every rank.
  struct StepGeom {
    index_t k = 0;
    index_t pir = 0, pic = 0;       // owner grid coordinates of A(k,k)
    index_t iStartBlk = 0;          // first trailing local block row
    index_t jStartBlk = 0;          // first trailing local block col
    index_t h = 0, w = 0;           // trailing local extents (elements)
    bool ownRow = false, ownCol = false, ownDiag = false;
    index_t lkRow = 0, lkCol = 0;   // local block indices of row/col k
  };

  [[nodiscard]] StepGeom geometry(index_t k) const;

  /// (1a) + (1b): factor/broadcast the diagonal, solve/cast/broadcast the
  /// panels of step k into panel buffer set `bufIdx`.
  void panelsPhase(const StepGeom& g, int bufIdx, float* localA, index_t lda,
                   IterationTrace* trace);

  /// (1c) restricted to a local block region: rows >= iBlk0, cols >= jBlk0,
  /// optionally clipped to `rowBlocks`/`colBlocks` blocks (-1 = to the end).
  void updateRegion(const StepGeom& g, int bufIdx, float* localA, index_t lda,
                    index_t iBlk0, index_t jBlk0, index_t rowBlocks,
                    index_t colBlocks);

  /// Full trailing update of step k (no look-ahead path).
  void updateFull(const StepGeom& g, int bufIdx, float* localA, index_t lda,
                  IterationTrace* trace);

  /// Look-ahead split: the strips step k+1 needs, then the bulk. Both add
  /// to the step's gemmSeconds.
  void updateStrips(const StepGeom& g, const StepGeom& next, int bufIdx,
                    float* localA, index_t lda, IterationTrace* trace);
  void updateBulk(const StepGeom& g, const StepGeom& next, int bufIdx,
                  float* localA, index_t lda, IterationTrace* trace);

  /// Collective abort poll: rank 0 evaluates the hook(s); everyone learns
  /// the verdict. Returns true when the run must stop.
  bool pollAbort(index_t k, double iterSeconds);

  /// ABFT panel protection (config.abftPanels): broadcast the root's
  /// checksums after each panel broadcast and verify/correct on every
  /// rank. Throws blas::AbnormalValueError on uncorrectable corruption.
  void abftProtectPanels(const StepGeom& g, int bufIdx,
                         IterationTrace* trace);
  void abftProtectU(const StepGeom& g, int bufIdx, IterationTrace* trace);
  void abftProtectL(const StepGeom& g, int bufIdx, IterationTrace* trace);
  void noteAbftOutcome(const StepGeom& g, const char* panel,
                       const blas::AbftOutcome& out, IterationTrace* trace);

  /// Rotating recovery checkpoint at step k: only tiles the factorization
  /// could have touched since the previous checkpoint are re-copied.
  void takeCheckpoint(index_t k, const float* localA, index_t lda);

  /// Self-healing guard scans (config.guardPanels): throw
  /// blas::AbnormalValueError with step context on corruption.
  void guardDiag(const StepGeom& g) const;
  void guardHalfU(const StepGeom& g, int bufIdx) const;
  void guardHalfL(const StepGeom& g, int bufIdx) const;
  void guardHalfPanels(const StepGeom& g, int bufIdx) const;
  void guardTile(index_t k, index_t m, index_t n, const float* tile,
                 index_t lda) const;

  DistContext& ctx_;
  const HplaiConfig& config_;
  BlasShim& shim_;
  ProgressFn progress_;
  RankProgressFn rankProgress_;
  simmpi::RecoveryManager* recovery_ = nullptr;
  bool aborted_ = false;
  index_t stepsCompleted_ = 0;

  std::vector<float> abftSums_;    // checksum bcast scratch
  std::vector<double> abftRow64_;  // GEMM carry-check scratch

  Buffer<float> diagBuf_;
  Buffer<half16> lHalf_[2];
  Buffer<half16> uHalf_[2];
};

}  // namespace hplmxp
