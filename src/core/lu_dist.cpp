#include "core/lu_dist.h"

#include <cstdint>
#include <cstring>
#include <string>

#include "blas/blas.h"
#include "simmpi/faults.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hplmxp {

using simmpi::broadcast;

namespace {

// Guard limits for the abnormal-value scans (config.guardPanels). The
// generator's matrices are diagonally dominant with O(1) off-diagonal
// entries, so legitimate FP16 panel values stay within a few units (the L
// panel is ~1/N); an exponent-bit flip lands at x * 2^16 or non-finite,
// far above kHalfGuardLimit. FP32 diagonal/trailing tiles legitimately
// reach ~N on the diagonal, so their ceiling is generous.
constexpr double kHalfGuardLimit = 64.0;
constexpr double kFloatGuardLimit = 1e8;

}  // namespace

DistLU::DistLU(DistContext& ctx, const HplaiConfig& config, BlasShim& shim)
    : ctx_(ctx), config_(config), shim_(shim) {
  const index_t b = config_.b;
  diagBuf_.allocate(b * b);
  for (index_t i = 0; i < panelSets(config_); ++i) {
    lHalf_[i].allocate(ctx_.localRows() * b);
    uHalf_[i].allocate(ctx_.localCols() * b);
  }
}

DistLU::StepGeom DistLU::geometry(index_t k) const {
  const BlockCyclic& layout = ctx_.layout();
  StepGeom g;
  g.k = k;
  g.pir = k % layout.pr();
  g.pic = k % layout.pc();
  g.iStartBlk = layout.firstLocalBlockRowAtOrAfter(ctx_.myRow(), k + 1);
  g.jStartBlk = layout.firstLocalBlockColAtOrAfter(ctx_.myCol(), k + 1);
  g.h = ctx_.localRows() - g.iStartBlk * config_.b;
  g.w = ctx_.localCols() - g.jStartBlk * config_.b;
  g.ownRow = ctx_.myRow() == g.pir;
  g.ownCol = ctx_.myCol() == g.pic;
  g.ownDiag = g.ownRow && g.ownCol;
  g.lkRow = layout.localBlockRow(k);
  g.lkCol = layout.localBlockCol(k);
  return g;
}

void DistLU::guardDiag(const StepGeom& g) const {
  const index_t b = config_.b;
  const blas::AbnormalScan s =
      blas::scanAbnormal(b, b, diagBuf_.data(), b, kFloatGuardLimit);
  if (s) {
    throw blas::AbnormalValueError(
        "LU step " + std::to_string(g.k) + " rank " +
        std::to_string(ctx_.rank()) + ": corrupted diagonal block: " +
        s.describe());
  }
}

void DistLU::guardHalfU(const StepGeom& g, int bufIdx) const {
  const index_t b = config_.b;
  if (g.w > 0) {
    const blas::AbnormalScan s = blas::scanAbnormal(
        g.w, b, uHalf_[bufIdx].data(), g.w, kHalfGuardLimit);
    if (s) {
      throw blas::AbnormalValueError(
          "LU step " + std::to_string(g.k) + " rank " +
          std::to_string(ctx_.rank()) + ": corrupted FP16 U panel: " +
          s.describe());
    }
  }
}

void DistLU::guardHalfL(const StepGeom& g, int bufIdx) const {
  const index_t b = config_.b;
  if (g.h > 0) {
    const blas::AbnormalScan s = blas::scanAbnormal(
        g.h, b, lHalf_[bufIdx].data(), g.h, kHalfGuardLimit);
    if (s) {
      throw blas::AbnormalValueError(
          "LU step " + std::to_string(g.k) + " rank " +
          std::to_string(ctx_.rank()) + ": corrupted FP16 L panel: " +
          s.describe());
    }
  }
}

void DistLU::guardHalfPanels(const StepGeom& g, int bufIdx) const {
  guardHalfU(g, bufIdx);
  guardHalfL(g, bufIdx);
}

void DistLU::guardTile(index_t k, index_t m, index_t n, const float* tile,
                       index_t lda) const {
  const blas::AbnormalScan s =
      blas::scanAbnormal(m, n, tile, lda, kFloatGuardLimit);
  if (s) {
    throw blas::AbnormalValueError(
        "LU step " + std::to_string(k) + " rank " +
        std::to_string(ctx_.rank()) + ": corrupted trailing tile: " +
        s.describe());
  }
}

void DistLU::abftProtectU(const StepGeom& g, int bufIdx,
                          IterationTrace* trace) {
  const index_t b = config_.b;
  abftSums_.resize(static_cast<std::size_t>(g.w + b));
  float* rowSums = abftSums_.data();
  float* colSums = abftSums_.data() + g.w;
  if (g.ownRow) {
    // The root's buffer is the authoritative pre-send panel content.
    blas::abftChecksum(g.w, b, uHalf_[bufIdx].data(), g.w, rowSums, colSums);
  }
  broadcast(ctx_.colComm(), config_.panelBcast, g.pir, abftSums_.data(),
            g.w + b);
  const blas::AbftOutcome out = blas::abftVerifyCorrect(
      g.w, b, uHalf_[bufIdx].data(), g.w, rowSums, colSums);
  noteAbftOutcome(g, "U", out, trace);
}

void DistLU::abftProtectL(const StepGeom& g, int bufIdx,
                          IterationTrace* trace) {
  const index_t b = config_.b;
  abftSums_.resize(static_cast<std::size_t>(g.h + b));
  float* rowSums = abftSums_.data();
  float* colSums = abftSums_.data() + g.h;
  if (g.ownCol) {
    blas::abftChecksum(g.h, b, lHalf_[bufIdx].data(), g.h, rowSums, colSums);
  }
  broadcast(ctx_.rowComm(), config_.panelBcast, g.pic, abftSums_.data(),
            g.h + b);
  const blas::AbftOutcome out = blas::abftVerifyCorrect(
      g.h, b, lHalf_[bufIdx].data(), g.h, rowSums, colSums);
  noteAbftOutcome(g, "L", out, trace);
}

void DistLU::abftProtectPanels(const StepGeom& g, int bufIdx,
                               IterationTrace* trace) {
  if (g.w > 0) {
    abftProtectU(g, bufIdx, trace);
  }
  if (g.h > 0) {
    abftProtectL(g, bufIdx, trace);
  }
}

void DistLU::noteAbftOutcome(const StepGeom& g, const char* panel,
                             const blas::AbftOutcome& out,
                             IterationTrace* trace) {
  const auto& stats = config_.recoveryStats;
  if (stats) {
    stats->abftPanelChecks.fetch_add(1);
  }
  switch (out.status) {
    case blas::AbftOutcome::Status::kClean:
      return;
    case blas::AbftOutcome::Status::kCorrected:
      if (stats) {
        stats->flipsDetected.fetch_add(1);
        stats->flipsCorrected.fetch_add(1);
      }
      if (trace != nullptr) {
        ++trace->abftEvents;
      }
      logWarn("LU step " + std::to_string(g.k) + " rank " +
              std::to_string(ctx_.rank()) + ": ABFT corrected bit flip in " +
              panel + " panel at (" + std::to_string(out.row) + "," +
              std::to_string(out.col) + "), bits " +
              std::to_string(out.badBits) + " -> " +
              std::to_string(out.goodBits));
      return;
    case blas::AbftOutcome::Status::kChecksumCorrupted:
      if (stats) {
        stats->checksumCorruptions.fetch_add(1);
      }
      logWarn("LU step " + std::to_string(g.k) + " rank " +
              std::to_string(ctx_.rank()) +
              ": ABFT checksum payload corrupted for " + panel +
              " panel; panel data verified intact in the other dimension");
      return;
    case blas::AbftOutcome::Status::kUncorrectable:
      if (stats) {
        stats->flipsDetected.fetch_add(1);
      }
      throw blas::AbnormalValueError(
          "LU step " + std::to_string(g.k) + " rank " +
          std::to_string(ctx_.rank()) + ": ABFT uncorrectable corruption in " +
          panel + " panel (multi-element mismatch near (" +
          std::to_string(out.row) + "," + std::to_string(out.col) + "))");
  }
}

void DistLU::panelsPhase(const StepGeom& g, int bufIdx, float* localA,
                         index_t lda, IterationTrace* trace) {
  const index_t b = config_.b;
  Timer t;

  // ---- (1a) Diagonal Update --------------------------------------------
  if (g.ownDiag) {
    // Pack the diagonal block contiguously, factor, and write it back so
    // the local matrix ends up holding the final L/U entries.
    float* src = localA + g.lkRow * b + g.lkCol * b * lda;
    for (index_t j = 0; j < b; ++j) {
      std::memcpy(diagBuf_.data() + j * b, src + j * lda,
                  static_cast<std::size_t>(b) * sizeof(float));
    }
    if (shim_.vendor() == Vendor::kNvidia) {
      (void)shim_.getrfBufferSize(b, b);  // cuSOLVER two-step protocol
    }
    shim_.getrf(b, diagBuf_.data(), b);
    for (index_t j = 0; j < b; ++j) {
      std::memcpy(src + j * lda, diagBuf_.data() + j * b,
                  static_cast<std::size_t>(b) * sizeof(float));
    }
    if (recovery_ != nullptr) {
      recovery_->dirtyMap().mark(g.lkRow, g.lkCol);
    }
  }
  // Broadcast the factored diagonal along the owner's process row and
  // process column (synchronous tree; the paper neglects its cost).
  if (g.ownRow) {
    ctx_.rowComm().bcast(g.pic, diagBuf_.data(), b * b);
  }
  if (g.ownCol) {
    ctx_.colComm().bcast(g.pir, diagBuf_.data(), b * b);
  }
  if (trace != nullptr) {
    trace->diagSeconds += t.seconds();
  }

  // ---- (1b) Panel Update ------------------------------------------------
  // U row panel: grid row pir solves L11 * U(k, k+1:) = A(k, k+1:).
  if (g.ownRow && g.w > 0) {
    t.reset();
    float* panel = localA + g.lkRow * b + g.jStartBlk * b * lda;
    shim_.trsm(blas::Side::kLeft, blas::Uplo::kLower, blas::Diag::kUnit, b,
               g.w, 1.0f, diagBuf_.data(), b, panel, lda);
    if (recovery_ != nullptr) {
      recovery_->dirtyMap().markRect(g.lkRow, g.jStartBlk, 1, g.w / b);
    }
    if (trace != nullptr) {
      trace->trsmSeconds += t.seconds();
    }
    t.reset();
    blas::transCastToHalf(b, g.w, panel, lda, uHalf_[bufIdx].data(), g.w);
    if (trace != nullptr) {
      trace->castSeconds += t.seconds();
    }
  }
  // L column panel: grid column pic solves L(k+1:, k) * U11 = A(k+1:, k).
  if (g.ownCol && g.h > 0) {
    t.reset();
    float* panel = localA + g.iStartBlk * b + g.lkCol * b * lda;
    shim_.trsm(blas::Side::kRight, blas::Uplo::kUpper, blas::Diag::kNonUnit,
               g.h, b, 1.0f, diagBuf_.data(), b, panel, lda);
    if (recovery_ != nullptr) {
      recovery_->dirtyMap().markRect(g.iStartBlk, g.lkCol, g.h / b, 1);
    }
    if (trace != nullptr) {
      trace->trsmSeconds += t.seconds();
    }
    t.reset();
    blas::castToHalf(g.h, b, panel, lda, lHalf_[bufIdx].data(), g.h);
    if (trace != nullptr) {
      trace->castSeconds += t.seconds();
    }
  }

  // Panel broadcasts with the configured strategy: U down each process
  // column (root pir), L across each process row (root pic). Extents are
  // consistent within a column/row, so receivers size buffers locally.
  t.reset();
  if (g.w > 0) {
    broadcast(ctx_.colComm(), config_.panelBcast, g.pir,
              uHalf_[bufIdx].data(), g.w * config_.b);
  }
  if (g.h > 0) {
    broadcast(ctx_.rowComm(), config_.panelBcast, g.pic,
              lHalf_[bufIdx].data(), g.h * config_.b);
  }
  if (trace != nullptr) {
    trace->bcastSeconds += t.seconds();
  }

  // ABFT verify-and-correct runs before the guards: a single in-flight
  // flip is repaired here and never reaches them.
  if (config_.abftPanels) {
    abftProtectPanels(g, bufIdx, trace);
  }

  // Self-healing guards: catch broadcast corruption (e.g. an injected SDC
  // bit flip) before the panels poison the trailing matrix.
  if (config_.guardPanels) {
    if (g.ownRow || g.ownCol) {
      guardDiag(g);
    }
    guardHalfPanels(g, bufIdx);
  }
}

void DistLU::updateRegion(const StepGeom& g, int bufIdx, float* localA,
                          index_t lda, index_t iBlk0, index_t jBlk0,
                          index_t rowBlocks, index_t colBlocks) {
  const index_t b = config_.b;
  const index_t totalRowBlocks = ctx_.localRows() / b - iBlk0;
  const index_t totalColBlocks = ctx_.localCols() / b - jBlk0;
  const index_t mBlocks =
      rowBlocks < 0 ? totalRowBlocks : std::min(rowBlocks, totalRowBlocks);
  const index_t nBlocks =
      colBlocks < 0 ? totalColBlocks : std::min(colBlocks, totalColBlocks);
  const index_t m = mBlocks * b;
  const index_t n = nBlocks * b;
  if (m <= 0 || n <= 0) {
    return;
  }
  if (recovery_ != nullptr) {
    recovery_->dirtyMap().markRect(iBlk0, jBlk0, mBlocks, nBlocks);
  }
  const half16* lPtr = lHalf_[bufIdx].data() + (iBlk0 - g.iStartBlk) * b;
  const half16* uPtr = uHalf_[bufIdx].data() + (jBlk0 - g.jStartBlk) * b;
  float* cPtr = localA + iBlk0 * b + jBlk0 * b * lda;
  if (config_.abftGemm) {
    abftRow64_.resize(static_cast<std::size_t>(m));
    blas::abftRowSums64(m, n, cPtr, lda, abftRow64_.data());
  }
  // C -= L * U^T (U was stored transposed by TRANS_CAST).
  shim_.gemmEx(blas::Trans::kNoTrans, blas::Trans::kTrans, m, n, b, -1.0f,
               lPtr, g.h, uPtr, g.w, 1.0f, cPtr, lda);
  if (config_.abftGemm) {
    const blas::AbftGemmCheck chk = blas::abftGemmCarryCheck(
        m, n, b, abftRow64_.data(), lPtr, g.h, uPtr, g.w, cPtr, lda);
    if (config_.recoveryStats) {
      config_.recoveryStats->abftGemmChecks.fetch_add(1);
    }
    if (chk) {
      throw blas::AbnormalValueError(
          "LU step " + std::to_string(g.k) + " rank " +
          std::to_string(ctx_.rank()) +
          ": trailing-update row-sum invariant violated at local row " +
          std::to_string(chk.row) + " (predicted " +
          std::to_string(chk.predicted) + ", actual " +
          std::to_string(chk.actual) + ", tolerance " +
          std::to_string(chk.tolerance) + ")");
    }
  }
  if (config_.guardPanels) {
    guardTile(g.k, m, n, cPtr, lda);
  }
}

void DistLU::updateFull(const StepGeom& g, int bufIdx, float* localA,
                        index_t lda, IterationTrace* trace) {
  Timer t;
  updateRegion(g, bufIdx, localA, lda, g.iStartBlk, g.jStartBlk, -1, -1);
  if (trace != nullptr) {
    trace->gemmSeconds += t.seconds();
  }
}

void DistLU::updateStrips(const StepGeom& g, const StepGeom& next, int bufIdx,
                          float* localA, index_t lda, IterationTrace* trace) {
  Timer t;
  // Row strip: the local rows of global block row k+1, across the full
  // trailing width — they are the first trailing block row on their owner.
  if (next.ownRow) {
    updateRegion(g, bufIdx, localA, lda, g.iStartBlk, g.jStartBlk, 1, -1);
  }
  if (next.ownCol) {
    // Skip the corner block if this rank owns both strips (it was covered
    // by the row strip above).
    const index_t iBlk0 = g.iStartBlk + (next.ownRow ? 1 : 0);
    updateRegion(g, bufIdx, localA, lda, iBlk0, g.jStartBlk, -1, 1);
  }
  if (trace != nullptr) {
    trace->gemmSeconds += t.seconds();
  }
}

void DistLU::updateBulk(const StepGeom& g, const StepGeom& next, int bufIdx,
                        float* localA, index_t lda, IterationTrace* trace) {
  Timer t;
  const index_t iBlk0 = g.iStartBlk + (next.ownRow ? 1 : 0);
  const index_t jBlk0 = g.jStartBlk + (next.ownCol ? 1 : 0);
  updateRegion(g, bufIdx, localA, lda, iBlk0, jBlk0, -1, -1);
  if (trace != nullptr) {
    trace->gemmSeconds += t.seconds();
  }
}

void DistLU::takeCheckpoint(index_t k, const float* localA, index_t lda) {
  // The manager snapshots exactly the tiles the TRSM/GEMM marking above
  // dirtied since the previous generation; never-touched regions stay
  // LCG-regenerable and are stored nowhere.
  recovery_->checkpoint(k, localA, lda);
}

bool DistLU::pollAbort(index_t k, double iterSeconds) {
  if (!progress_ && !rankProgress_) {
    return false;
  }
  // Rank 0 holds the monitor(s); its verdict is broadcast so every rank
  // stops at the same block step (the runs-at-scale early-termination
  // policy).
  std::uint8_t abort = 0;
  if (rankProgress_) {
    // Slow-rank detection: time how long each rank idles at a barrier. The
    // pacing (slowest) rank arrives last and waits ~0 while everyone else
    // waits for it, so max(waits) - waits[r] is rank r's lag this step.
    Timer waitTimer;
    ctx_.world().barrier();
    const double myWait = waitTimer.seconds();
    std::vector<double> waits(
        static_cast<std::size_t>(ctx_.world().size()), 0.0);
    ctx_.world().gather(0, &myWait, waits.data(), 1);
    if (ctx_.rank() == 0 && rankProgress_(k, waits)) {
      abort = 1;
    }
  }
  if (ctx_.rank() == 0 && progress_ && progress_(k, iterSeconds)) {
    abort = 1;
  }
  ctx_.world().bcast(0, &abort, 1);
  return abort != 0;
}

std::vector<IterationTrace> DistLU::factor(float* localA, index_t lda) {
  HPLMXP_REQUIRE(lda >= ctx_.localRows(), "lda too small for local matrix");
  aborted_ = false;
  stepsCompleted_ = 0;
  const index_t nb = ctx_.layout().globalBlocks();
  const bool tracing = config_.collectTrace && ctx_.rank() == 0;
  std::vector<IterationTrace> traces;
  if (tracing) {
    traces.resize(static_cast<std::size_t>(nb));
    for (index_t k = 0; k < nb; ++k) {
      traces[static_cast<std::size_t>(k)].k = k;
      traces[static_cast<std::size_t>(k)].trailingBlocks = nb - k - 1;
    }
  }
  auto traceAt = [&](index_t k) -> IterationTrace* {
    return tracing ? &traces[static_cast<std::size_t>(k)] : nullptr;
  };

  if (!config_.lookahead) {
    const bool rec = recovery_ != nullptr && config_.recovery.enabled;
    index_t k = 0;
    while (k < nb) {
      try {
        if (rec && recovery_->shouldCheckpoint(k)) {
          takeCheckpoint(k, localA, lda);
        }
        ctx_.world().barrier();  // Algorithm 1 line 5
        Timer iterTimer;
        const StepGeom g = geometry(k);
        panelsPhase(g, 0, localA, lda, traceAt(k));
        updateFull(g, 0, localA, lda, traceAt(k));
        ++stepsCompleted_;
        if (pollAbort(k, iterTimer.seconds())) {
          aborted_ = true;
          break;
        }
        ++k;
      } catch (const simmpi::InjectedCrashError&) {
        if (!rec || !recovery_->canResurrect()) {
          throw;
        }
        // The crash fired before the offending comm op was counted, so
        // replay re-executes from the checkpoint through the normal code
        // path and goes live exactly at the op that killed the rank.
        k = recovery_->resurrect(k, localA, lda);
        stepsCompleted_ = k;
      }
    }
    if (rec) {
      recovery_->noteRunComplete();
    }
    return traces;
  }
  HPLMXP_REQUIRE(recovery_ == nullptr || !config_.recovery.enabled,
                 "crash recovery requires look-ahead off");

  // Look-ahead pipeline. A rank does step k+1's panel work before its bulk
  // GEMM only when a peer waits on its panels; every other rank runs the
  // bulk first (the header says why either order is safe).
  const bool colPeers = ctx_.layout().pr() > 1;
  const bool rowPeers = ctx_.layout().pc() > 1;
  StepGeom g = geometry(0);
  panelsPhase(g, 0, localA, lda, traceAt(0));
  for (index_t k = 0; k < nb; ++k) {
    Timer iterTimer;
    const int buf = static_cast<int>(k % 2);
    if (k + 1 < nb) {
      const StepGeom next = geometry(k + 1);
      updateStrips(g, next, buf, localA, lda, traceAt(k));
      if ((colPeers && next.ownRow) || (rowPeers && next.ownCol)) {
        panelsPhase(next, 1 - buf, localA, lda, traceAt(k + 1));
        updateBulk(g, next, buf, localA, lda, traceAt(k));
      } else {
        updateBulk(g, next, buf, localA, lda, traceAt(k));
        panelsPhase(next, 1 - buf, localA, lda, traceAt(k + 1));
      }
      g = next;
    } else {
      updateFull(g, buf, localA, lda, traceAt(k));
    }
    ++stepsCompleted_;
    if (pollAbort(k, iterTimer.seconds())) {
      aborted_ = true;
      break;
    }
  }
  return traces;
}

}  // namespace hplmxp
