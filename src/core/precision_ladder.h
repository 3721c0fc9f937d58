// Adaptive precision controller: the "ladder" over the storage formats.
//
// HPL-MxP admits any storage precision whose iterative refinement recovers
// FP64 accuracy, which turns precision selection into a scheduling problem:
// cheaper rungs (FP8) double GEMM throughput but only pay off when IR still
// converges. This controller (a) estimates the conditioning of a request
// with a cheap deterministic probe, (b) picks the cheapest storage rung and
// refinement path (classical IR vs LU-preconditioned GMRES-IR) expected to
// converge, and (c) *falls up the ladder* — re-factors at the next more
// accurate rung — whenever refinement diverges or stalls. At the top rung
// (fp16) the escape hatch is GMRES-IR on the same factors, the reference
// HPL-AI fallback.
//
// Everything here is deterministic: the probe samples fixed rows, the
// per-rung solves inherit the kernels' thread-count-independent
// accumulation contract, and escalation decisions are pure functions of
// the residual trajectories — so the chosen rung sequence, iteration
// counts, and final residual are reproducible bit-for-bit across thread
// counts (tests/test_precision_ladder.cpp).
//
// Scope: the ladder drives the single-device solver (and through it the
// serve engine and the chaos scenario matrix). The distributed
// factorization stays binary16 — doc/PRECISION.md records that boundary.
#pragma once

#include <optional>
#include <vector>

#include "core/single_solver.h"
#include "gen/matgen.h"
#include "lowp/precision.h"
#include "util/common.h"

namespace hplmxp {

/// Deterministic conditioning estimate: min over sampled rows of the
/// diagonal-dominance ratio |a_ii| / sum_{j != i} |a_ij|. > 1 means the
/// sampled rows are strictly dominant; the benchmark default (+N shift)
/// probes around 4. Rows are sampled at fixed, evenly spaced indices, so
/// the probe is a pure function of (seed, n, diagShift).
struct ConditioningProbe {
  double minDominance = 0.0;
  index_t rowsSampled = 0;
};

ConditioningProbe probeConditioning(const ProblemGenerator& gen,
                                    index_t maxRows = 8);

/// Refinement path the controller schedules at a rung.
enum class LadderRefiner { kIr, kGmresIr };

[[nodiscard]] const char* toString(LadderRefiner r);

/// The controller's opening move: cheapest rung + refiner expected to
/// converge for the probed conditioning. Thresholds are calibrated on the
/// generator family (see doc/PRECISION.md): stronger dominance tolerates
/// coarser storage.
struct LadderChoice {
  lowp::StoragePrecision rung = lowp::StoragePrecision::kFp16;
  LadderRefiner refiner = LadderRefiner::kIr;
};

[[nodiscard]] LadderChoice chooseRung(const ConditioningProbe& probe);

/// Controller knobs (conf/CLI keys: precision, max-ir, gmres,
/// gmres-restart, gmres-outer — see doc/PRECISION.md).
struct LadderPolicy {
  index_t probeRows = 8;
  /// IR budget per rung; past it an unconverged rung escalates.
  index_t maxIrIterationsPerRung = 25;
  /// Allow the top-rung GMRES-IR fallback.
  bool allowGmres = true;
  index_t gmresRestart = 30;
  index_t gmresMaxOuter = 8;
  /// Pin the starting rung (conf `precision` = fp16|bf16|fp8e4m3|fp8e5m2)
  /// instead of probing; nullopt = adaptive ("auto").
  std::optional<lowp::StoragePrecision> forcedStart;
};

/// One rung's factor + refine attempt.
struct RungAttempt {
  lowp::StoragePrecision precision = lowp::StoragePrecision::kFp16;
  LadderRefiner refiner = LadderRefiner::kIr;
  double factorSeconds = 0.0;
  double solveSeconds = 0.0;
  index_t irIterations = 0;
  bool converged = false;
  /// Residual grew past the divergence guard (vs merely running out of
  /// budget) — both escalate, but the distinction is reported.
  bool diverged = false;
  double residualInf = 0.0;
  double threshold = 0.0;
  std::vector<double> residualHistory;
};

/// Full ladder outcome for one problem.
struct LadderResult {
  index_t n = 0;
  index_t b = 0;
  ConditioningProbe probe;
  lowp::StoragePrecision startRung = lowp::StoragePrecision::kFp16;
  lowp::StoragePrecision finalRung = lowp::StoragePrecision::kFp16;
  index_t escalations = 0;
  bool converged = false;
  bool usedGmres = false;
  double residualInf = 0.0;
  double threshold = 0.0;
  std::vector<RungAttempt> attempts;
  std::vector<double> x;  // final iterate (converged or best effort)
};

/// Runs the full adaptive ladder for the generated problem: probe, choose,
/// factor + refine, escalate until convergence or the ladder is exhausted.
LadderResult solveLadderSingle(const ProblemGenerator& gen, index_t b,
                               Vendor vendor,
                               const LadderPolicy& policy = {});

/// Single-device LU-preconditioned restarted GMRES refinement: solves
/// A x = b(gen) to the HPL-AI criterion using the FP32 factors of `f` as
/// the right preconditioner (strsvMixed pair) and FP64 matvecs that
/// stream A by regenerated columns, starting from iterate `x` (improved
/// in place). This is the top-rung fallback when classical IR on fp16
/// factors stalls; unlike core/gmres_ir.h it needs no grid or
/// communicator.
struct GmresSingleResult {
  bool converged = false;
  index_t iterations = 0;  // total Krylov steps across outer cycles
  double residualInf = 0.0;
  double threshold = 0.0;
  std::vector<double> residualHistory;  // outer ||r||_inf trajectory
};

GmresSingleResult refineGmresSingle(const Factorization& f,
                                    const ProblemGenerator& gen,
                                    std::vector<double>& x,
                                    index_t restart = 30,
                                    index_t maxOuter = 8);

}  // namespace hplmxp
