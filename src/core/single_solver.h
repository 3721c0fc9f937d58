// Single-device mixed-precision solver: the one-GCD version of the
// benchmark (no grid, no communication). Used by the quickstart example,
// the slow-node mini-benchmark, and as a cross-check oracle for the
// distributed path in tests.
//
// The factor and solve phases are split at the public API: the expensive
// FP32/FP16 block LU is captured in a reusable Factorization handle, and
// any number of right-hand sides can then be refined against it — one at a
// time (solveMixedSingle) or as a coalesced batch (solveManyMixedSingle).
// This factor-once/solve-many shape is what the serving subsystem
// (src/serve) builds its factor cache and request batching on.
#pragma once

#include <cstdint>
#include <vector>

#include "device/device.h"
#include "gen/matgen.h"
#include "lowp/precision.h"
#include "util/buffer.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace hplmxp {

/// A completed mixed-precision factorization, ready for repeated solves.
///
/// Owns the in-place FP32 LU factors (unit-lower L and upper U share the
/// n x n panel array, lda == n) plus the scale metadata the HPL-AI
/// convergence criterion needs (||diag(A)||_inf). The FP16 panel casts are
/// factorization-transient on this single-device path — they exist only to
/// feed the trailing GEMM — so the handle retains the FP32 panels the
/// refinement solves actually read. Movable, not copyable: the cache hands
/// out shared ownership instead of duplicating panels.
struct Factorization {
  index_t n = 0;
  index_t b = 0;
  std::uint64_t seed = 0;  // problem seed the panels were generated from
  Vendor vendor = Vendor::kAmd;
  /// Storage precision the trailing-update GEMMs ran in. Factors at
  /// different rungs are different factors (different rounding), so this
  /// is part of the handle's identity — the serve-layer cache keys on it.
  lowp::StoragePrecision precision = lowp::StoragePrecision::kFp16;
  double factorSeconds = 0.0;
  double diagInfNorm = 0.0;  // max_i |A(i,i)| of the *unfactored* matrix
  Buffer<float> lu;          // n x n factors in place, lda == n

  /// Resident bytes of an order-n handle: what the factor cache budgets,
  /// and what fleetsim charges a simulated cached factor.
  [[nodiscard]] static std::size_t residentBytes(index_t n) {
    const auto order = static_cast<std::size_t>(n);
    return sizeof(Factorization) + order * order * sizeof(float);
  }
  [[nodiscard]] std::size_t bytes() const { return residentBytes(n); }
};

struct SingleSolveResult {
  index_t n = 0;
  index_t b = 0;
  double factorSeconds = 0.0;
  double irSeconds = 0.0;
  index_t irIterations = 0;
  bool converged = false;
  double residualInf = 0.0;
  double threshold = 0.0;
};

/// Per-column outcome of a batched multi-RHS refinement.
struct SolveManyColumn {
  std::uint64_t rhsSeed = 0;
  index_t irIterations = 0;
  bool converged = false;
  double residualInf = 0.0;
  double threshold = 0.0;
  /// ||r||_inf after each residual evaluation (the IR trajectory); used by
  /// the equivalence tests and the serve report.
  std::vector<double> residualHistory;
};

/// Outcome of one batched multi-RHS refinement.
struct SolveManyResult {
  index_t n = 0;
  index_t b = 0;
  index_t k = 0;  // number of right-hand sides
  double solveSeconds = 0.0;
  std::vector<SolveManyColumn> columns;

  [[nodiscard]] bool allConverged() const {
    for (const SolveManyColumn& c : columns) {
      if (!c.converged) {
        return false;
      }
    }
    return true;
  }
};

/// Solves A x = b for the generated problem with FP32/FP16 block LU plus
/// FP64 iterative refinement on one device. `x` receives the solution.
SingleSolveResult solveMixedSingle(const ProblemGenerator& gen, index_t b,
                                   Vendor vendor, std::vector<double>& x,
                                   index_t maxIrIterations = 50);

/// Factors an n x n FP32 matrix in place with the same mixed-precision
/// block algorithm (FP32 panels, FP16 GEMM): exposed for kernel-level
/// tests and the mini-benchmark scanner. (The binary16 instantiation of
/// factorStorageSingle; bitwise-identical to the pre-ladder path.)
void factorMixedSingle(index_t n, index_t b, float* a, index_t lda,
                       Vendor vendor);

/// Precision-parameterized in-place factorization: FP32 panels + GETRF /
/// TRSM exactly as before, with the trailing update's CAST / TRANS_CAST /
/// GEMM running at the requested storage rung. The FP8 rungs go through
/// the per-tile-scaled casts, folding the two panel scales into the
/// GEMM's alpha (exact powers of two).
void factorStorageSingle(index_t n, index_t b, float* a, index_t lda,
                         Vendor vendor, lowp::StoragePrecision precision);

/// Factors the generated problem and returns the reusable handle: fills
/// the FP32 local matrix, runs the blocked mixed-precision factorization,
/// and caches the diagonal norm the convergence threshold needs. Callers
/// (and the serve-layer factor cache) can then solve any number of
/// right-hand sides without re-factoring or reaching into internals.
Factorization factorMixedSingle(const ProblemGenerator& gen, index_t b,
                                Vendor vendor);

/// Handle-returning flavor at an explicit storage rung.
Factorization factorStorageSingle(const ProblemGenerator& gen, index_t b,
                                  Vendor vendor,
                                  lowp::StoragePrecision precision);

/// Blocked multi-RHS iterative refinement against a completed
/// factorization. Right-hand side c is the rhs stream of
/// ProblemGenerator(rhsSeeds[c], n) — passing gen.seed() reproduces the
/// benchmark's own b vector. `xs` receives one solution vector per seed.
///
/// The correction solves go through strsmMixed, one strsvMixed per
/// active column spread over the pool's lanes, and the FP64 residual streams
/// A once per iteration, one regenerated column at a time
/// (ProblemGenerator::addProduct), each column shared by all still-active
/// right-hand sides. Convergence is tracked per column: a column that
/// meets its threshold is frozen (no further residuals or corrections)
/// while its batch-mates keep iterating. Every column's iteration count,
/// residual trajectory, and solution are bitwise identical to a k=1 solve
/// of the same rhs seed (tests/test_solve_many.cpp).
SolveManyResult solveManyMixedSingle(const Factorization& f,
                                     const ProblemGenerator& gen,
                                     const std::vector<std::uint64_t>& rhsSeeds,
                                     std::vector<std::vector<double>>& xs,
                                     index_t maxIrIterations = 50,
                                     ThreadPool* pool = nullptr);

}  // namespace hplmxp
