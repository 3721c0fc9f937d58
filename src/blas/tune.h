// Tunable blocking of the packed GEMM kernel.
//
// The microkernel shape (MR x NR register accumulators) is fixed per
// kernel path (blas/isa.h) at compile time; the blocking (mc, nc, kc) only
// sets the depth of a packed panel and how the columns and rows of C are
// cut into parallel tasks. Changing it NEVER changes results: the kernel
// accumulates each C element in ascending-k order regardless of the
// blocking, which is what the look-ahead equivalence suite relies on. The
// autotuner (perfmodel/autotune.h) sweeps candidate blockings on the host
// and installs the fastest via setGemmBlocking().
#pragma once

#include "blas/isa.h"
#include "util/common.h"

namespace hplmxp::blas {

/// Register-block (microkernel) shape: MR x NR accumulators.
struct GemmTile {
  index_t mr;
  index_t nr;
};

/// The scalar kernel's tile, also the FP64 (dgemm) tile on every host.
/// 24x2 is sized for the portable baseline ISA this tree builds with (no
/// -march flag => SSE2, 16 vector registers): 6 accumulator registers + 6
/// A registers + 1 B broadcast fits the file, whereas the classic
/// AVX2-oriented 8x6 tile spills and measured ~6x slower here. A register
/// sweep of this scalar kernel on the build host measured (GF/s, k=256
/// streaming microkernel): 24x2: 30.0, 8x4: 23.5, 16x2: 23.5, 8x6: 5.1,
/// 16x4: 3.1.
inline constexpr GemmTile kScalarGemmTile{24, 2};

/// The AVX-512 kernel's tile: 2 zmm rows x 8 columns = 16 zmm accumulators,
/// plus 2 A registers and 1 B broadcast, within the 32-register file.
inline constexpr GemmTile kAvx512GemmTile{32, 8};

/// The FP32-accumulate GEMM tile (sgemm, gemmLowp) of a kernel path.
[[nodiscard]] constexpr GemmTile gemmTile(Isa isa) {
  return isa == Isa::kAvx512 ? kAvx512GemmTile : kScalarGemmTile;
}

/// Task and panel blocking of the packed GEMM (blas/gemm.cpp).
///   * kc is the depth of a packed k panel.
///   * mc is the tallest row range a task walks: a packed A block of mc
///     rows (mc x kc floats, 1 MiB by default) stays in a core's L2 while
///     the task's strips stream past it. The default, 1024, keeps the
///     LU's trailing updates of a 2048-order solve on a 2x1 grid, and
///     every serve factorization, to one pass down the whole height.
///   * nc is the widest column range a task walks. A call's columns are
///     cut into ceil(n / nc) ranges, raised to a multiple of the pool's
///     lanes so that the lanes share them evenly.
/// A task walks its NR-column strips of C left to right, each from top to
/// bottom over its rows. With one lane, nc does not change the walk. Each
/// kernel rounds mc and nc up to its own MR and NR on use.
struct GemmBlocking {
  index_t mc = 1024;
  index_t nc = 240;
  index_t kc = 256;
};

/// Snapshot of the globally installed blocking (thread-safe). Before any
/// setGemmBlocking() it is the default GemmBlocking rounded to the host's
/// tile.
[[nodiscard]] GemmBlocking gemmBlocking();

/// Installs a new blocking for subsequent GEMM calls (thread-safe). mc and
/// nc are rounded up to the host's tile (gemmTile(hostIsa())); non-positive
/// fields are clamped to the minimum.
void setGemmBlocking(const GemmBlocking& blocking);

}  // namespace hplmxp::blas
