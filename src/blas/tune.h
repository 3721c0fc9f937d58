// Tunable macro-tile blocking of the packed GEMM kernel.
//
// The microkernel shape (MR x NR register accumulators) is fixed per
// kernel path (blas/isa.h) at compile time; the macro blocking (mc, nc, kc)
// only moves work between cache levels and parallel tasks. Changing it
// NEVER changes results: the kernel accumulates each C element in
// ascending-k order regardless of the blocking, which is what the
// look-ahead equivalence suite relies on. The autotuner
// (perfmodel/autotune.h) sweeps candidate blockings on the host and
// installs the fastest via setGemmBlocking().
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

/// Cache/task blocking of the packed GEMM. mc rows x nc cols define one
/// macro-tile task of the 2D parallel decomposition; kc is the packed
/// panel depth. Each kernel rounds mc and nc up to its own MR and NR on
/// use.
struct GemmBlocking {
  index_t mc = 120;
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
