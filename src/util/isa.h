// Instruction-set paths of the SIMD kernels.
//
// The hot loops of Algorithm 1 — the BLAS kernels (blas/isa.h) and the
// LCG walker that regenerates A (gen/matgen.h) — each have a portable
// scalar path and an AVX-512 path. The process picks one path once, from
// CPUID, the first time it asks (hostIsa()); there is no option,
// environment variable or config field. Both paths do the same arithmetic
// per element, so they produce identical bits. The scalar path runs on
// hosts without AVX-512 and is the reference the tests compare with.
//
// The AVX-512 path needs three CPUID features:
//   - AVX-512F, for the zmm registers and the FP32/FP64 arithmetic;
//   - F16C, for the binary16 conversions of the BLAS kernels;
//   - AVX-512DQ, for the walker's 64-bit integer multiply (vpmullq) and
//     its exact uint64 -> double conversion (vcvtuqq2pd).
// Only Xeon Phi has AVX-512F without DQ; there, every kernel takes the
// scalar path.
#pragma once

namespace hplmxp {

enum class Isa {
  kScalar,  // portable C++, the build's baseline ISA
  kAvx512,  // AVX-512F + DQ + F16C, per-function target attributes
};

/// The path this process runs: kAvx512 when CPUID reports AVX-512F,
/// AVX-512DQ and F16C (with OS support for the zmm state), else kScalar.
/// Detected once.
[[nodiscard]] Isa hostIsa();

/// True when kernels of `isa` can execute on this host.
[[nodiscard]] bool isaSupported(Isa isa);

/// "scalar" or "avx512".
[[nodiscard]] const char* isaName(Isa isa);

}  // namespace hplmxp
