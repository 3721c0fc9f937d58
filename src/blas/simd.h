// Compiler plumbing for the AVX-512 kernel path (blas/isa.h). Internal to
// src/blas.
//
// HPLMXP_AVX512 compiles one function for AVX-512F + F16C. It goes on the
// kernel functions only, never on a whole file: with a file-wide
// -mavx512f, an inline function from a shared header would be compiled
// with AVX-512 too, and the linker could keep that copy for every caller,
// which would then fault on hosts without AVX-512. Default-ISA helpers
// called from an HPLMXP_AVX512 function may be inlined into it, and are
// then compiled for AVX-512 inside that function only.
//
// Every file that uses it is compiled with -ffp-contract=off (see
// src/blas/CMakeLists.txt): AVX-512F has vfmadd, and GCC would otherwise
// contract _mm512_add_ps(_mm512_mul_ps(a, b), c) into one, changing the
// rounding of every product the scalar path rounds.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HPLMXP_HAVE_AVX512 1
#define HPLMXP_AVX512 __attribute__((target("avx512f,f16c")))
#else
#define HPLMXP_HAVE_AVX512 0
#endif
