#include "util/isa.h"

#include "util/simd.h"

namespace hplmxp {

namespace {

Isa detectIsa() {
#if HPLMXP_HAVE_AVX512
  // libgcc's CPUID probe also checks XCR0, so "avx512f" is reported only
  // when the OS saves the zmm state.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("f16c")) {
    return Isa::kAvx512;
  }
#endif
  return Isa::kScalar;
}

}  // namespace

Isa hostIsa() {
  static const Isa isa = detectIsa();
  return isa;
}

bool isaSupported(Isa isa) {
  return isa == Isa::kScalar || isa == hostIsa();
}

const char* isaName(Isa isa) {
  return isa == Isa::kAvx512 ? "avx512" : "scalar";
}

}  // namespace hplmxp
