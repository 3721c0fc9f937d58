#include "blas/tune.h"

#include <atomic>

namespace hplmxp::blas {

namespace {

std::atomic<index_t> gMc{GemmBlocking{}.mc};
std::atomic<index_t> gNc{GemmBlocking{}.nc};
std::atomic<index_t> gKc{GemmBlocking{}.kc};

GemmBlocking roundToHostTile(const GemmBlocking& blocking) {
  const GemmTile tile = gemmTile(hostIsa());
  return GemmBlocking{
      blocking.mc > 0 ? roundUp(blocking.mc, tile.mr) : tile.mr,
      blocking.nc > 0 ? roundUp(blocking.nc, tile.nr) : tile.nr,
      blocking.kc > 0 ? blocking.kc : 1};
}

}  // namespace

GemmBlocking gemmBlocking() {
  // Rounding is idempotent: this only changes the unset default.
  return roundToHostTile(GemmBlocking{gMc.load(std::memory_order_relaxed),
                                      gNc.load(std::memory_order_relaxed),
                                      gKc.load(std::memory_order_relaxed)});
}

void setGemmBlocking(const GemmBlocking& blocking) {
  const GemmBlocking rounded = roundToHostTile(blocking);
  gMc.store(rounded.mc, std::memory_order_relaxed);
  gNc.store(rounded.nc, std::memory_order_relaxed);
  gKc.store(rounded.kc, std::memory_order_relaxed);
}

}  // namespace hplmxp::blas
