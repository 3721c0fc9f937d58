// Monotonic clock-source abstraction.
//
// Everything that stamps time — Timer, the simmpi Request poll backoff —
// reads seconds through a ClockSource instead of calling
// std::chrono::steady_clock::now() directly. That indirection is what lets
// the fleet co-simulator (src/fleetsim) re-run the same machinery on a
// *virtual* clock: a simulated run advances ManualClock with its event
// heap, and every reused component observes simulated time instead of
// wall time. Real executions pay one virtual call per stamp.
#pragma once

#include <atomic>
#include <chrono>

#include "util/common.h"

namespace hplmxp {

/// Source of monotonic time in seconds. Implementations must be
/// monotonic (nowSeconds() never decreases) and thread-safe.
class ClockSource {
 public:
  virtual ~ClockSource() = default;
  [[nodiscard]] virtual double nowSeconds() const = 0;
};

namespace detail {
/// The process wall clock; the only place in the library that touches
/// std::chrono::steady_clock directly.
class SteadyClockSource final : public ClockSource {
 public:
  [[nodiscard]] double nowSeconds() const override {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};
}  // namespace detail

/// Process-wide steady_clock-backed source (the default everywhere).
inline const ClockSource& steadyClock() {
  static const detail::SteadyClockSource source;
  return source;
}

/// Manually advanced monotonic clock — the fleet simulator's virtual time
/// base. advanceTo() rejects travel into the past, so any component
/// holding a Timer over this source keeps its monotonicity contract.
/// Reads and advances are atomic (relaxed): a concurrent reader sees
/// either the old or the new instant, never a torn value.
class ManualClock final : public ClockSource {
 public:
  [[nodiscard]] double nowSeconds() const override {
    return now_.load(std::memory_order_relaxed);
  }

  void advanceTo(double seconds) {
    HPLMXP_REQUIRE(seconds >= now_.load(std::memory_order_relaxed),
                   "ManualClock cannot move backwards");
    now_.store(seconds, std::memory_order_relaxed);
  }

  void advanceBy(double seconds) {
    HPLMXP_REQUIRE(seconds >= 0.0, "ManualClock advance must be >= 0");
    now_.store(now_.load(std::memory_order_relaxed) + seconds,
               std::memory_order_relaxed);
  }

 private:
  std::atomic<double> now_{0.0};
};

}  // namespace hplmxp
