// 64-bit linear congruential generator with O(log n) jump-ahead.
//
// The paper (and the Fugaku HPL-AI code it builds on) generates every entry
// of A from an LCG that can start the sequence at any offset in O(log n)
// time. That property is what lets each rank regenerate any A(i, j) on the
// fly — during initial fill and again during iterative refinement — without
// ever storing the FP64 matrix.
#pragma once

#include <cstdint>

namespace hplmxp {

/// x_{n+1} = a*x_n + c (mod 2^64), Knuth's MMIX constants. All arithmetic
/// is modulo 2^64 via natural unsigned wraparound.
class Lcg64 {
 public:
  static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;
  static constexpr std::uint64_t kIncrement = 1442695040888963407ULL;

  explicit Lcg64(std::uint64_t seed = 0x853C49E6748FEA9BULL) : state_(seed) {}

  /// Advances one step and returns the new state.
  std::uint64_t next() {
    state_ = state_ * kMultiplier + kIncrement;
    return state_;
  }

  [[nodiscard]] std::uint64_t state() const { return state_; }

  /// Jumps the generator `n` steps forward in O(log n).
  void jump(std::uint64_t n) { state_ = jumped(state_, n); }

  /// An affine map x -> mul*x + add (mod 2^64). Advancing the generator
  /// any fixed number of steps is one such map, so walking a lattice of
  /// states at a constant stride costs one multiply-add per state.
  struct Map {
    std::uint64_t mul = 1;
    std::uint64_t add = 0;
    [[nodiscard]] constexpr std::uint64_t operator()(std::uint64_t x) const {
      return x * mul + add;
    }
  };

  /// The map that advances the generator exactly `n` steps, in O(log n):
  /// composes (a, c) with itself by binary exponentiation. Squaring the
  /// map: (a, c) o (a, c) = (a^2, a*c + c).
  static constexpr Map stepMap(std::uint64_t n) {
    Map acc;
    Map cur{kMultiplier, kIncrement};
    while (n != 0) {
      if ((n & 1ULL) != 0) {
        acc = {acc.mul * cur.mul, acc.add * cur.mul + cur.add};
      }
      cur = {cur.mul * cur.mul, (cur.mul + 1) * cur.add};
      n >>= 1;
    }
    return acc;
  }

  /// Returns the state reached from `seed` after exactly `n` steps, in
  /// O(log n).
  static constexpr std::uint64_t jumped(std::uint64_t seed, std::uint64_t n) {
    return stepMap(n)(seed);
  }

  /// Maps a state to a uniform double in [-0.5, 0.5) using the top 53 bits.
  static double toUniform(std::uint64_t state) {
    constexpr double kScale = 1.0 / 9007199254740992.0;  // 2^-53
    return static_cast<double>(state >> 11) * kScale - 0.5;
  }

 private:
  std::uint64_t state_;
};

}  // namespace hplmxp
