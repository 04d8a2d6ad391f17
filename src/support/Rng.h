//===-- support/Rng.h - Deterministic random numbers ------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable random number generation used by the NOP
/// insertion pass (paper Algorithm 1) and the variant generator.
///
/// The paper's transformation has two sources of randomness: whether to
/// insert a NOP before an instruction, and which NOP candidate to insert.
/// Both must be reproducible from a seed so that a "variant" is a pure
/// function of (program, configuration, seed).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_SUPPORT_RNG_H
#define PGSD_SUPPORT_RNG_H

#include <cassert>
#include <cmath>
#include <cstdint>

namespace pgsd {

/// xoshiro256** pseudo-random generator seeded through SplitMix64.
///
/// Chosen over std::mt19937 for speed, tiny state, and bit-exact behaviour
/// across standard libraries (variant generation must be stable between
/// toolchains so that recorded experiments are replayable).
class Rng {
public:
  /// Creates a generator whose whole stream is determined by \p Seed.
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ull) { reseed(Seed); }

  /// Re-initializes the state from \p Seed via SplitMix64 so that nearby
  /// seeds (0, 1, 2, ...) still yield decorrelated streams.
  void reseed(uint64_t Seed);

  /// Returns the next raw 64-bit value. Inline: NOP insertion draws
  /// once per instruction.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble() {
    // 53 high-quality bits -> mantissa.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns an integer uniformly distributed in [0, Bound).
  ///
  /// Uses Lemire's unbiased multiply-shift rejection method. \p Bound must
  /// be nonzero. Inline, like next(): NOP insertion draws a candidate
  /// per inserted NOP, and a call would take its generator out of
  /// registers.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "bound must be positive");
    uint64_t X = next();
    __uint128_t M = static_cast<__uint128_t>(X) * Bound;
    uint64_t Low = static_cast<uint64_t>(M);
    if (Low < Bound) {
      uint64_t Threshold = -Bound % Bound;
      while (Low < Threshold) {
        X = next();
        M = static_cast<__uint128_t>(X) * Bound;
        Low = static_cast<uint64_t>(M);
      }
    }
    return static_cast<uint64_t>(M >> 64);
  }

  /// Returns an integer uniformly distributed in [Lo, Hi] (inclusive).
  int64_t nextInRange(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// A probability as the integer test nextBernoulli draws against, for
  /// a caller that makes many draws at one probability (NOP insertion:
  /// one per instruction of a block).
  struct Bernoulli {
    uint64_t Below = 0; ///< A draw succeeds when next() >> 11 is below.
    bool Draws = false; ///< False: decided without a draw, Below != 0.
  };

  /// The test for probability \p P (clamped to [0, 1]). P <= 0 and
  /// P >= 1 are decided without a draw; a NaN draws once and fails, as
  /// nextDouble() < NaN does. Otherwise (next() >> 11) < ceil(P * 2^53)
  /// is exactly nextDouble() < P: nextDouble() is that integer times
  /// 2^-53, and scaling P by a power of two is exact.
  static Bernoulli bernoulli(double P) {
    if (P <= 0.0)
      return {0, false};
    if (P >= 1.0)
      return {1, false};
    if (P != P)
      return {0, true};
    return {static_cast<uint64_t>(std::ceil(P * 0x1.0p53)), true};
  }

  /// Returns true with the probability \p B was made for.
  bool nextBernoulli(Bernoulli B) {
    if (!B.Draws)
      return B.Below != 0;
    return (next() >> 11) < B.Below;
  }

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool nextBernoulli(double P) { return nextBernoulli(bernoulli(P)); }

  /// Derives an independent child generator; used to give each function or
  /// variant its own stream so insertion decisions in one function do not
  /// perturb another.
  ///
  /// Unlike split(), fork() *consumes* one output of this generator, so
  /// successive forks differ but the parent stream advances.
  Rng fork();

  /// Derives the decorrelated child stream number \p Stream of this
  /// generator *without* advancing its state (const): split(K) called
  /// twice returns bit-identical generators. Batch workers use
  /// `Rng(BatchSeed).split(VariantSeed)` to give every variant its own
  /// stream that is a pure function of (BatchSeed, VariantSeed) -- no
  /// shared mutable RNG, no re-seeding collisions between workers.
  Rng split(uint64_t Stream) const;

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
};

} // namespace pgsd

#endif // PGSD_SUPPORT_RNG_H
