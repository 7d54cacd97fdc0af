//===- support/RNG.h - Deterministic random number generation --*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic PRNGs for workload generation and property tests. All
/// randomness in this project flows through these generators so that every
/// experiment is reproducible from its seed.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_SUPPORT_RNG_H
#define DBDS_SUPPORT_RNG_H

#include <cassert>
#include <cstdint>

namespace dbds {

/// SplitMix64: used to expand a single seed into generator state.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

private:
  uint64_t State;
};

/// xoshiro256** 1.0 — the project-wide deterministic PRNG.
class RNG {
public:
  explicit RNG(uint64_t Seed) {
    SplitMix64 Init(Seed);
    for (uint64_t &Word : State)
      Word = Init.next();
  }

  /// Uniform 64-bit value.
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

  /// Uniform value in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow(0) is meaningless");
    // Rejection-free multiply-shift; bias is negligible for our bounds.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(next()) * Bound) >> 64);
  }

  /// Uniform value in [Lo, Hi] inclusive.
  int64_t nextRange(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "invalid range");
    // Unsigned arithmetic: the span of [INT64_MIN, INT64_MAX] overflows
    // int64_t, and its size (2^64) overflows uint64_t.
    uint64_t Span = static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo);
    uint64_t Offset = Span == UINT64_MAX ? next() : nextBelow(Span + 1);
    return static_cast<int64_t>(static_cast<uint64_t>(Lo) + Offset);
  }

  /// Uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability \p P.
  bool nextBool(double P) { return nextDouble() < P; }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
};

} // namespace dbds

#endif // DBDS_SUPPORT_RNG_H
