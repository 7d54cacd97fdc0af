//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic fault injection for exercising the transactional
/// phase machinery. The injector is a pure decision engine: components
/// with injection points (the phase driver, the DBDS optimization tier)
/// ask it whether a fault fires at the current site, and apply the
/// corruption themselves. Decisions depend only on (seed, call ordinal),
/// so a failing run replays exactly from its seed.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_SUPPORT_FAULTINJECTOR_H
#define DBDS_SUPPORT_FAULTINJECTOR_H

#include "support/RNG.h"

#include <cstdint>

namespace dbds {

class Function;

/// What a firing injection point should do.
enum class FaultKind : uint8_t {
  None,         ///< No fault at this site.
  CorruptIR,    ///< Structurally corrupt the function (verifier-visible).
  PhaseFailure, ///< Report the phase as failed without touching the IR.
};

inline const char *faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::None:
    return "none";
  case FaultKind::CorruptIR:
    return "corrupt-ir";
  case FaultKind::PhaseFailure:
    return "phase-failure";
  }
  return "?";
}

/// Deterministic fault source. \p Rate is the per-site firing probability;
/// fired faults alternate between IR corruption and forced phase failure.
class FaultInjector {
public:
  explicit FaultInjector(uint64_t Seed, double Rate = 0.25)
      : Seed(Seed), Gen(Seed), Rate(Rate) {}

  /// Decides whether a fault fires at the named injection point. Advances
  /// the deterministic decision stream by one step.
  FaultKind at(const char *Site);

  /// Entropy for choosing *what* to corrupt (deterministic stream shared
  /// with the decisions).
  uint64_t entropy() { return Gen.next(); }

  uint64_t seed() const { return Seed; }
  unsigned sitesVisited() const { return Sites; }
  unsigned faultsInjected() const { return Injected; }

  /// Derives the independent injector for parallel task \p Index: seeded
  /// from (seed, Index) only, so a task's fault stream is the same
  /// regardless of which worker runs it, in which order, at which --jobs
  /// level — the per-task RNG-stream rule of the compile service. The
  /// decision stream starts fresh (zero counts).
  FaultInjector forTask(uint64_t Index) const {
    SplitMix64 Mix(Seed ^ (0x9e3779b97f4a7c15ULL * (Index + 1)));
    return FaultInjector(Mix.next(), Rate);
  }

  /// Folds a finished task injector's site/fault counts back into this
  /// base injector (called at join time, in task index order, so summary
  /// lines stay deterministic).
  void absorbCounts(const FaultInjector &Task) {
    Sites += Task.Sites;
    Injected += Task.Injected;
  }

private:
  uint64_t Seed;
  RNG Gen;
  double Rate;
  unsigned Sites = 0;
  unsigned Injected = 0;
};

/// Applies one deterministic structural corruption to \p F (e.g. dropping
/// a phi input or a terminator), chosen by \p Entropy. The result is
/// guaranteed to be rejected by verifyFunction. Returns false if no
/// corruption site exists. Implemented by the phase layer, which owns the
/// injection points (opts/PhaseManager.cpp).
bool corruptFunctionIR(Function &F, uint64_t Entropy);

} // namespace dbds

#endif // DBDS_SUPPORT_FAULTINJECTOR_H
