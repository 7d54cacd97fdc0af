//===- dbds/DBDSPhase.h - The three-tier DBDS driver -------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full DBDS optimization (paper Figure 2): simulate -> trade-off ->
/// optimize, iterated up to three times, followed by the cleanup pipeline
/// that performs the follow-up optimizations whose potential the
/// simulation tier discovered. Also provides the backtracking-based
/// baseline of Algorithm 1 for the §3.1 compile-time comparison.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_DBDS_DBDSPHASE_H
#define DBDS_DBDS_DBDSPHASE_H

#include "dbds/Candidate.h"
#include "ir/Function.h"

#include <memory>

namespace dbds {

/// Aggregate outcome of one DBDS run over a compilation unit.
struct DBDSResult {
  unsigned CandidatesSimulated = 0;
  unsigned DuplicationsPerformed = 0;
  unsigned IterationsRun = 0;
  double TotalBenefit = 0.0; ///< Sum of chosen candidates' benefit.
  /// Duplication rounds that failed verification and were rolled back to
  /// their pre-round snapshot (DBDS then stops for the function).
  unsigned RollbacksPerformed = 0;
  /// True when the compile budget expired and DBDS stopped early (the
  /// budget, if any, is degraded to DegradationLevel::NoDBDS).
  bool BudgetExpired = false;
};

/// Runs the DBDS algorithm on \p F with \p Config. The dupalot
/// configuration is Config.UseTradeoff == false.
DBDSResult runDBDS(Function &F, const DBDSConfig &Config);

/// Outcome of the backtracking baseline (Algorithm 1).
struct BacktrackingResult {
  unsigned GraphCopies = 0;   ///< Whole-IR snapshots taken (the 10x cost).
  unsigned Duplications = 0;  ///< Attempts that were kept.
  unsigned Backtracks = 0;    ///< Attempts that were reverted.
};

/// Algorithm 1: tentatively duplicate at each merge, run the optimizers,
/// keep the result only if the expected-cycle estimate improved, otherwise
/// restore the snapshot. Replaces *F when progress is kept. \p ClassTable
/// as in DBDSConfig. \p MaxUnitSize bounds growth like the VM limit.
BacktrackingResult runBacktrackingDuplication(std::unique_ptr<Function> &F,
                                              const Module *ClassTable,
                                              uint64_t MaxUnitSize = 65536);

} // namespace dbds

#endif // DBDS_DBDS_DBDSPHASE_H
