//===- dbds/Candidate.h - Duplication candidates and config -----*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A duplication candidate is one predecessor->merge pair together with
/// the optimization potential the simulation tier discovered for it
/// (paper §4.1, "Sim Result"), and DBDSConfig carries the trade-off
/// constants of §5.4.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_DBDS_CANDIDATE_H
#define DBDS_DBDS_CANDIDATE_H

#include "telemetry/DecisionLog.h"

#include <cstdint>

namespace dbds {

class CompileBudget;
class DiagnosticEngine;
class FaultInjector;
class Module;

/// One simulated predecessor->merge duplication and its discovered
/// potential. Blocks are referenced by id so candidates survive unrelated
/// CFG edits; stale candidates are revalidated before the transformation.
struct DuplicationCandidate {
  unsigned MergeId = 0; ///< The merge block bm.
  unsigned PredId = 0;  ///< The predecessor bpi (ends with a jump to bm).

  /// Path duplication (paper §8 future work, implemented here as an
  /// extension): a second merge reached by the first merge's jump, to be
  /// duplicated into the same predecessor right after the first. ~0u when
  /// this is an ordinary single-merge candidate.
  unsigned SecondMergeId = InvalidBlock;

  static constexpr unsigned InvalidBlock = ~0u;
  bool isPath() const { return SecondMergeId != InvalidBlock; }

  /// Estimated cycles saved per execution of the predecessor (the "CS"
  /// measurement of §4.1; e.g. division -> shift saves 32 - 1 = 31).
  double CyclesSaved = 0.0;

  /// Execution frequency of the predecessor relative to the hottest block
  /// of the compilation unit, in [0, 1] (§5.4 "Probability").
  double Probability = 0.0;

  /// Estimated code size increase of performing the duplication (size of
  /// the surviving copied instructions).
  int64_t SizeCost = 0;

  /// Per-kind breakdown of the triggered action steps (telemetry: the
  /// decision log records which opportunities motivated each candidate).
  OpportunityCounts Opportunities;

  /// The sort key of the trade-off tier: expected cycles saved weighted by
  /// how often the predecessor runs.
  double benefit() const { return CyclesSaved * Probability; }
};

/// Tuning knobs of the DBDS phase (defaults are the paper's §5.2/§5.4
/// constants).
struct DBDSConfig {
  /// When false, the trade-off tier is disabled and every candidate with
  /// any benefit is duplicated — the paper's "dupalot" configuration.
  bool UseTradeoff = true;

  /// "BS": the cost may be up to BenefitScale x higher than the scaled
  /// benefit (§5.4, empirically 256).
  double BenefitScale = 256.0;

  /// "IB": maximum code size growth factor per compilation unit (§5.2:
  /// budget of 50% growth => 1.5).
  double IncreaseBudget = 1.5;

  /// "MS": hard upper bound on unit size imposed by the VM (§5.4; scaled
  /// from HotSpot's JVMCINMethodSizeLimit to our size-estimate units).
  uint64_t MaxUnitSize = 65536;

  /// Upper bound on simulate->tradeoff->optimize iterations (§5.2: 3).
  unsigned MaxIterations = 3;

  /// Minimum cumulative benefit of an iteration for another one to run
  /// (§5.2: "only run another iteration if the cumulative benefit of the
  /// previous one is above a certain threshold").
  double MinIterationBenefit = 8.0;

  /// Paper §8 future-work extension: allow the optimization tier to
  /// duplicate over two merges along a path when the simulation tier saw
  /// additional benefit beyond the first merge. Off by default (the
  /// paper's shipped implementation cannot duplicate over multiple
  /// merges).
  bool EnablePathDuplication = false;

  /// Class table for freshness reasoning (field counts); may be null.
  const Module *ClassTable = nullptr;

  /// Verify the IR after every mutation (tests keep this on).
  bool Verify = true;

  /// When true, a verifier failure aborts the process (legacy behavior).
  /// Otherwise the failing duplication round is rolled back to its
  /// pre-round snapshot and DBDS stops for this function, leaving the last
  /// known-good IR in place.
  bool FailFast = false;

  /// Optional sink for rollback/budget diagnostics (not owned).
  DiagnosticEngine *Diags = nullptr;

  /// Optional deterministic fault source exercising the rollback path
  /// (not owned; only consulted when Verify is set).
  FaultInjector *Injector = nullptr;

  /// Optional per-function wall-clock budget (not owned). When it expires,
  /// DBDS stops duplicating and records DegradationLevel::NoDBDS.
  CompileBudget *Budget = nullptr;

  /// Optional sink for per-candidate duplication decisions (not owned).
  /// When set, every candidate the trade-off tier rules on is recorded
  /// with its shouldDuplicate inputs and clause results — the DBDS
  /// optimization-remarks stream (telemetry/DecisionLog.h).
  DecisionLog *Decisions = nullptr;
};

/// The trade-off function of §5.4:
///   (b * p * BS) > c  &&  (cs < MS)  &&  (cs + c < is * IB)
///
/// \p CyclesSaved b, \p Probability p, \p SizeCost c, \p CurrentSize cs,
/// \p InitialSize is.
bool shouldDuplicate(double CyclesSaved, double Probability, int64_t SizeCost,
                     uint64_t CurrentSize, uint64_t InitialSize,
                     const DBDSConfig &Config);

/// As above, additionally reporting each clause's individual pass/fail in
/// \p Clauses (may be null) — the decision log records exactly why a
/// candidate was rejected, not just that it was.
bool shouldDuplicate(double CyclesSaved, double Probability, int64_t SizeCost,
                     uint64_t CurrentSize, uint64_t InitialSize,
                     const DBDSConfig &Config, TradeoffClauses *Clauses);

} // namespace dbds

#endif // DBDS_DBDS_CANDIDATE_H
