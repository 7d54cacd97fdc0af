//===- opts/Phase.h - Optimization phases ------------------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization phases of paper §2, each expressed over the AC /
/// action-step primitives in opts/Canonicalize.h, plus the cleanup phases
/// (DCE, CFG simplification) and the PhaseManager fixpoint driver. These
/// are the "partial optimizations" DBDS applies after duplication and the
/// full pipeline the backtracking baseline runs per candidate.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_OPTS_PHASE_H
#define DBDS_OPTS_PHASE_H

#include "ir/Function.h"

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dbds {

class CancellationToken;
class CompileBudget;
class DiagnosticEngine;
class FaultInjector;
class Linter;
class Module;

/// Behavioral phase-effect oracle for PhaseManager audit mode: compares
/// the pre-phase snapshot against the phase's output (typically by
/// interpreting both on a shared input set) and returns false on
/// divergence, filling \p Detail with a description. Injected as a
/// callback so the optimizer does not link against the vm; see
/// tooling/LintHarness.h for the interpreter-backed implementation.
using AuditOracle = std::function<bool(
    const Function &Before, Function &After, std::string &Detail)>;

/// An IR-to-IR transformation over one compilation unit.
class Phase {
public:
  virtual ~Phase();

  /// Human-readable phase name (diagnostics and timing).
  virtual const char *name() const = 0;

  /// Runs the phase. Returns true if the IR changed. Must leave the
  /// function in a verifier-clean state.
  virtual bool run(Function &F) = 0;
};

/// Constant folding, strength reduction, algebraic identities, and phi
/// copy propagation (paper §2 "Constant Folding", §4.1 strength-reduction
/// example). Local, iterates to an in-phase fixpoint.
class Canonicalizer : public Phase {
public:
  const char *name() const override { return "canonicalize"; }
  bool run(Function &F) override;
};

/// Conditional elimination (paper §2, after Stadler et al.): walks the
/// dominator tree, refines stamps with dominating branch conditions, and
/// folds comparisons (and any arithmetic the refined ranges decide).
class ConditionalElimination : public Phase {
public:
  const char *name() const override { return "conditional-elimination"; }
  bool run(Function &F) override;
};

/// Read elimination (paper §2): forwards stored/loaded field values within
/// extended basic blocks along the dominator tree; merge blocks reset
/// memory knowledge (duplication is exactly what turns partially redundant
/// reads into fully redundant ones, Listing 5/6). Knows fresh allocations'
/// fields are zero and keeps them alive across opaque calls.
class ReadElimination : public Phase {
public:
  /// \p ClassTable supplies field counts for zero-initialized fresh
  /// allocations; pass null to disable freshness reasoning.
  explicit ReadElimination(const Module *ClassTable = nullptr)
      : ClassTable(ClassTable) {}

  const char *name() const override { return "read-elimination"; }
  bool run(Function &F) override;

private:
  const Module *ClassTable;
};

/// Dominator-based value numbering (Briggs/Cooper/Simpson, the paper's
/// [5]): replaces pure recomputations with equal values available in a
/// dominator. Mops up the partial copies duplication leaves behind.
class ValueNumbering : public Phase {
public:
  const char *name() const override { return "value-numbering"; }
  bool run(Function &F) override;
};

/// Dead code elimination by mark-and-sweep from terminators, calls,
/// invokes and stores. Scalar replacement is PartialEscapePhase's job.
class DeadCodeElimination : public Phase {
public:
  const char *name() const override { return "dce"; }
  bool run(Function &F) override;
};

/// Control-flow cleanup: folds constant branches, prunes unreachable
/// blocks, threads empty forwarding blocks, and merges straight-line block
/// pairs. Collapsed merges are how a fully duplicated merge block
/// disappears.
class SimplifyCFG : public Phase {
public:
  const char *name() const override { return "simplify-cfg"; }
  bool run(Function &F) override;
};

/// Runs a pipeline of phases to a fixpoint (bounded rounds), optionally
/// verifying after every phase.
///
/// Verification is transactional by default: each verified phase runs
/// against a pre-phase snapshot of the function, and a phase that leaves
/// the IR invalid is rolled back, quarantined for that function, and
/// recorded as a diagnostic — the pipeline keeps going with the remaining
/// phases. The legacy die-on-first-violation behavior survives behind the
/// opt-in fail-fast switch (drivers expose it as --fail-fast).
class PhaseManager {
public:
  explicit PhaseManager(bool VerifyAfterEachPhase = true)
      : Verify(VerifyAfterEachPhase) {}

  /// Appends a phase to the pipeline.
  void add(std::unique_ptr<Phase> P) { Phases.push_back(std::move(P)); }

  /// Runs all phases repeatedly until none reports a change (at most
  /// \p MaxRounds rounds). Returns true if anything changed.
  bool run(Function &F, unsigned MaxRounds = 4);

  /// The standard cleanup pipeline used after duplication and by the
  /// baseline configuration: canonicalize, CE, read elimination, DCE,
  /// simplify-cfg. \p ClassTable enables freshness reasoning in read
  /// elimination.
  static PhaseManager standardPipeline(bool Verify = true,
                                       const Module *ClassTable = nullptr);

  // ---- Fault tolerance -------------------------------------------------

  /// When true, a verifier failure aborts the process (the legacy
  /// behavior) instead of rolling the function back.
  void setFailFast(bool B) { FailFast = B; }

  /// Optional sink for rollback/budget diagnostics (not owned).
  void setDiagnostics(DiagnosticEngine *D) { Diags = D; }

  /// Optional deterministic fault source exercising the rollback path
  /// (not owned). Only consulted when verification is enabled.
  void setFaultInjector(FaultInjector *FI) { Injector = FI; }

  /// Optional per-function wall-clock budget (not owned). When it expires,
  /// fixpoint re-iteration stops after the current round and the budget is
  /// degraded to DegradationLevel::NoFixpoint.
  void setBudget(CompileBudget *B) { Budget = B; }

  /// Optional cooperative cancellation token (not owned). Checked at the
  /// top of every round and before every phase; once it fires, the
  /// pipeline stops at that checkpoint (the function is always left whole
  /// — phases are never interrupted mid-transformation).
  void setCancellation(CancellationToken *C) { Cancel = C; }

  /// True if the last run() stopped early because the cancellation token
  /// fired.
  bool wasCancelled() const { return Cancelled; }

  /// Optional set of phase names disabled by the service's per-phase
  /// circuit breaker (not owned). Disabled phases are skipped like
  /// quarantined ones, but module-wide rather than per-function.
  void setDisabledPhases(const std::unordered_set<std::string> *D) {
    DisabledPhases = D;
  }

  // ---- Phase-effect auditing -------------------------------------------

  /// Enables audit mode with \p L (not owned): every phase's output is
  /// linted and diffed against the pre-phase report, and any *new*
  /// error-severity finding is attributed to that phase — the function is
  /// rolled back, the phase quarantined, and the quarantine diagnostic
  /// names the offending phase and the violated rules. Findings that
  /// predate the phase are never blamed on it. Supersedes the plain
  /// verifier check while set.
  void setAuditLinter(const Linter *L) { Audit = L; }

  /// Optional behavioral oracle for audit mode (see AuditOracle): runs
  /// after a phase passes the static lint diff and catches structurally
  /// valid but semantically wrong transforms (the SabotagePhase class of
  /// defect, which no static check can see). Divergence rolls the phase
  /// back like a lint violation.
  void setAuditOracle(AuditOracle O) { Oracle = std::move(O); }

  /// Phases rolled back over the manager's lifetime.
  unsigned rollbackCount() const { return Rollbacks; }

  /// Names of the phases quarantined over the manager's lifetime, one
  /// entry per rollback, in occurrence order. The service's circuit
  /// breaker folds these per-task lists in function-index order, so its
  /// trip decisions stay schedule-independent.
  const std::vector<std::string> &quarantineEvents() const {
    return QuarantineEvents;
  }

  /// True if \p PhaseIdx is quarantined for the function named \p Fn.
  bool isQuarantined(const std::string &Fn, unsigned PhaseIdx) const {
    auto It = Quarantined.find(Fn);
    return It != Quarantined.end() && It->second.count(PhaseIdx) != 0;
  }

private:
  std::vector<std::unique_ptr<Phase>> Phases;
  bool Verify;
  bool FailFast = false;
  DiagnosticEngine *Diags = nullptr;
  FaultInjector *Injector = nullptr;
  CompileBudget *Budget = nullptr;
  CancellationToken *Cancel = nullptr;
  const std::unordered_set<std::string> *DisabledPhases = nullptr;
  const Linter *Audit = nullptr;
  AuditOracle Oracle;
  unsigned Rollbacks = 0;
  bool Cancelled = false;
  std::vector<std::string> QuarantineEvents;
  /// Function name -> indices of phases that broke that function once and
  /// are skipped for it from then on.
  std::unordered_map<std::string, std::unordered_set<unsigned>> Quarantined;
};

} // namespace dbds

#endif // DBDS_OPTS_PHASE_H
