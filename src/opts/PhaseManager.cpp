//===- opts/PhaseManager.cpp - Fixpoint pipeline driver --------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "analysis/Verifier.h"
#include "opts/PartialEscape.h"
#include "opts/Phase.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/Timer.h"
#include "telemetry/Counters.h"
#include "telemetry/Json.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"

#include <cstdio>
#include <cstdlib>

using namespace dbds;

DBDS_COUNTER(phase_manager, phases_run);
DBDS_COUNTER(phase_manager, rounds_run);
DBDS_COUNTER(phase_manager, phase_rollbacks);
DBDS_COUNTER(phase_manager, phases_quarantined_skipped);

bool dbds::corruptFunctionIR(Function &F, uint64_t Entropy) {
  // Preferred corruption: drop one phi input, breaking the phi/predecessor
  // alignment invariant. Always verifier-visible, always restorable.
  std::vector<PhiInst *> Phis;
  for (Block *B : F.blocks())
    for (PhiInst *Phi : B->phis())
      if (Phi->getNumInputs() != 0)
        Phis.push_back(Phi);
  if (!Phis.empty()) {
    Phis[Entropy % Phis.size()]->removeInput(0);
    return true;
  }
  // Fallback: strip a block's terminator.
  auto Blocks = F.blocks();
  for (unsigned Tried = 0; Tried != Blocks.size(); ++Tried) {
    Block *B = Blocks[(Entropy + Tried) % Blocks.size()];
    if (Instruction *Term = B->getTerminator()) {
      B->remove(Term);
      return true;
    }
  }
  return false;
}

bool PhaseManager::run(Function &F, unsigned MaxRounds) {
  bool Changed = false;
  // Snapshots (and therefore rollback) exist only in checking modes;
  // unverified pipelines keep their zero-overhead fast path. Audit mode
  // (setAuditLinter) implies checking even when plain verification is off.
  const bool Auditing = Audit != nullptr;
  const bool Checking = Verify || Auditing;
  const bool Transactional = Checking && !FailFast;

  TraceSession *TS = TraceSession::active();
  TraceSpan PipelineSpan(TS, "pipeline", "phase",
                         TS ? "\"function\":" + jsonString(F.getName())
                            : std::string());

  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    ++rounds_run;
    // Budget gate: the first round always runs (every function gets at
    // least the single-round baseline pipeline), further fixpoint rounds
    // are shed when the wall-clock allowance is gone.
    if (Round != 0 && Budget && Budget->expired()) {
      Budget->degradeTo(DegradationLevel::NoFixpoint);
      if (Diags)
        Diags->note("phase-manager", F.getName(),
                    "compile budget exhausted; dropping fixpoint iteration "
                    "after round " +
                        std::to_string(Round));
      break;
    }

    bool RoundChanged = false;
    for (unsigned Idx = 0; Idx != Phases.size(); ++Idx) {
      const auto &P = Phases[Idx];
      if (isQuarantined(F.getName(), Idx)) {
        ++phases_quarantined_skipped;
        continue;
      }
      ++phases_run;

      // One span per phase per function (per fixpoint round).
      TraceSpan PhaseSpan(TS, P->name(), "phase",
                          TS ? "\"function\":" + jsonString(F.getName()) +
                                   ",\"round\":" + jsonNumber(Round)
                             : std::string());

      // Per-phase latency histogram ("phase.<name>"), keyed by the phase's
      // static name so all rounds and functions aggregate into one
      // distribution. Detached cost is the enabled() relaxed load.
      const bool Metered = MetricsRegistry::enabled();
      uint64_t PhaseT0 = Metered ? Timer::nowNs() : 0;

      std::unique_ptr<Function> Snapshot;
      if (Transactional)
        Snapshot = F.clone();

      // Audit mode attaches the phase's own counter activity to any
      // quarantine diagnostic: snapshot before the phase so the delta
      // isolates what this phase did. Under the parallel compile service a
      // CounterShard is installed, and the snapshot MUST come from it —
      // the global registry would fold in every concurrent worker's
      // increments and misattribute them to this phase.
      CounterShard *Shard = CounterShard::active();
      std::vector<CounterSample> PreCounters;
      if (Auditing)
        PreCounters =
            Shard ? Shard->snapshot() : CounterRegistry::instance().snapshot();

      // Audit baseline: the pre-phase lint findings. New findings after
      // the phase are the phase's effect; pre-existing ones are not.
      std::unordered_set<std::string> PreKeys;
      if (Auditing)
        for (const LintFinding &Finding : Audit->lint(F).Findings)
          PreKeys.insert(Finding.key());

      bool PhaseChanged = P->run(F);

      if (Metered)
        MetricsRegistry::instance()
            .getOrCreate("phase", P->name(), MetricUnit::Nanoseconds,
                         MetricClass::Timing)
            .record(Timer::nowNs() - PhaseT0);

      // Fault injection (only meaningful when the verifier would catch the
      // damage; silent corruption in unverified mode would be a miscompile
      // generator, not a robustness test).
      bool ForcedFailure = false;
      if (Checking && Injector) {
        switch (Injector->at(P->name())) {
        case FaultKind::None:
          break;
        case FaultKind::CorruptIR:
          PhaseChanged |= corruptFunctionIR(F, Injector->entropy());
          break;
        case FaultKind::PhaseFailure:
          ForcedFailure = true;
          break;
        }
      }

      if (Checking && (PhaseChanged || ForcedFailure)) {
        std::string Error;
        if (ForcedFailure) {
          Error = "injected phase failure";
        } else if (Auditing) {
          // Diff the post-phase lint report against the pre-phase baseline
          // and attribute every new error-severity finding to this phase.
          LintReport Post = Audit->lint(F);
          unsigned NewErrors = 0;
          for (const LintFinding &Finding : Post.Findings) {
            if (Finding.Severity != LintSeverity::Error ||
                PreKeys.count(Finding.key()))
              continue;
            ++NewErrors;
            if (NewErrors > 4)
              continue; // cap the diagnostic; the count stays exact
            if (!Error.empty())
              Error += "; ";
            Error += "[" + Finding.RuleId + "] " + Finding.location() +
                     ": " + Finding.Message;
          }
          if (NewErrors != 0)
            Error = "introduced " + std::to_string(NewErrors) +
                    " new lint violation(s): " + Error +
                    (NewErrors > 4 ? "; ..." : "");
        } else {
          Error = verifyFunction(F);
        }

        // Static checks passed: consult the behavioral oracle, which
        // catches structurally valid but semantically wrong transforms.
        if (Error.empty() && Auditing && Oracle && PhaseChanged &&
            Snapshot) {
          std::string Detail;
          if (!Oracle(*Snapshot, F, Detail))
            Error = "audit oracle detected behavioral divergence: " + Detail;
        }

        if (!Error.empty()) {
          if (!Transactional) {
            fprintf(stderr, "verifier failed after %s on @%s: %s\n",
                    P->name(), F.getName().c_str(), Error.c_str());
            abort();
          }
          // Transaction abort: restore the pre-phase IR, quarantine the
          // phase for this function, and continue the pipeline.
          F.restoreFrom(*Snapshot);
          assert(verifyFunction(F).empty() &&
                 "rollback restored an invalid snapshot");
          Quarantined[F.getName()].insert(Idx);
          ++Rollbacks;
          ++phase_rollbacks;
          if (Auditing) {
            std::vector<CounterSample> Delta = CounterRegistry::delta(
                PreCounters, Shard ? Shard->snapshot()
                                   : CounterRegistry::instance().snapshot());
            if (!Delta.empty()) {
              Error += " [counters:";
              for (const CounterSample &Sample : Delta)
                Error += " " + Sample.Name + "=" +
                         std::to_string(Sample.Value);
              Error += "]";
            }
          }
          if (TS)
            TS->instant("quarantine", "phase",
                        "\"phase\":" + jsonString(P->name()) +
                            ",\"function\":" + jsonString(F.getName()) +
                            ",\"error\":" + jsonString(Error));
          if (Diags)
            Diags->warning(P->name(), F.getName(),
                           "phase rolled back and quarantined: " + Error);
          continue; // The function is back in its pre-phase state.
        }
      }
      RoundChanged |= PhaseChanged;
    }
    Changed |= RoundChanged;
    if (!RoundChanged)
      break;
  }
  return Changed;
}

PhaseManager PhaseManager::standardPipeline(bool Verify,
                                            const Module *ClassTable) {
  PhaseManager PM(Verify);
  PM.add(std::make_unique<Canonicalizer>());
  PM.add(std::make_unique<ValueNumbering>());
  PM.add(std::make_unique<ConditionalElimination>());
  PM.add(std::make_unique<ReadElimination>(ClassTable));
  PM.add(std::make_unique<PartialEscapePhase>());
  PM.add(std::make_unique<DeadCodeElimination>());
  PM.add(std::make_unique<SimplifyCFG>());
  return PM;
}
