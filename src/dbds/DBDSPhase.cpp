//===- dbds/DBDSPhase.cpp - The three-tier DBDS driver ---------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dbds/DBDSPhase.h"

#include "analysis/Lint.h"
#include "analysis/Loops.h"
#include "analysis/Verifier.h"
#include "dbds/CostModel.h"
#include "dbds/Duplicator.h"
#include "dbds/Simulator.h"
#include "opts/Phase.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/Timer.h"
#include "telemetry/Counters.h"
#include "telemetry/Json.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_set>

using namespace dbds;

DBDS_COUNTER(dbds, iterations_run);
DBDS_COUNTER(dbds, duplications_performed);
DBDS_COUNTER(dbds, rollbacks_performed);
DBDS_COUNTER(dbds, candidates_stale);

// Per-tier latency distributions (the paper's three-tier split, §3): how
// the duplication pass's compile time divides between simulation,
// trade-off, and optimization. candidates_per_iteration is a property of
// the IR alone, so it participates in the determinism contract — samples
// from budget-expired runs are dropped (see runDBDS) because their count
// depends on wall-clock timing.
DBDS_HISTOGRAM(dbds, simulate_ns, Nanoseconds, Timing);
DBDS_HISTOGRAM(dbds, tradeoff_ns, Nanoseconds, Timing);
DBDS_HISTOGRAM(dbds, optimize_ns, Nanoseconds, Timing);
DBDS_HISTOGRAM(dbds, candidates_per_iteration, Count, Deterministic);

namespace {

/// Post-mutation check in the transactional protocol: lints the function
/// and summarizes the error findings ("" = clean), letting the caller roll
/// back. Under fail-fast the full multi-finding report is printed before
/// aborting — the structured replacement for the old first-error-only
/// verifier message.
std::string checkAfterMutation(Function &F, const char *When,
                               const DBDSConfig &Config) {
  LintReport Report = Linter::standard(Config.ClassTable).lint(F);
  if (!Report.hasErrors())
    return "";
  if (Config.FailFast) {
    fprintf(stderr, "lint failed %s on @%s (%u error(s)):\n%s", When,
            F.getName().c_str(), Report.errorCount(),
            Report.render().c_str());
    abort();
  }
  const LintFinding *First = Report.firstError();
  std::string Summary =
      "[" + First->RuleId + "] " + First->location() + ": " + First->Message;
  if (Report.errorCount() > 1)
    Summary += " (+" + std::to_string(Report.errorCount() - 1) +
               " more error(s))";
  return Summary;
}

/// The optimize tier's dominance facts for the current CFG state: one
/// dominator tree, shared by every candidate revalidated against it. A
/// duplication adopts the tree the duplicator built for its SSA repair, so
/// the tree is rebuilt exactly once per CFG edit.
class CFGState {
public:
  explicit CFGState(Function &F) : F(F) {}

  /// True if \p M can be duplicated into \p P in the current CFG (earlier
  /// duplications in the same iteration may have restructured it): the
  /// structural check, both blocks reachable, and M not a loop header.
  bool canDuplicate(Block *M, Block *P) {
    if (!M || !P || !canDuplicateInto(M, P))
      return false;
    if (!DT)
      DT.emplace(F);
    if (!DT->isReachable(M) || !DT->isReachable(P))
      return false;
    return !LoopInfo::isHeader(M, *DT);
  }

  void duplicate(Block *M, Block *P) {
    duplicateIntoPredecessor(F, M, P, &DT);
  }

private:
  Function &F;
  std::optional<DominatorTree> DT;
};

} // namespace

DBDSResult dbds::runDBDS(Function &F, const DBDSConfig &Config) {
  DBDSResult Result;
  TraceSession *TS = TraceSession::active();
  TraceSpan FnSpan(TS, "dbds", "dbds",
                   TS ? "\"function\":" + jsonString(F.getName())
                      : std::string());
  uint64_t InitialSize = F.estimatedCodeSize();
  PhaseManager Cleanup =
      PhaseManager::standardPipeline(Config.Verify, Config.ClassTable);
  Cleanup.setFailFast(Config.FailFast);
  Cleanup.setDiagnostics(Config.Diags);
  Cleanup.setBudget(Config.Budget);

  // Transactional mode: each duplication round runs against a pre-round
  // snapshot; a verifier failure rolls the whole round back and stops DBDS
  // for this function (the speculative phase is optional — paper §3).
  const bool Transactional = Config.Verify && !Config.FailFast;

  // §5.2: "subsequent iterations of DBDS will consider new merges first
  // and only expand to already visited ones if there is sufficient budget
  // left" — merges seen in earlier iterations rank behind fresh ones.
  std::unordered_set<unsigned> VisitedMerges;

  auto budgetExpired = [&Result, &Config, &F]() {
    if (!Config.Budget || !Config.Budget->expired())
      return false;
    Config.Budget->degradeTo(DegradationLevel::NoDBDS);
    if (!Result.BudgetExpired && Config.Diags)
      Config.Diags->note("dbds", F.getName(),
                         "compile budget exhausted; dropping duplication");
    Result.BudgetExpired = true;
    return true;
  };

  // candidates_per_iteration is Deterministic-class, but how many
  // iterations run — and therefore how many samples exist — depends on
  // where the wall-clock budget happened to land. Buffer the per-iteration
  // counts and publish them only for runs the budget did not cut short.
  std::vector<uint64_t> CandidateSamples;
  auto flushCandidateSamples = [&Result, &CandidateSamples]() {
    if (Result.BudgetExpired)
      return;
    for (uint64_t N : CandidateSamples)
      candidates_per_iteration.record(N);
  };

  for (unsigned Iter = 0; Iter != Config.MaxIterations; ++Iter) {
    if (budgetExpired())
      break;
    ++Result.IterationsRun;
    ++iterations_run;

    std::unique_ptr<Function> RoundSnapshot;
    if (Transactional)
      RoundSnapshot = F.clone();

    // Tier 1: simulation (with path continuation when the §8 extension is
    // enabled).
    std::vector<DuplicationCandidate> Candidates;
    const bool Metered = MetricsRegistry::enabled();
    {
      TraceSpan SimSpan(TS, "simulate", "dbds",
                        TS ? "\"iteration\":" + jsonNumber(Iter)
                           : std::string());
      uint64_t T0 = Metered ? Timer::nowNs() : 0;
      Candidates = simulateDuplications(
          F, Config.ClassTable, /*Stats=*/nullptr,
          /*MaxPathLength=*/Config.EnablePathDuplication ? 2 : 1);
      if (Metered)
        simulate_ns.record(Timer::nowNs() - T0);
    }
    Result.CandidatesSimulated += Candidates.size();
    CandidateSamples.push_back(Candidates.size());

    // Tier 2: trade-off — most promising candidates first (§3.2: sorted by
    // benefit and cost, to optimize the best ones while budget remains);
    // after the first iteration, new merges rank before revisited ones.
    TraceSpan TradeoffSpan(TS, "tradeoff", "dbds",
                           TS ? "\"iteration\":" + jsonNumber(Iter)
                              : std::string());
    uint64_t TradeoffT0 = Metered ? Timer::nowNs() : 0;
    std::sort(Candidates.begin(), Candidates.end(),
              [&VisitedMerges](const DuplicationCandidate &A,
                               const DuplicationCandidate &B) {
                bool ASeen = VisitedMerges.count(A.MergeId) != 0;
                bool BSeen = VisitedMerges.count(B.MergeId) != 0;
                if (ASeen != BSeen)
                  return !ASeen; // fresh merges first
                if (A.benefit() != B.benefit())
                  return A.benefit() > B.benefit();
                if (A.SizeCost != B.SizeCost)
                  return A.SizeCost < B.SizeCost;
                return A.MergeId < B.MergeId; // deterministic tie-break
              });
    for (const DuplicationCandidate &C : Candidates)
      VisitedMerges.insert(C.MergeId);
    if (Metered)
      tradeoff_ns.record(Timer::nowNs() - TradeoffT0);
    TradeoffSpan.close();

    // Tier 3: optimization. Every candidate ruled on gets a decision-log
    // record carrying its exact shouldDuplicate inputs and verdict.
    DecisionLog *DL = Config.Decisions;
    const size_t RoundStartIdx = DL ? DL->decisions().size() : 0;
    auto makeDecision = [&](const DuplicationCandidate &C,
                            uint64_t CurrentSize) {
      DuplicationDecision D;
      D.FunctionName = F.getName();
      D.Iteration = Iter;
      D.MergeId = C.MergeId;
      D.PredId = C.PredId;
      D.SecondMergeId = C.SecondMergeId;
      D.CyclesSaved = C.CyclesSaved;
      D.Probability = C.Probability;
      D.SizeCost = C.SizeCost;
      D.CurrentSize = CurrentSize;
      D.InitialSize = InitialSize;
      D.Opportunities = C.Opportunities;
      return D;
    };
    double IterationBenefit = 0.0;
    bool Changed = false;
    bool RolledBack = false;
    const unsigned DupsBeforeRound = Result.DuplicationsPerformed;

    // Verifies the IR after a duplication; under the transactional
    // protocol a failure restores the pre-round snapshot and stops DBDS
    // for this function.
    auto verifyOrRollback = [&](const char *When) {
      if (!Config.Verify)
        return true;
      // Fault injection point: deterministically corrupt the IR right
      // after a duplication to exercise the rollback machinery
      // (PhaseFailure is not a duplication fault).
      if (Config.Injector &&
          Config.Injector->at("dbds-duplicate") == FaultKind::CorruptIR)
        corruptFunctionIR(F, Config.Injector->entropy());
      std::string Error = checkAfterMutation(F, When, Config);
      if (Error.empty())
        return true;
      F.restoreFrom(*RoundSnapshot);
      assert(verifyFunction(F).empty() &&
             "rollback restored an invalid snapshot");
      // The snapshot predates the whole round: un-count this round's
      // duplications, they no longer exist in the IR.
      Result.DuplicationsPerformed = DupsBeforeRound;
      ++Result.RollbacksPerformed;
      ++rollbacks_performed;
      RolledBack = true;
      if (Config.Diags)
        Config.Diags->warning("dbds", F.getName(),
                              std::string("duplication round rolled back (") +
                                  When + "): " + Error);
      return false;
    };

    TraceSpan OptSpan(TS, "optimize", "dbds",
                      TS ? "\"iteration\":" + jsonNumber(Iter)
                         : std::string());
    uint64_t OptT0 = Metered ? Timer::nowNs() : 0;
    CFGState CFG(F);
    for (const DuplicationCandidate &C : Candidates) {
      if (budgetExpired())
        break;
      Block *M = F.getBlockById(C.MergeId);
      Block *P = F.getBlockById(C.PredId);
      if (!CFG.canDuplicate(M, P)) {
        ++candidates_stale;
        if (DL) {
          DuplicationDecision D = makeDecision(C, F.estimatedCodeSize());
          D.Verdict = DecisionVerdict::RejectedStale;
          DL->append(std::move(D));
        }
        continue;
      }
      uint64_t CurrentSize = F.estimatedCodeSize();
      TradeoffClauses Clauses;
      bool TradeoffEvaluated = false;
      if (Config.UseTradeoff) {
        TradeoffEvaluated = true;
        if (!shouldDuplicate(C.CyclesSaved, C.Probability, C.SizeCost,
                             CurrentSize, InitialSize, Config, &Clauses)) {
          if (DL) {
            DuplicationDecision D = makeDecision(C, CurrentSize);
            D.TradeoffEvaluated = true;
            D.Clauses = Clauses;
            D.Verdict = DecisionVerdict::RejectedTradeoff;
            DL->append(std::move(D));
          }
          continue;
        }
      } else {
        // dupalot: any benefit suffices, only the hard VM limit applies.
        if (C.CyclesSaved <= 0.0 || CurrentSize >= Config.MaxUnitSize) {
          if (DL) {
            DuplicationDecision D = makeDecision(C, CurrentSize);
            D.Verdict = C.CyclesSaved <= 0.0
                            ? DecisionVerdict::RejectedNoBenefit
                            : DecisionVerdict::RejectedSizeLimit;
            DL->append(std::move(D));
          }
          continue;
        }
      }
      CFG.duplicate(M, P);
      if (!verifyOrRollback("after duplication")) {
        if (DL) {
          DuplicationDecision D = makeDecision(C, CurrentSize);
          D.TradeoffEvaluated = TradeoffEvaluated;
          D.Clauses = Clauses;
          D.Verdict = DecisionVerdict::RolledBack;
          DL->append(std::move(D));
        }
        break;
      }
      ++Result.DuplicationsPerformed;
      ++duplications_performed;
      unsigned DupsForCandidate = 1;

      // §8 extension: continue the duplication along the simulated path.
      // After the first duplication P ends with the copied jump into the
      // second merge; duplicate that one into P as well.
      if (C.isPath()) {
        assert(Config.EnablePathDuplication &&
               "path candidate without the extension enabled");
        Block *M2 = F.getBlockById(C.SecondMergeId);
        if (CFG.canDuplicate(M2, P)) {
          CFG.duplicate(M2, P);
          if (!verifyOrRollback("after path duplication")) {
            if (DL) {
              DuplicationDecision D = makeDecision(C, CurrentSize);
              D.TradeoffEvaluated = TradeoffEvaluated;
              D.Clauses = Clauses;
              D.Verdict = DecisionVerdict::RolledBack;
              DL->append(std::move(D));
            }
            break;
          }
          ++Result.DuplicationsPerformed;
          ++duplications_performed;
          ++DupsForCandidate;
        }
      }

      if (DL) {
        DuplicationDecision D = makeDecision(C, CurrentSize);
        D.TradeoffEvaluated = TradeoffEvaluated;
        D.Clauses = Clauses;
        D.Verdict = DecisionVerdict::Accepted;
        D.DuplicationsPerformed = DupsForCandidate;
        DL->append(std::move(D));
      }
      IterationBenefit += C.benefit();
      Changed = true;
    }
    if (Metered)
      optimize_ns.record(Timer::nowNs() - OptT0);
    OptSpan.close();
    if (RolledBack) {
      // The round's duplications were restored away; their Accepted
      // records no longer describe the IR.
      if (DL)
        DL->markRolledBackFrom(RoundStartIdx, F.getName());
      // Rollback is IR-determined (lint failure / deterministic fault
      // injection), not schedule-dependent: the buffered samples stand.
      flushCandidateSamples();
      return Result; // Last known-good IR is in place; DBDS is done here.
    }
    Result.TotalBenefit += IterationBenefit;

    // Follow-up optimizations on the duplicated code (skipped once the
    // budget is gone: duplicated-but-uncleaned IR is still valid).
    if (Changed && !Result.BudgetExpired) {
      TraceSpan CleanupSpan(TS, "cleanup", "dbds",
                            TS ? "\"iteration\":" + jsonNumber(Iter)
                               : std::string());
      Cleanup.run(F);
    }

    if (!Changed || IterationBenefit < Config.MinIterationBenefit)
      break;
  }
  flushCandidateSamples();
  return Result;
}

BacktrackingResult
dbds::runBacktrackingDuplication(std::unique_ptr<Function> &F,
                                 const Module *ClassTable,
                                 uint64_t MaxUnitSize) {
  BacktrackingResult Result;
  PhaseManager Pipeline =
      PhaseManager::standardPipeline(/*Verify=*/false, ClassTable);

  bool ProgressMade = true;
  while (ProgressMade) {
    ProgressMade = false;
    // Snapshot the merge list; the CFG changes under us, so blocks are
    // revisited by id.
    std::vector<unsigned> MergeIds;
    for (Block *B : F->blocks())
      if (B->isMerge())
        MergeIds.push_back(B->getId());

    for (unsigned MergeId : MergeIds) {
      if (F->estimatedCodeSize() >= MaxUnitSize)
        return Result;
      Block *M = F->getBlockById(MergeId);
      if (!M || !M->isMerge())
        continue;
      {
        DominatorTree DT(*F);
        if (!DT.isReachable(M) || LoopInfo::isHeader(M, DT))
          continue;
      }

      // Algorithm 1: copy the whole CFG — the operation whose cost makes
      // backtracking impractical (§3.1: ~10x compile time in Graal).
      std::unique_ptr<Function> Snapshot = F->clone();
      ++Result.GraphCopies;
      double Before = expectedCycles(*F);

      bool DuplicatedAny = false;
      SmallVector<Block *, 4> Preds(M->preds().begin(), M->preds().end());
      for (Block *P : Preds) {
        if (canDuplicateInto(M, P)) {
          duplicateIntoPredecessor(*F, M, P);
          DuplicatedAny = true;
        }
      }
      if (!DuplicatedAny)
        continue;
      Pipeline.run(*F);

      double After = expectedCycles(*F);
      if (After < Before) {
        ++Result.Duplications;
        ProgressMade = true;
        break; // the CFG and block list changed: restart the outer loop
      }
      // Backtrack: restore the snapshot.
      ++Result.Backtracks;
      F = std::move(Snapshot);
    }
  }
  return Result;
}
