//===- tools/fuzzdiff/fuzzdiff.cpp - Differential fuzzing driver -----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential fuzzer for the optimization pipeline:
//
//   fuzzdiff [--seed=N] [--count=N] [--max-seconds=N] [--out-dir=DIR]
//            [--functions=N] [--segments=N] [--inject=SEED]
//            [--sabotage] [--fail-fast] [--quiet]
//            [--trace=FILE] [--jobs=N] [--simaudit] [--compile-cache[=DIR]]
//            [--cache-dir=DIR]
//
// --compile-cache memoizes injector-free compiles by content hash
// (workloads/CompileCache.h): identical generated functions recurring
// across seeds and configs replay instead of recompiling, with findings
// byte-identical to the uncached run. With =DIR entries persist on disk.
//
// For each seed it generates a program (workloads/ProgramGenerator),
// optimizes a copy under each of the paper's three configurations —
// baseline, dbds, dupalot — with transactional verification enabled, then
// interprets every function of every optimized copy against the
// unoptimized reference on the evaluation inputs. Any observable
// divergence (different result, or one side failing to terminate) is a
// finding: the reference module is dumped as a textual-IR crash artifact,
// delta-debugged down to a minimal reproducer (tooling/Reducer), and the
// reduced artifact is written next to it.
//
// --sabotage appends a deliberate miscompilation (tooling/Sabotage.h) to
// the optimized pipelines: the harness's known-positive self-test. The
// exit status is 0 exactly when the outcome matches the mode — no
// findings normally, at least one finding under --sabotage.
//
// --inject=SEED drives a deterministic FaultInjector through the
// pipelines; every injected fault must be rolled back transactionally, so
// a fuzzing pass with injection enabled doubles as the fault-tolerance
// acceptance test (no aborts, no divergence from rolled-back faults).
//
// --simaudit replays each optimized function's recorded DBDS decisions
// against dataflow-proven facts (analysis/SimAudit.h) and reports the
// aggregated verdict counts with the run summary — simulator-soundness
// coverage riding on the fuzzer's seed diversity.
//
// --jobs=N fuzzes N seeds concurrently on the compile service's worker
// pool (0 = one worker per hardware thread). Each seed's fault stream
// derives from (inject seed, seed index), findings are buffered per seed,
// and reduction/artifact writing happens serially after the join in seed
// order — so the artifacts, diagnostics, and summary counts match a
// --jobs=1 run (the --sabotage early exit excepted).
//
// --max-seconds=N is a hang guard, not a budget: seeds that have not
// started when it runs out are skipped, and a run that skipped any seed
// this way reports how many and exits 1, so a fixed --count is always
// either checked in full or failed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "dbds/DBDSPhase.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "analysis/SimAudit.h"
#include "opts/Phase.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "telemetry/Trace.h"
#include "tooling/DriverOptions.h"
#include "tooling/Reducer.h"
#include "tooling/Sabotage.h"
#include "vm/Interpreter.h"
#include "workloads/CompileCache.h"
#include "workloads/CompileService.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Runner.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <optional>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace dbds;

namespace {

constexpr uint64_t RunFuel = 1u << 22;

/// Fuel for the optimized side of a reduction-oracle run: eight times the
/// reference run's step count plus a floor, capped at RunFuel. That is
/// ample for an optimized run that terminates (optimization removes more
/// executed work than it adds), while a candidate that stopped terminating
/// no longer burns the full RunFuel on every oracle query.
uint64_t oracleFuel(uint64_t ReferenceSteps) {
  return std::min<uint64_t>(RunFuel, ReferenceSteps * 8 + 4096);
}

struct Options {
  /// Shared flags (tooling/DriverOptions.h): --seed/--count/--functions/
  /// --segments/--fail-fast/--quiet/--trace/--jobs/--simaudit/
  /// --compile-cache/--cache-dir.
  DriverOptions Common;
  double MaxSeconds = 0.0; ///< 0 = unlimited.
  std::string OutDir = "fuzzdiff-artifacts";
  uint64_t InjectSeed = 0; ///< 0 = fault injection off.
  bool Sabotage = false;
};

const char *SpecificUsage =
    "[--max-seconds=N] [--out-dir=DIR] [--inject=SEED] [--sabotage]";

int usage(const char *Prog, const DriverOptionsParser &P) {
  fprintf(stderr, "usage: %s %s %s\n", Prog, SpecificUsage,
          P.usage().c_str());
  return 2;
}

GeneratorConfig makeGeneratorConfig(uint64_t Seed, const Options &O) {
  GeneratorConfig GC;
  GC.Seed = Seed;
  GC.NumFunctions = O.Common.Functions;
  GC.SegmentsPerFunction = O.Common.Segments;
  return GC;
}

/// Profiles \p F on \p Train and optimizes it under \p Config with
/// transactional verification — the exact procedure workloads/Runner.cpp
/// uses, minus the timing. This is both the fuzzing subject and the
/// reduction oracle's compile step, so a finding keeps reproducing while
/// it shrinks.
void compileFunction(Function &F, Module *M, RunConfig Config,
                     const std::vector<std::vector<int64_t>> &Train,
                     const Options &O, DiagnosticEngine *Diags,
                     FaultInjector *Injector, DecisionLog *Decisions = nullptr,
                     CompileCache *Cache = nullptr,
                     std::vector<std::pair<CompileCacheKey, CompileCacheEntry>>
                         *PendingStores = nullptr) {
  // Content-addressed memoization of the whole profile+optimize procedure.
  // Only sabotage-free compiles participate: sabotage diverges by design.
  // Injected faults advance a sequential stream, so --inject with the
  // cache is rejected up front by RunnerOptions::validate(); the Injector
  // guard here is belt-and-braces. The reduction oracle never passes a
  // cache — a shrinking module must recompile for real every time.
  if (Injector || O.Sabotage)
    Cache = nullptr;
  CompileCacheKey Key{};
  if (Cache) {
    CompileCacheFingerprint FP;
    FP.Tool = "fuzzdiff";
    FP.Config = static_cast<unsigned>(Config);
    FP.Verify = true;
    FP.FailFast = O.Common.FailFast;
    FP.WantDiags = Diags != nullptr;
    FP.WantDecisions = Decisions != nullptr;
    FP.MetricsEnabled = MetricsRegistry::enabled();
    Key = computeCompileCacheKey(printCacheableUnit(M, &F), Train,
                                 /*EvalInputs=*/{}, FP);
    auto Entry = Cache->probe(Key);
    PreparedReplay Replay;
    if (Entry && prepareReplay(*Entry, Replay)) {
      CompileCache::countHit();
      F.restoreFrom(*Replay.Fn);
      if (Decisions)
        for (const DuplicationDecision &D : Entry->Decisions)
          Decisions->append(D);
      return;
    }
    CompileCache::countMiss();
  }
  const size_t DiagsBefore = Diags ? Diags->all().size() : 0;
  const size_t DecisionsBefore = Decisions ? Decisions->decisions().size() : 0;

  Interpreter Interp(*M);
  ProfileSummary Profile;
  for (const auto &Args : Train) {
    Interp.reset();
    Interp.run(F, ArrayRef<int64_t>(Args), RunFuel, &Profile);
  }
  applyProfile(F, Profile);

  unsigned Rollbacks = 0;
  PhaseManager Pipeline = PhaseManager::standardPipeline(/*Verify=*/true, M);
  Pipeline.setFailFast(O.Common.FailFast);
  Pipeline.setDiagnostics(Diags);
  Pipeline.setFaultInjector(Injector);
  Pipeline.run(F);
  Rollbacks += Pipeline.rollbackCount();
  if (Config != RunConfig::Baseline) {
    DBDSConfig DC;
    DC.UseTradeoff = Config == RunConfig::DBDS;
    DC.ClassTable = M;
    DC.Verify = true;
    DC.FailFast = O.Common.FailFast;
    DC.Diags = Diags;
    DC.Injector = Injector;
    DC.Decisions = Decisions;
    DBDSResult R = runDBDS(F, DC);
    Rollbacks += R.RollbacksPerformed;
  }
  if (O.Sabotage && Config != RunConfig::Baseline) {
    SabotagePhase Sabotage;
    Sabotage.run(F);
  }

  // Store only clean compiles (no rollbacks, no new diagnostics) — the
  // same eligibility rule the compile service applies. Stores are
  // buffered; the seed-order join inserts them serially.
  if (Cache && PendingStores && Rollbacks == 0 &&
      (!Diags || Diags->all().size() == DiagsBefore)) {
    CompileCacheEntry E;
    E.CodeSize = F.estimatedCodeSize();
    E.OptimizedIR = printCacheableUnit(M, &F);
    if (Decisions)
      E.Decisions.assign(Decisions->decisions().begin() +
                             static_cast<ptrdiff_t>(DecisionsBefore),
                         Decisions->decisions().end());
    PendingStores->push_back({Key, std::move(E)});
  }
}

/// Observable equivalence of two runs. Object results compare by kind
/// only: heap indices are not stable across optimization levels (escape
/// analysis removes allocations), matching the runner's hashing rule.
bool sameObservable(const ExecutionResult &A, const ExecutionResult &B) {
  if (A.Ok != B.Ok)
    return false;
  if (!A.Ok)
    return true;
  if (A.HasResult != B.HasResult)
    return false;
  if (!A.HasResult)
    return true;
  if (A.Result.IsObject != B.Result.IsObject)
    return false;
  return A.Result.IsObject || A.Result.Scalar == B.Result.Scalar;
}

std::string describeRun(const ExecutionResult &R) {
  if (!R.Ok)
    return "<no termination>";
  if (!R.HasResult)
    return "<void>";
  if (R.Result.IsObject)
    return R.Result.isNull() ? "<null>" : "<object>";
  return std::to_string(R.Result.Scalar);
}

bool writeArtifact(const std::string &Path,
                   const std::vector<std::string> &Header,
                   const Module &M) {
  FILE *File = fopen(Path.c_str(), "wb");
  if (!File) {
    fprintf(stderr, "fuzzdiff: cannot write '%s'\n", Path.c_str());
    return false;
  }
  for (const std::string &Line : Header)
    fprintf(File, "# %s\n", Line.c_str());
  fprintf(File, "%s", printModule(&M).c_str());
  fclose(File);
  return true;
}

struct Finding {
  uint64_t Seed;
  std::string FunctionName;
  RunConfig Config;
  std::string Detail;
  unsigned OriginalInstructions = 0;
  unsigned ReducedInstructions = 0;
  bool Reduced = false;
};

/// Dumps, reduces, and re-dumps one divergence. \p Ref is the unoptimized
/// reference workload the divergence was found against.
void reportFinding(Finding &F, const GeneratedWorkload &Ref, unsigned FnIdx,
                   const Options &O) {
  std::string Base = O.OutDir + "/seed" + std::to_string(F.Seed) + "_" +
                     F.FunctionName + "_" + runConfigName(F.Config);
  std::vector<std::string> Header = {
      "fuzzdiff crash artifact",
      "seed:     " + std::to_string(F.Seed),
      "function: @" + F.FunctionName,
      "config:   " + std::string(runConfigName(F.Config)),
      "detail:   " + F.Detail,
  };
  writeArtifact(Base + ".ir", Header, *Ref.Mod);

  // Delta-debug the reference module: the oracle re-optimizes each
  // candidate from scratch and checks that the divergence survives.
  const std::vector<std::vector<int64_t>> &Train = Ref.TrainInputs[FnIdx];
  const std::vector<std::vector<int64_t>> &Eval = Ref.EvalInputs[FnIdx];
  RunConfig Config = F.Config;
  ReductionOracle Oracle = [&](Module &RM, Function &Focus) {
    // Reference runs first, in input order, up to the first one that does
    // not terminate: the verdict never looks past it, and a candidate
    // whose first reference run already hangs needs no compile at all.
    Interpreter RefInterp(RM);
    std::vector<ExecutionResult> Reference;
    for (const auto &Args : Eval) {
      RefInterp.reset();
      Reference.push_back(
          RefInterp.run(Focus, ArrayRef<int64_t>(Args), RunFuel));
      if (!Reference.back().Ok)
        break;
    }
    if (Reference.empty() || !Reference.front().Ok)
      return false;
    ParseResult Copy = parseModule(printModule(&RM));
    if (!Copy)
      return false;
    Function *CF = Copy.Mod->getFunction(Focus.getName());
    if (!CF)
      return false;
    compileFunction(*CF, Copy.Mod.get(), Config, Train, O,
                    /*Diags=*/nullptr, /*Injector=*/nullptr);
    Interpreter OptInterp(*Copy.Mod);
    for (size_t I = 0; I != Reference.size(); ++I) {
      const ExecutionResult &RA = Reference[I];
      if (!RA.Ok)
        return false; // never reduce toward a non-terminating reference
      OptInterp.reset();
      ExecutionResult RB = OptInterp.run(*CF, ArrayRef<int64_t>(Eval[I]),
                                         oracleFuel(RA.Steps));
      if (!sameObservable(RA, RB))
        return true;
    }
    return false;
  };

  // Every reduced reproducer ships with its own trace: the reduction
  // oracle re-compiles the shrinking module over and over, so the spans
  // show exactly which phases ran while the divergence still reproduced.
  // The session nests inside any whole-run --trace session and restores
  // it afterwards.
  TraceSession ReduceTrace;
  ReductionResult R = [&] {
    ScopedTraceAttach Attach(ReduceTrace);
    return reduceFunction(*Ref.Mod, F.FunctionName, Oracle);
  }();
  std::string TracePath = Base + "_trace.json";
  std::string TraceError;
  if (!ReduceTrace.writeJson(TracePath, &TraceError))
    fprintf(stderr, "fuzzdiff: cannot write '%s': %s\n", TracePath.c_str(),
            TraceError.c_str());
  F.OriginalInstructions = R.OriginalInstructions;
  F.ReducedInstructions = R.ReducedInstructions;
  F.Reduced = R.Reduced;
  Header.push_back("reduced:  " + std::to_string(R.ReducedInstructions) +
                   " of " + std::to_string(R.OriginalInstructions) +
                   " instructions (" + std::to_string(R.OracleQueries) +
                   " oracle queries, " + std::to_string(R.Rounds) +
                   " rounds)");
  writeArtifact(Base + "_reduced.ir", Header, *R.Mod);

  // Lint the reduced reproducer and drop the machine-readable report next
  // to it: a finding caused by IR corruption (rather than a miscompiled
  // transform) shows up here as structural rule hits, which triages the
  // artifact before anyone reads the IR.
  LintReport Lint = Linter::standard(R.Mod.get()).lintModule(*R.Mod);
  std::string LintPath = Base + "_lint.json";
  if (FILE *LintFile = fopen(LintPath.c_str(), "wb")) {
    fprintf(LintFile, "%s\n", Lint.renderJSON().c_str());
    fclose(LintFile);
  } else {
    fprintf(stderr, "fuzzdiff: cannot write '%s'\n", LintPath.c_str());
  }
  if (!O.Common.Quiet)
    printf("fuzzdiff: FINDING seed=%llu @%s [%s]: %s — reduced %u -> %u "
           "instructions (%s.ir, %s_reduced.ir)\n",
           static_cast<unsigned long long>(F.Seed), F.FunctionName.c_str(),
           runConfigName(F.Config), F.Detail.c_str(),
           F.OriginalInstructions, F.ReducedInstructions, Base.c_str(),
           Base.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.Common.Count = 50;
  DriverOptionsParser P(
      O.Common,
      {DriverFlag::Seed, DriverFlag::Count, DriverFlag::Functions,
       DriverFlag::Segments, DriverFlag::FailFast, DriverFlag::Quiet,
       DriverFlag::Trace, DriverFlag::Jobs, DriverFlag::SimAudit,
       DriverFlag::CompileCache, DriverFlag::CacheDir});
  for (int I = 1; I != Argc; ++I) {
    switch (P.parse(Argv[I])) {
    case ParseStatus::Handled:
      continue;
    case ParseStatus::Help:
      printf("usage: %s %s %s\noptions:\n%s", Argv[0], SpecificUsage,
             P.usage().c_str(), P.helpText().c_str());
      return 0;
    case ParseStatus::Error:
      fprintf(stderr, "fuzzdiff: %s\n", P.error().c_str());
      return 2;
    case ParseStatus::Unrecognized:
      break;
    }
    if (strncmp(Argv[I], "--max-seconds=", 14) == 0)
      O.MaxSeconds = atof(Argv[I] + 14);
    else if (strncmp(Argv[I], "--out-dir=", 10) == 0)
      O.OutDir = Argv[I] + 10;
    else if (strncmp(Argv[I], "--inject=", 9) == 0)
      O.InjectSeed = strtoull(Argv[I] + 9, nullptr, 10);
    else if (strcmp(Argv[I], "--sabotage") == 0)
      O.Sabotage = true;
    else
      return usage(Argv[0], P);
  }

  // POSIX mkdir; an existing directory is fine.
  if (mkdir(O.OutDir.c_str(), 0755) != 0 && errno != EEXIST) {
    fprintf(stderr, "fuzzdiff: cannot create out dir '%s'\n",
            O.OutDir.c_str());
    return 2;
  }

  TraceSession RunTrace;
  std::optional<ScopedTraceAttach> RunAttach;
  if (!O.Common.TracePath.empty())
    RunAttach.emplace(RunTrace);

  DiagnosticEngine Diags;
  FaultInjector Injector(O.InjectSeed, /*Rate=*/0.25);
  FaultInjector *InjectorPtr = O.InjectSeed != 0 ? &Injector : nullptr;

  const auto Start = std::chrono::steady_clock::now();
  auto elapsedSeconds = [&Start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  // One seed = one task. Tasks buffer everything order-sensitive —
  // findings, diagnostics, fault-injection counts, and the reference
  // workload a finding needs for reduction — and the join below replays
  // them in seed order, so the artifacts and the summary are identical at
  // every --jobs level.
  struct PendingFinding {
    Finding F;
    unsigned FnIdx = 0;
  };
  struct SeedOutcome {
    bool Ran = false;
    bool TimedOut = false; ///< Skipped because --max-seconds ran out.
    DiagnosticEngine Diags;
    FaultInjector Injector{0}; ///< Valid only when HasInjector.
    bool HasInjector = false;
    std::optional<GeneratedWorkload> Ref; ///< Kept only when findings exist.
    std::vector<PendingFinding> Findings;
    SimAuditCounts Audit; ///< Aggregated --simaudit verdicts for this seed.
    /// Clean compiles buffered for the cache; inserted at the seed-order
    /// join (tasks only probe during the parallel phase).
    std::vector<std::pair<CompileCacheKey, CompileCacheEntry>> PendingStores;
  };
  std::vector<SeedOutcome> Outcomes(O.Common.Count);
  std::optional<CompileCache> Cache;
  if (O.Common.UseCompileCache)
    Cache.emplace(O.Common.CacheDir);
  CompileCache *CachePtr = Cache ? &*Cache : nullptr;

  // Knob-conflict gate: most prominently --inject + --compile-cache,
  // which this driver used to reconcile silently by dropping the cache.
  {
    RunnerOptions Check = O.Common.toRunnerOptions();
    Check.Injector = InjectorPtr;
    Check.Cache = CachePtr;
    if (reportInvalidRunnerOptions(Check, "fuzzdiff"))
      return 2;
  }
  std::atomic<bool> SabotageFound{false};
  const RunConfig Configs[] = {RunConfig::Baseline, RunConfig::DBDS,
                               RunConfig::DupALot};

  CompileService Service(O.Common.Jobs);
  Service.forEachIndex(O.Common.Count, [&](size_t N, unsigned /*Worker*/) {
    if (O.MaxSeconds > 0.0 && elapsedSeconds() >= O.MaxSeconds) {
      Outcomes[N].TimedOut = true;
      return;
    }
    // The self-test only needs to prove one divergence is caught and
    // reduced; every further one costs a full reduction run.
    if (O.Sabotage && SabotageFound.load(std::memory_order_acquire))
      return;
    SeedOutcome &Out = Outcomes[N];
    Out.Ran = true;
    uint64_t Seed = O.Common.Seed + N;
    GeneratorConfig GC = makeGeneratorConfig(Seed, O);

    // The seed's fault stream derives from (inject seed, N) — identical
    // regardless of which worker runs it, in which order.
    FaultInjector *TaskInjector = nullptr;
    if (InjectorPtr) {
      Out.Injector = InjectorPtr->forTask(N);
      Out.HasInjector = true;
      TaskInjector = &Out.Injector;
    }

    // The reference stays untouched; each configuration optimizes its own
    // identically-generated copy (the module is deterministic in the seed).
    GeneratedWorkload Ref = generateWorkload(GC);
    Interpreter RefInterp(*Ref.Mod);

    for (RunConfig Config : Configs) {
      GeneratedWorkload Opt = generateWorkload(GC);
      Interpreter OptInterp(*Opt.Mod);
      auto RefFns = Ref.Mod->functions();
      auto OptFns = Opt.Mod->functions();
      for (unsigned FIdx = 0; FIdx != OptFns.size(); ++FIdx) {
        Function &OF = *OptFns[FIdx];
        // Sabotage deliberately corrupts post-DBDS IR, so auditing the
        // recorded decisions against it would measure the corruption,
        // not the simulator.
        bool WantAudit =
            O.Common.SimAudit && Config != RunConfig::Baseline && !O.Sabotage;
        DecisionLog Decisions;
        compileFunction(OF, Opt.Mod.get(), Config, Opt.TrainInputs[FIdx], O,
                        &Out.Diags, TaskInjector,
                        WantAudit ? &Decisions : nullptr, CachePtr,
                        &Out.PendingStores);
        if (WantAudit)
          Out.Audit.accumulate(auditSimulation(OF, Decisions));
        for (const auto &Args : Ref.EvalInputs[FIdx]) {
          RefInterp.reset();
          ExecutionResult RA =
              RefInterp.run(*RefFns[FIdx], ArrayRef<int64_t>(Args), RunFuel);
          OptInterp.reset();
          ExecutionResult RB = OptInterp.run(OF, ArrayRef<int64_t>(Args),
                                             RunFuel);
          if (sameObservable(RA, RB))
            continue;
          Finding F;
          F.Seed = Seed;
          F.FunctionName = OF.getName();
          F.Config = Config;
          F.Detail = "expected " + describeRun(RA) + ", got " +
                     describeRun(RB);
          Out.Findings.push_back({std::move(F), FIdx});
          if (O.Common.FailFast) {
            // Debug mode: write the artifact before dying so there is
            // something to look at.
            reportFinding(Out.Findings.back().F, Ref, FIdx, O);
            abort();
          }
          break; // one finding per function/config is enough
        }
        if (O.Sabotage && !Out.Findings.empty())
          break;
      }
      if (O.Sabotage && !Out.Findings.empty())
        break;
    }
    if (!Out.Findings.empty()) {
      if (O.Sabotage)
        SabotageFound.store(true, std::memory_order_release);
      Out.Ref.emplace(std::move(Ref));
    }
  });

  // Deterministic join in seed order: merge diagnostics and injection
  // counts, then run the expensive reduction + artifact pipeline serially
  // (reduction retraces via the process-wide session; it must not race).
  std::vector<Finding> Findings;
  SimAuditCounts Audit;
  unsigned SeedsRun = 0, SeedsTimedOut = 0;
  for (unsigned N = 0; N != O.Common.Count; ++N) {
    SeedOutcome &Out = Outcomes[N];
    if (Out.Ran)
      ++SeedsRun;
    if (Out.TimedOut)
      ++SeedsTimedOut;
    Audit.accumulate(Out.Audit);
    Diags.mergeFrom(Out.Diags);
    if (InjectorPtr && Out.HasInjector)
      InjectorPtr->absorbCounts(Out.Injector);
    if (CachePtr)
      for (auto &P : Out.PendingStores)
        CachePtr->insert(P.first, std::move(P.second));
    for (PendingFinding &PF : Out.Findings) {
      if (O.Sabotage && !Findings.empty())
        break; // one proven catch is enough
      reportFinding(PF.F, *Out.Ref, PF.FnIdx, O);
      Findings.push_back(std::move(PF.F));
    }
  }

  if (!O.Common.Quiet) {
    std::string InjectNote;
    if (InjectorPtr)
      InjectNote = ", " + std::to_string(Injector.faultsInjected()) +
                   " fault(s) injected at " +
                   std::to_string(Injector.sitesVisited()) + " site(s)";
    printf("fuzzdiff: %u seed(s), %zu finding(s), %.1fs%s\n", SeedsRun,
           Findings.size(), elapsedSeconds(), InjectNote.c_str());
    if (Audit.Ran)
      printf("fuzzdiff: simaudit: %llu decision(s): %llu confirmed, "
             "%llu overclaimed, %llu underclaimed, %llu skipped — "
             "precision %.3f, recall %.3f\n",
             static_cast<unsigned long long>(Audit.classified() + Audit.Skipped),
             static_cast<unsigned long long>(Audit.Confirmed),
             static_cast<unsigned long long>(Audit.Overclaimed),
             static_cast<unsigned long long>(Audit.Underclaimed),
             static_cast<unsigned long long>(Audit.Skipped), Audit.precision(),
             Audit.recall());
    if (!Diags.empty())
      printf("%s", Diags.render().c_str());
  }

  if (!O.Common.TracePath.empty()) {
    RunAttach.reset();
    std::string TraceError;
    if (!RunTrace.writeJson(O.Common.TracePath, &TraceError)) {
      fprintf(stderr, "fuzzdiff: --trace: %s\n", TraceError.c_str());
      return 2;
    }
    if (!O.Common.Quiet)
      printf("fuzzdiff: trace written to %s (%zu events)\n",
             O.Common.TracePath.c_str(), RunTrace.eventCount());
  }

  if (SeedsTimedOut != 0) {
    fprintf(stderr,
            "fuzzdiff: --max-seconds=%g ran out: %u of %u seed(s) skipped\n",
            O.MaxSeconds, SeedsTimedOut, O.Common.Count);
    return 1;
  }

  // Self-test mode must find something; normal mode must not.
  bool Expected = (Findings.empty() == !O.Sabotage);
  return Expected ? 0 : 1;
}
