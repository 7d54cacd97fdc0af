//===- workloads/CompileService.cpp - Parallel compile service -------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/CompileService.h"

#include "analysis/SimAudit.h"
#include "dbds/DBDSPhase.h"
#include "opts/Phase.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/Timer.h"
#include "telemetry/Counters.h"
#include "telemetry/DecisionLog.h"
#include "telemetry/Json.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"
#include "vm/Interpreter.h"
#include "workloads/CompileCache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace dbds;

// Note: deliberately no counter distinguishing parallel from serial batches —
// every telemetry counter must total identically at --jobs=1 and --jobs=N
// (the determinism contract), so nothing scheduling-dependent may be counted.
DBDS_COUNTER(compile_service, functions_compiled);

// Per-function distributions, recorded inside the task (so they land in
// the task's MetricsShard and publish at the index-ordered join). The
// growth/size histograms describe the IR itself and are deterministic;
// compile_ns and peak_rss_bytes are wall-clock/allocator state and are
// Timing-class (DESIGN.md §12).
DBDS_HISTOGRAM(compile_service, ir_growth_pct, Percent, Deterministic);
DBDS_HISTOGRAM(compile_service, ir_bytes, Bytes, Deterministic);
DBDS_HISTOGRAM(compile_service, compile_ns, Nanoseconds, Timing);
DBDS_HISTOGRAM(compile_service, peak_rss_bytes, Bytes, Timing);
DBDS_HISTOGRAM(compile_service, cache_probe_ns, Nanoseconds, Timing);

uint64_t dbds::resultHashCombine(uint64_t Hash, uint64_t Value) {
  Hash ^= Value + 0x9e3779b97f4a7c15ULL + (Hash << 6) + (Hash >> 2);
  return Hash * 0xbf58476d1ce4e5b9ULL;
}

unsigned CompileService::resolveJobs(unsigned Requested) {
  if (Requested == 0)
    return ThreadPool::defaultWorkerCount();
  return Requested;
}

CompileService::CompileService(unsigned RequestedJobs)
    : Jobs(resolveJobs(RequestedJobs)) {
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);
}

CompileService::~CompileService() = default;

void CompileService::forEachIndex(
    size_t NumTasks, std::function<void(size_t Index, unsigned Worker)> Task) {
  if (!Pool) {
    for (size_t Index = 0; Index != NumTasks; ++Index)
      Task(Index, 0);
    return;
  }
  Pool->runIndexed(NumTasks, std::move(Task));
}

namespace {

/// Sentinel hashed in place of a result when a run does not terminate, so
/// configurations that fail identically still agree and a configuration
/// that *newly* fails shows up as a hash divergence. (Mirrors the runner's
/// historical value.)
constexpr uint64_t NonTerminationSentinel = 0x6e6f2d7465726d21ULL;

/// One task's local state: everything order-sensitive the task produces
/// lands here, never in the shared RunnerOptions sinks, until the
/// index-ordered join folds it in.
struct TaskState {
  DecisionLog Decisions;
  DiagnosticEngine Diags;
  FaultInjector Injector{0}; ///< Valid only when HasInjector.
  bool HasInjector = false;
  /// Telemetry taken from the task's shards at task end; published at the
  /// serial join in function index order, one batch per task, so workers
  /// never touch the shared registries at all (DESIGN.md §9/§12).
  std::vector<std::pair<TelemetryCounter *, uint64_t>> CounterBatch;
  MetricsShard::Buffer MetricsBatch;
  /// Compile-cache outcome: CacheHit marks a replayed task (whose memoized
  /// fault-site count is ReplayedFaultSites); HasStore marks a clean cold
  /// compile whose memoized entry (Store/StoreKey) the serial join inserts
  /// — tasks never mutate the cache while the batch runs.
  bool CacheHit = false;
  unsigned ReplayedFaultSites = 0;
  bool HasStore = false;
  CompileCacheKey StoreKey;
  CompileCacheEntry Store;
};

void bufferDiagnostic(FunctionCompileOutcome &Out, TaskState &T,
                      bool WantDiags, DiagKind Kind, const std::string &Fn,
                      const std::string &Msg) {
  Out.LogLines.push_back(Msg);
  if (WantDiags)
    T.Diags.report(Kind, "runner", Fn, Msg);
}

} // namespace

CompileBatch dbds::compileFunctionsParallel(CompileService &Service,
                                            GeneratedWorkload &W,
                                            RunConfig Config,
                                            const RunnerOptions &Opts,
                                            const std::string &BenchName) {
  auto Functions = W.Mod->functions();
  const size_t N = Functions.size();
  const bool WantDiags = Opts.Diags != nullptr;

  CompileBatch Batch;
  Batch.Outcomes.resize(N);
  std::vector<TaskState> State(N);

  Service.forEachIndex(N, [&](size_t FIdx, unsigned /*Worker*/) {
    Function &F = *Functions[FIdx];
    TaskState &T = State[FIdx];
    FunctionCompileOutcome &Out = Batch.Outcomes[FIdx];

    // Per-worker telemetry shards: this task's counter increments and
    // histogram records buffer thread-locally; the task takes both buffers
    // at its end and the serial join publishes them in function index
    // order, one batch per task. Totals are identical to unsharded
    // counting; what the shards buy is a contention-free hot path, a
    // correct per-task view for the phase auditor, and index-ordered
    // publication for the metrics determinism contract.
    CounterShard Shard;
    MetricsShard MShard;

    // Per-task fault stream, derived from (seed, function index) so it is
    // independent of worker assignment and completion order.
    FaultInjector *Injector = nullptr;
    if (Opts.Injector) {
      T.Injector = Opts.Injector->forTask(FIdx);
      T.HasInjector = true;
      Injector = &T.Injector;
    }

    TraceSession *TS = TraceSession::active();
    const bool Metered = MetricsRegistry::enabled();

    // Compile cache: key the task by the canonical pristine-IR printing
    // (F is pre-profile here), the run inputs, and a fingerprint of every
    // outcome-affecting knob. A replayable hit short-circuits the whole
    // task; any failure along the way falls through to the cold path.
    CompileCacheKey CacheKey{};
    const bool UseCache = Opts.Cache != nullptr;
    if (UseCache) {
      CompileCacheFingerprint FP;
      FP.Tool = "runner";
      FP.Config = static_cast<unsigned>(Config);
      FP.Verify = Opts.Verify;
      FP.FailFast = Opts.FailFast;
      FP.CompileBudgetMs = Opts.CompileBudgetMs;
      FP.SimAudit = Opts.SimAudit;
      FP.WantDiags = WantDiags;
      FP.WantDecisions = Opts.Decisions != nullptr || Opts.SimAudit;
      FP.MetricsEnabled = Metered;
      if (Injector) {
        FP.HasInjector = true;
        FP.InjectorBaseSeed = Opts.Injector->seed();
        FP.InjectorRate = Opts.Injector->rate();
        FP.TaskFaultSeed = T.Injector.seed();
      }
      CacheKey = computeCompileCacheKey(printCacheableUnit(W.Mod.get(), &F),
                                        W.TrainInputs[FIdx],
                                        W.EvalInputs[FIdx], FP);

      Timer ProbeTimer;
      std::shared_ptr<const CompileCacheEntry> Entry;
      {
        TimerScope PScope(ProbeTimer);
        Entry = Opts.Cache->probe(CacheKey);
      }
      if (Metered)
        cache_probe_ns.record(ProbeTimer.totalNs());
      PreparedReplay Replay;
      if (Entry && prepareReplay(*Entry, Replay)) {
        // Hit: replay the memoized compile. Counter deltas route through
        // this task's shard and the histogram states ride the metrics
        // batch, so the join publishes them exactly like a cold task's.
        CompileCache::countHit();
        F.restoreFrom(*Replay.Fn);
        Out.CompileTimeMs = ProbeTimer.totalMs();
        Out.CodeSize = Entry->CodeSize;
        Out.Duplications = Entry->Duplications;
        Out.Degradation = Entry->Degradation;
        Out.DynamicCycles = Entry->DynamicCycles;
        Out.ResultHash = Entry->ResultHash;
        Out.Audit = Entry->Audit;
        for (const DuplicationDecision &D : Entry->Decisions)
          T.Decisions.append(D);
        for (const auto &[Counter, Value] : Replay.Counters)
          Counter->bump(Value);
        if (T.HasInjector)
          T.ReplayedFaultSites = Entry->FaultSites;
        T.CacheHit = true;
        T.MetricsBatch = MShard.take();
        for (const auto &P : Replay.Histograms)
          T.MetricsBatch.push_back(P);
        T.CounterBatch = Shard.take();
        return;
      }
      CompileCache::countMiss();
    }
    ++functions_compiled;

    // Profile on training inputs (the JIT's interpreter tier). Each task
    // owns its interpreter; the heap is task-private, the module is only
    // read.
    Interpreter Interp(*W.Mod);
    // Peak performance is measured with instruction-cache pressure: code
    // growth beyond ~192 size units per unit costs extra cycles per block
    // transition (DESIGN.md §2; this is what lets unbounded duplication
    // regress, as the paper observes for octane raytrace).
    Interp.enableCodeSizePenalty(/*Threshold=*/192, /*Step=*/160,
                                 /*Cap=*/1u << 20);
    constexpr uint64_t RunFuel = 1u << 24;

    ProfileSummary Profile;
    {
      TraceSpan TrainSpan(TS, "train", "runner",
                          TS ? "\"function\":" + jsonString(F.getName())
                             : std::string());
      for (const auto &Args : W.TrainInputs[FIdx]) {
        Interp.reset();
        ExecutionResult R =
            Interp.run(F, ArrayRef<int64_t>(Args), RunFuel, &Profile);
        if (!R.Ok) {
          if (Opts.FailFast) {
            fprintf(stderr, "training run did not terminate on %s/%s\n",
                    BenchName.c_str(), F.getName().c_str());
            abort();
          }
          ++Out.RunFailures;
          bufferDiagnostic(Out, T, WantDiags, DiagKind::Warning, F.getName(),
                           "training run did not terminate on " + BenchName);
          break; // Profile what we have; the compile still proceeds.
        }
      }
    }
    applyProfile(F, Profile);

    // Pre-compile IR size, the baseline for the duplication growth
    // histogram. Counting walks the IR, so it stays behind the metrics
    // gate (the detached cost of this site is the one relaxed load).
    const uint64_t InstrsBefore = Metered ? F.instructionCount() : 0;

    // Compile (timed) under a per-function budget. The budget degrades the
    // pipeline stepwise instead of letting one function hang the harness.
    CompileBudget Budget(Opts.CompileBudgetMs);
    Budget.arm();
    Timer CompileTimer;
    {
      TraceSpan CompileSpan(TS, "compile", "runner",
                            TS ? "\"function\":" + jsonString(F.getName())
                               : std::string());
      TimerScope Scope(CompileTimer);
      PhaseManager Pipeline =
          PhaseManager::standardPipeline(Opts.Verify, W.Mod.get());
      Pipeline.setFailFast(Opts.FailFast);
      Pipeline.setDiagnostics(WantDiags ? &T.Diags : nullptr);
      Pipeline.setFaultInjector(Injector);
      Pipeline.setBudget(&Budget);
      Pipeline.run(F);
      Out.Rollbacks += Pipeline.rollbackCount();
      if (Config != RunConfig::Baseline) {
        DBDSConfig DC;
        DC.UseTradeoff = Config == RunConfig::DBDS;
        DC.ClassTable = W.Mod.get();
        DC.Verify = Opts.Verify;
        DC.FailFast = Opts.FailFast;
        DC.Diags = WantDiags ? &T.Diags : nullptr;
        DC.Injector = Injector;
        DC.Budget = &Budget;
        // SimAudit needs the decision slice even when no shared sink is
        // installed; without it the legacy condition is unchanged.
        DC.Decisions =
            Opts.Decisions || Opts.SimAudit ? &T.Decisions : nullptr;
        DBDSResult R = runDBDS(F, DC);
        Out.Duplications += R.DuplicationsPerformed;
        Out.Rollbacks += R.RollbacksPerformed;
      }
    }
    Out.CompileTimeMs = CompileTimer.totalMs();
    Out.CodeSize = F.estimatedCodeSize();

    // Per-function IR growth across the whole middle end (pipeline +
    // duplication), clamped at zero: the histogram measures duplication-
    // driven *growth*; a net shrink (DCE-dominated functions) records 0.
    if (Metered) {
      const uint64_t InstrsAfter = F.instructionCount();
      const uint64_t Growth =
          InstrsAfter > InstrsBefore ? InstrsAfter - InstrsBefore : 0;
      ir_growth_pct.record(InstrsBefore == 0 ? 0 : Growth * 100 / InstrsBefore);
      // Live IR node memory, estimated from node counts (a floor: derived
      // instruction classes and container slack are not counted).
      ir_bytes.record(InstrsAfter * sizeof(Instruction) +
                      F.blocks().size() * sizeof(Block));
      compile_ns.record(CompileTimer.totalNs());
    }
    // Simulation audit: replay this task's decision slice against
    // dataflow-proven facts on the IR that actually shipped. Runs outside
    // the compile timer (it measures the simulator, it is not part of
    // compilation) but inside the task — the verdicts land in the
    // task-local log before the index-ordered merge, so --jobs=N streams
    // stay byte-identical (DESIGN.md §9).
    if (Opts.SimAudit && Config != RunConfig::Baseline)
      Out.Audit = auditSimulation(F, T.Decisions);
    Out.Degradation = Budget.level();

    // Peak performance: dynamic cost-model cycles on evaluation inputs.
    {
      TraceSpan EvalSpan(TS, "eval", "runner",
                         TS ? "\"function\":" + jsonString(F.getName())
                            : std::string());
      for (const auto &Args : W.EvalInputs[FIdx]) {
        Interp.reset();
        ExecutionResult R = Interp.run(F, ArrayRef<int64_t>(Args), RunFuel);
        if (!R.Ok) {
          if (Opts.FailFast) {
            fprintf(stderr, "evaluation run did not terminate on %s/%s\n",
                    BenchName.c_str(), F.getName().c_str());
            abort();
          }
          ++Out.RunFailures;
          bufferDiagnostic(Out, T, WantDiags, DiagKind::Error, F.getName(),
                           "evaluation run did not terminate on " + BenchName);
          Out.ResultHash =
              resultHashCombine(Out.ResultHash, NonTerminationSentinel);
          continue;
        }
        Out.DynamicCycles += R.DynamicCycles;
        Out.ResultHash = resultHashCombine(
            Out.ResultHash,
            R.HasResult && !R.Result.IsObject
                ? static_cast<uint64_t>(R.Result.Scalar)
                : 0);
      }
    }

    // Task boundary: sample process memory accounting, then take both
    // shard buffers. Nothing publishes here — the join below publishes
    // every task's batches in function index order.
    if (Metered)
      peak_rss_bytes.record(currentPeakRssBytes());
    T.MetricsBatch = MShard.take();
    T.CounterBatch = Shard.take();

    // Storage eligibility: only *clean* compiles are memoized — no
    // rollbacks (a quarantined phase always counts one), run failures,
    // budget expiry, diagnostics, log lines, or injected faults. Anything
    // else is either timing-driven (must recompile) or carries
    // benchmark-labelled text that would replay wrongly across benchmarks
    // sharing IR.
    if (UseCache && Out.Rollbacks == 0 && Out.RunFailures == 0 &&
        Out.Degradation == DegradationLevel::None && Out.LogLines.empty() &&
        T.Diags.empty() &&
        (!T.HasInjector || T.Injector.faultsInjected() == 0)) {
      T.HasStore = true;
      T.StoreKey = CacheKey;
      CompileCacheEntry &E = T.Store;
      E.CodeSize = Out.CodeSize;
      E.Duplications = Out.Duplications;
      E.Degradation = Out.Degradation;
      E.DynamicCycles = Out.DynamicCycles;
      E.ResultHash = Out.ResultHash;
      E.FaultSites = T.HasInjector ? T.Injector.sitesVisited() : 0;
      E.Audit = Out.Audit;
      E.Decisions = T.Decisions.decisions();
      // Counter deltas by qualified name, sorted, minus the cache.*
      // component (hit/miss accounting is the one warm-vs-cold counter
      // divergence and must not replay).
      for (const auto &[Counter, Value] : T.CounterBatch) {
        std::string Name = Counter->qualifiedName();
        if (Name.compare(0, 6, "cache.") == 0)
          continue;
        E.Counters.push_back({std::move(Name), Value});
      }
      std::sort(E.Counters.begin(), E.Counters.end(),
                [](const CounterSample &X, const CounterSample &Y) {
                  return X.Name < Y.Name;
                });
      // Deterministic-class histogram records only; Timing-class values
      // are wall-clock and never replayed.
      for (const auto &[Hist, H] : T.MetricsBatch) {
        if (Hist->metricClass() != MetricClass::Deterministic)
          continue;
        CompileCacheEntry::HistogramState HS;
        HS.Component = Hist->component();
        HS.Name = Hist->name();
        HS.Unit = Hist->unit();
        HS.Class = Hist->metricClass();
        HS.H = H;
        E.Histograms.push_back(std::move(HS));
      }
      std::sort(E.Histograms.begin(), E.Histograms.end(),
                [](const CompileCacheEntry::HistogramState &X,
                   const CompileCacheEntry::HistogramState &Y) {
                  return std::make_pair(X.Component, X.Name) <
                         std::make_pair(Y.Component, Y.Name);
                });
      E.OptimizedIR = printCacheableUnit(W.Mod.get(), &F);
    }
  });

  // Deterministic join: fold every order-sensitive stream back into the
  // shared sinks in function index order, regardless of completion order.
  for (size_t FIdx = 0; FIdx != N; ++FIdx) {
    TaskState &T = State[FIdx];
    for (const std::string &Line : Batch.Outcomes[FIdx].LogLines)
      fprintf(stderr, "%s/%s: %s\n", BenchName.c_str(),
              Functions[FIdx]->getName().c_str(), Line.c_str());

    // One registry update per task: the batched flush, and the
    // index-ordered publication the metrics determinism contract requires.
    CounterRegistry::publishBatch(T.CounterBatch);
    MetricsShard::publish(T.MetricsBatch);
    if (Opts.Decisions)
      Opts.Decisions->merge(std::move(T.Decisions));
    if (Opts.Diags)
      Opts.Diags->mergeFrom(T.Diags);
    if (Opts.Injector && T.HasInjector) {
      // A replayed task never ran its derived injector; fold in the
      // memoized site count instead so summary lines match cold runs.
      if (T.CacheHit)
        Opts.Injector->absorbCounts(T.ReplayedFaultSites, 0);
      else
        Opts.Injector->absorbCounts(T.Injector);
    }
    // Cache inserts happen here — serially, in function index order —
    // never while tasks run, so probe results and eviction order are
    // identical at every --jobs level.
    if (Opts.Cache && T.HasStore)
      Opts.Cache->insert(T.StoreKey, std::move(T.Store));
  }
  return Batch;
}
