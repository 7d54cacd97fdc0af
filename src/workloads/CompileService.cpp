//===- workloads/CompileService.cpp - Parallel compile service -------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/CompileService.h"

#include "analysis/SimAudit.h"
#include "dbds/DBDSPhase.h"
#include "opts/Phase.h"
#include "support/Cancellation.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/Timer.h"
#include "telemetry/Counters.h"
#include "telemetry/DecisionLog.h"
#include "telemetry/Json.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"
#include "tooling/CrashBundle.h"
#include "vm/Interpreter.h"
#include "workloads/CompileCache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

using namespace dbds;

// Note: deliberately no counter distinguishing parallel from serial batches —
// every telemetry counter must total identically at --jobs=1 and --jobs=N
// (the determinism contract), so nothing scheduling-dependent may be counted.
// The supervision counters below are incremented only in the serial
// between-wave folds, where retry and breaker decisions are themselves
// schedule-independent.
DBDS_COUNTER(compile_service, functions_compiled);
DBDS_COUNTER(compile_service, tasks_retried);
DBDS_COUNTER(compile_service, tasks_exhausted);
DBDS_COUNTER(compile_service, breaker_trips);
DBDS_COUNTER(compile_service, breaker_reenables);
DBDS_COUNTER(compile_service, crash_bundles_written);

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

/// One ladder attempt's task-local state: everything order-sensitive the
/// attempt produces lands here, never in the shared RunnerOptions sinks,
/// and the attempt's scalar results wait here until the join picks the
/// final attempt's.
struct AttemptState {
  CompileAttempt Info;
  FunctionCompileOutcome Partial;
  DecisionLog Decisions;
  DiagnosticEngine Diags;
  FaultInjector Injector{0}; ///< Valid only when HasInjector.
  bool HasInjector = false;
  /// Phase names this attempt's pipeline quarantined (breaker feed).
  std::vector<std::string> QuarantineEvents;
  /// Telemetry taken from the task's shards at task end; published at the
  /// serial join in function index order, one batch per task, so workers
  /// never touch the shared registries at all (DESIGN.md §9/§12).
  std::vector<std::pair<TelemetryCounter *, uint64_t>> CounterBatch;
  MetricsShard::Buffer MetricsBatch;
  /// Compile-cache outcome: CacheHit marks a replayed attempt; HasStore
  /// marks a clean cold compile whose memoized entry (Store/StoreKey) the
  /// serial join inserts — tasks never mutate the cache during a wave.
  bool CacheHit = false;
  bool HasStore = false;
  CompileCacheKey StoreKey;
  CompileCacheEntry Store;
};

/// Per-function supervision state across the retry ladder.
struct TaskState {
  /// Pre-profiling IR snapshot; retries restore it, crash bundles embed
  /// it. Taken only when supervision needs it.
  std::unique_ptr<Function> Pristine;
  std::vector<std::unique_ptr<AttemptState>> Attempts;
};

void bufferDiagnostic(FunctionCompileOutcome &Out, AttemptState &A,
                      bool WantDiags, DiagKind Kind, const std::string &Fn,
                      const std::string &Msg) {
  Out.LogLines.push_back(Msg);
  if (WantDiags)
    A.Diags.report(Kind, "runner", Fn, Msg);
}

std::string describeAttempt(const CompileAttempt &Info,
                            const CancellationToken &Token) {
  if (!Info.Failed)
    return "ok";
  std::string Reason;
  auto Add = [&Reason](const std::string &Piece) {
    if (!Reason.empty())
      Reason += "; ";
    Reason += Piece;
  };
  if (Info.Cancelled)
    Add(std::string("cancelled (") + cancelReasonName(Token.reason()) + ")");
  if (Info.BudgetTripped)
    Add("compile budget expired");
  if (Info.Rollbacks != 0)
    Add(std::to_string(Info.Rollbacks) + " rollback(s)");
  if (Info.RunFailures != 0)
    Add(std::to_string(Info.RunFailures) + " run failure(s)");
  return Reason;
}

} // namespace

CompileBatch dbds::compileFunctionsParallel(CompileService &Service,
                                            GeneratedWorkload &W,
                                            RunConfig Config,
                                            const RunnerOptions &Opts,
                                            const std::string &BenchName) {
  auto Functions = W.Mod->functions();
  const size_t N = Functions.size();
  const unsigned MaxAttempts =
      std::min(std::max(Opts.MaxAttempts, 1u), 3u);
  // Supervision is opt-in: without any of its knobs the service runs the
  // exact pre-supervision task body (single attempt, no token, no extra
  // fault sites), keeping legacy fault streams and outputs bit-identical.
  const bool Supervised = MaxAttempts > 1 || Opts.TaskDeadlineMs > 0.0 ||
                          Opts.Cancel != nullptr ||
                          Opts.BreakerThreshold != 0 ||
                          !Opts.CrashBundleDir.empty() ||
                          Opts.AuditLinter != nullptr;
  const bool NeedPristine =
      MaxAttempts > 1 || !Opts.CrashBundleDir.empty();

  CompileBatch Batch;
  Batch.Outcomes.resize(N);
  std::vector<TaskState> State(N);

  // Breaker state: mutated only in the serial between-wave folds; workers
  // read Disabled concurrently during a wave (the set is stable then).
  std::unordered_set<std::string> Disabled;
  std::unordered_map<std::string, unsigned> CorruptionCounts;
  const std::unordered_set<std::string> *DisabledView =
      Opts.BreakerThreshold != 0 ? &Disabled : nullptr;
  // Half-open state (BreakerHalfOpenAfter != 0): tripped phases in trip
  // order — iterated instead of the unordered Disabled set so re-enable
  // order, and with it the BreakerTrips stream, is deterministic — plus
  // each phase's consecutive-clean-attempt streak.
  std::vector<std::string> TrippedOrder;
  std::unordered_map<std::string, unsigned> CleanStreaks;

  auto RunAttempt = [&](size_t FIdx, unsigned AttemptNo) {
    Function &F = *Functions[FIdx];
    TaskState &T = State[FIdx];
    AttemptState &A = *T.Attempts.back();
    FunctionCompileOutcome &Out = A.Partial;
    A.Info.Attempt = AttemptNo;
    // The degradation ladder: attempt a runs with DBDS already shed at
    // a >= 1 and fixpoint iteration shed at a >= 2.
    const DegradationLevel Forced =
        static_cast<DegradationLevel>(std::min(AttemptNo, 2u));
    A.Info.Forced = Forced;

    // Per-worker telemetry shards: this task's counter increments and
    // histogram records buffer thread-locally; the task takes both buffers
    // at its end and the serial join publishes them in function index
    // order, one batch per task. Totals are identical to unsharded
    // counting; what the shards buy is a contention-free hot path, a
    // correct per-task view for the phase auditor, and index-ordered
    // publication for the metrics determinism contract.
    CounterShard Shard;
    MetricsShard MShard;

    // Per-attempt fault stream, derived from (seed, function index,
    // attempt) so it is independent of worker assignment and completion
    // order, and fresh on every rung of the ladder.
    FaultInjector *Injector = nullptr;
    if (Opts.Injector) {
      A.Injector = Opts.Injector->forTask(FIdx, AttemptNo);
      A.HasInjector = true;
      Injector = &A.Injector;
      A.Info.FaultSeed = A.Injector.seed();
    }

    // The attempt's cooperative stop signal: chained to the batch token,
    // armed with the per-attempt deadline. Null in unsupervised runs so
    // the legacy hot paths stay checkpoint-free.
    CancellationToken TaskCancel(Opts.Cancel);
    TaskCancel.arm(Deadline::afterMs(Opts.TaskDeadlineMs));
    CancellationToken *Cancel = Supervised ? &TaskCancel : nullptr;

    if (NeedPristine && AttemptNo == 0)
      T.Pristine = F.clone();
    // A retry starts from the pristine pre-profiling IR: the failed
    // attempt may have left rolled-back-but-profiled state behind.
    if (AttemptNo != 0)
      F.restoreFrom(*T.Pristine);

    const bool WantDiags = Opts.Diags != nullptr || Supervised;
    TraceSession *TS = TraceSession::active();
    const bool Metered = MetricsRegistry::enabled();

    // Compile cache: key the attempt by the canonical pristine-IR printing
    // (F is pre-profile here), the run inputs, and a fingerprint of every
    // outcome-affecting knob. A replayable hit short-circuits the whole
    // task; any failure along the way falls through to the cold path.
    CompileCacheKey CacheKey{};
    const bool UseCache = Opts.Cache != nullptr;
    if (UseCache) {
      CompileCacheFingerprint FP;
      // Supervision changes the fault-site sequence (interpreter-tier
      // gates) — a distinct compile procedure, so a distinct keyspace.
      FP.Tool = Supervised ? "runner-supervised" : "runner";
      FP.Config = static_cast<unsigned>(Config);
      FP.Verify = Opts.Verify;
      FP.FailFast = Opts.FailFast;
      FP.CompileBudgetMs = Opts.CompileBudgetMs;
      FP.PollInterval = Opts.PollInterval;
      FP.SimAudit = Opts.SimAudit;
      FP.WantDiags = WantDiags;
      FP.WantDecisions = Opts.Decisions != nullptr || Opts.SimAudit;
      FP.MetricsEnabled = Metered;
      FP.ForcedLevel = static_cast<unsigned>(Forced);
      if (DisabledView && !DisabledView->empty()) {
        FP.DisabledPhases.assign(DisabledView->begin(), DisabledView->end());
        std::sort(FP.DisabledPhases.begin(), FP.DisabledPhases.end());
      }
      if (Injector) {
        FP.HasInjector = true;
        FP.InjectorBaseSeed = Opts.Injector->seed();
        FP.InjectorRate = Opts.Injector->rate();
        FP.InjectorKindMask = Opts.Injector->kindMask();
        FP.TaskFaultSeed = A.Injector.seed();
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
          A.Decisions.append(D);
        for (const auto &[Counter, Value] : Replay.Counters)
          Counter->bump(Value);
        A.Info.Cancelled = false;
        A.Info.BudgetTripped = false;
        A.Info.Rollbacks = 0;
        A.Info.RunFailures = 0;
        A.Info.Reached = Out.Degradation;
        if (A.HasInjector) {
          A.Info.FaultSites = Entry->FaultSites;
          A.Info.FaultsInjected = 0;
        }
        A.Info.Failed = false;
        A.Info.Reason = "ok";
        A.CacheHit = true;
        A.MetricsBatch = MShard.take();
        for (const auto &P : Replay.Histograms)
          A.MetricsBatch.push_back(P);
        A.CounterBatch = Shard.take();
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
    Interp.setCancellation(Cancel);
    Interp.setPollInterval(Opts.PollInterval);

    // Interpreter-tier fault gates exist only under supervision: legacy
    // (unsupervised) streams must keep their historical site alignment.
    uint64_t TrainFuel = 1u << 24;
    if (Supervised && Injector) {
      switch (Injector->at("interp-train")) {
      case FaultKind::ResourceExhaustion:
        TrainFuel = 256; // starve the training runs of fuel
        break;
      case FaultKind::Hang:
        hangUntilCancelled(Cancel);
        break;
      default:
        break;
      }
    }

    ProfileSummary Profile;
    {
      TraceSpan TrainSpan(TS, "train", "runner",
                          TS ? "\"function\":" + jsonString(F.getName())
                             : std::string());
      for (const auto &Args : W.TrainInputs[FIdx]) {
        if (Cancel && Cancel->checkpoint())
          break;
        Interp.reset();
        ExecutionResult R =
            Interp.run(F, ArrayRef<int64_t>(Args), TrainFuel, &Profile);
        if (R.Interrupted)
          break; // cancelled mid-run: not a verdict about the program
        if (!R.Ok) {
          if (Opts.FailFast) {
            fprintf(stderr, "training run did not terminate on %s/%s\n",
                    BenchName.c_str(), F.getName().c_str());
            abort();
          }
          ++Out.RunFailures;
          bufferDiagnostic(Out, A, WantDiags, DiagKind::Warning, F.getName(),
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
      Pipeline.setDiagnostics(WantDiags ? &A.Diags : nullptr);
      Pipeline.setFaultInjector(Injector);
      Pipeline.setBudget(&Budget);
      Pipeline.setCancellation(Cancel);
      Pipeline.setDisabledPhases(DisabledView);
      if (Opts.AuditLinter)
        Pipeline.setAuditLinter(Opts.AuditLinter);
      Pipeline.run(F, Forced >= DegradationLevel::NoFixpoint ? 1u : 4u);
      Out.Rollbacks += Pipeline.rollbackCount();
      A.QuarantineEvents = Pipeline.quarantineEvents();
      if (Config != RunConfig::Baseline &&
          Forced == DegradationLevel::None) {
        DBDSConfig DC;
        DC.UseTradeoff = Config == RunConfig::DBDS;
        DC.ClassTable = W.Mod.get();
        DC.Verify = Opts.Verify;
        DC.FailFast = Opts.FailFast;
        DC.Diags = WantDiags ? &A.Diags : nullptr;
        DC.Injector = Injector;
        DC.Budget = &Budget;
        DC.Cancel = Cancel;
        DC.DisabledPhases = DisabledView;
        // SimAudit needs the decision slice even when no shared sink is
        // installed; without it the legacy condition is unchanged.
        DC.Decisions =
            Opts.Decisions || Opts.SimAudit ? &A.Decisions : nullptr;
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
    if (Opts.SimAudit && Config != RunConfig::Baseline &&
        Forced == DegradationLevel::None)
      Out.Audit = auditSimulation(F, A.Decisions);
    A.Info.BudgetTripped = Budget.level() != DegradationLevel::None;
    Out.Degradation = std::max(Budget.level(), Forced);

    // Eval-side fault gate (supervised only), mirroring the train gate.
    uint64_t EvalFuel = 1u << 24;
    if (Supervised && Injector) {
      switch (Injector->at("interp-eval")) {
      case FaultKind::ResourceExhaustion:
        EvalFuel = 256;
        break;
      case FaultKind::Hang:
        hangUntilCancelled(Cancel);
        break;
      default:
        break;
      }
    }

    // Peak performance: dynamic cost-model cycles on evaluation inputs.
    {
      TraceSpan EvalSpan(TS, "eval", "runner",
                         TS ? "\"function\":" + jsonString(F.getName())
                            : std::string());
      for (const auto &Args : W.EvalInputs[FIdx]) {
        if (Cancel && Cancel->checkpoint())
          break;
        Interp.reset();
        ExecutionResult R = Interp.run(F, ArrayRef<int64_t>(Args), EvalFuel);
        if (R.Interrupted)
          break;
        if (!R.Ok) {
          if (Opts.FailFast) {
            fprintf(stderr, "evaluation run did not terminate on %s/%s\n",
                    BenchName.c_str(), F.getName().c_str());
            abort();
          }
          ++Out.RunFailures;
          bufferDiagnostic(Out, A, WantDiags, DiagKind::Error, F.getName(),
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

    // Attempt verdict. BudgetTripped and Cancelled are the timing-driven
    // inputs (DESIGN.md §9's documented nondeterminism); everything else
    // is schedule-independent.
    A.Info.Cancelled = TaskCancel.cancelled();
    A.Info.Rollbacks = Out.Rollbacks;
    A.Info.RunFailures = Out.RunFailures;
    A.Info.Reached = Out.Degradation;
    if (A.HasInjector) {
      A.Info.FaultSites = A.Injector.sitesVisited();
      A.Info.FaultsInjected = A.Injector.faultsInjected();
    }
    A.Info.Failed = Out.Rollbacks != 0 || Out.RunFailures != 0 ||
                    A.Info.Cancelled || A.Info.BudgetTripped;
    A.Info.Reason = describeAttempt(A.Info, TaskCancel);

    // Task boundary: sample process memory accounting, then take both
    // shard buffers. Nothing publishes here — the join below publishes
    // every task's batches in function index order.
    if (Metered)
      peak_rss_bytes.record(currentPeakRssBytes());
    A.MetricsBatch = MShard.take();
    A.CounterBatch = Shard.take();

    // Storage eligibility: only *clean* compiles are memoized — no
    // rollbacks, run failures, quarantines, cancellation, budget expiry,
    // diagnostics, log lines, or injected faults. Anything else is either
    // timing-driven (must recompile) or carries benchmark-labelled text
    // that would replay wrongly across benchmarks sharing IR.
    if (UseCache && !A.Info.Failed && A.QuarantineEvents.empty() &&
        Out.LogLines.empty() && A.Diags.empty() &&
        (!A.HasInjector || A.Injector.faultsInjected() == 0)) {
      A.HasStore = true;
      A.StoreKey = CacheKey;
      CompileCacheEntry &E = A.Store;
      E.CodeSize = Out.CodeSize;
      E.Duplications = Out.Duplications;
      E.Degradation = Out.Degradation;
      E.DynamicCycles = Out.DynamicCycles;
      E.ResultHash = Out.ResultHash;
      E.FaultSites = A.Info.FaultSites;
      E.Audit = Out.Audit;
      E.Decisions = A.Decisions.decisions();
      // Counter deltas by qualified name, sorted, minus the cache.*
      // component (hit/miss accounting is the one warm-vs-cold counter
      // divergence and must not replay).
      for (const auto &[Counter, Value] : A.CounterBatch) {
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
      for (const auto &[Hist, H] : A.MetricsBatch) {
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
  };

  // Wave-per-rung scheduling: attempt a runs every task that failed
  // attempt a-1, in parallel; verdicts and breaker attribution fold
  // serially in function index order between waves, so re-queue decisions
  // and breaker trips are identical at any --jobs level.
  std::vector<size_t> Pending(N);
  for (size_t I = 0; I != N; ++I)
    Pending[I] = I;
  for (unsigned AttemptNo = 0; AttemptNo != MaxAttempts && !Pending.empty();
       ++AttemptNo) {
    for (size_t FIdx : Pending)
      State[FIdx].Attempts.push_back(std::make_unique<AttemptState>());
    Service.forEachIndex(Pending.size(), [&](size_t I, unsigned /*Worker*/) {
      RunAttempt(Pending[I], AttemptNo);
    });

    std::vector<size_t> Next;
    for (size_t FIdx : Pending) {
      AttemptState &A = *State[FIdx].Attempts.back();
      if (Opts.BreakerThreshold != 0) {
        for (const std::string &Phase : A.QuarantineEvents) {
          if (Disabled.count(Phase))
            continue;
          if (++CorruptionCounts[Phase] >= Opts.BreakerThreshold) {
            Disabled.insert(Phase);
            Batch.BreakerTrips.push_back(
                Phase + " after " +
                std::to_string(CorruptionCounts[Phase]) +
                " attributed corruption(s)");
            ++breaker_trips;
            if (Opts.BreakerHalfOpenAfter != 0) {
              TrippedOrder.push_back(Phase);
              CleanStreaks[Phase] = 0;
            }
            if (Opts.Diags)
              Opts.Diags->warning("compile-service", "",
                                  "circuit breaker tripped: phase " + Phase +
                                      " disabled for remaining tasks of " +
                                      BenchName + " after " +
                                      std::to_string(CorruptionCounts[Phase]) +
                                      " attributed corruption(s)");
          }
        }
        // Half-open: a tripped phase re-enables after BreakerHalfOpenAfter
        // consecutive clean folded attempts (any attributed corruption —
        // necessarily from a phase still running — resets every streak).
        // A re-enabled phase sits one corruption below the threshold, so
        // its next attributed corruption re-trips it immediately.
        if (Opts.BreakerHalfOpenAfter != 0 && !TrippedOrder.empty()) {
          const bool Clean = A.QuarantineEvents.empty();
          for (size_t PI = 0; PI != TrippedOrder.size();) {
            const std::string &Phase = TrippedOrder[PI];
            if (!Clean) {
              CleanStreaks[Phase] = 0;
              ++PI;
              continue;
            }
            if (++CleanStreaks[Phase] < Opts.BreakerHalfOpenAfter) {
              ++PI;
              continue;
            }
            Disabled.erase(Phase);
            CorruptionCounts[Phase] = Opts.BreakerThreshold - 1;
            CleanStreaks.erase(Phase);
            Batch.BreakerTrips.push_back(
                Phase + " re-enabled after " +
                std::to_string(Opts.BreakerHalfOpenAfter) +
                " clean attempt(s)");
            ++breaker_reenables;
            if (Opts.Diags)
              Opts.Diags->note("compile-service", "",
                               "circuit breaker half-open: phase " + Phase +
                                   " re-enabled for remaining tasks of " +
                                   BenchName + " after " +
                                   std::to_string(Opts.BreakerHalfOpenAfter) +
                                   " clean attempt(s)");
            TrippedOrder.erase(TrippedOrder.begin() +
                               static_cast<ptrdiff_t>(PI));
          }
        }
      }
      if (Supervised && A.Info.Failed) {
        if (AttemptNo + 1 < MaxAttempts) {
          Next.push_back(FIdx);
          ++tasks_retried;
        } else {
          ++tasks_exhausted;
        }
      }
    }
    Pending = std::move(Next);
  }

  // Deterministic join: assemble outcomes from the final attempts and fold
  // every order-sensitive stream back into the shared sinks in (function
  // index, attempt) order, regardless of completion order. Crash bundles
  // are written here — serially — never from a worker thread.
  for (size_t FIdx = 0; FIdx != N; ++FIdx) {
    TaskState &T = State[FIdx];
    FunctionCompileOutcome &Out = Batch.Outcomes[FIdx];
    AttemptState &Last = *T.Attempts.back();

    Out.CompileTimeMs = Last.Partial.CompileTimeMs;
    Out.CodeSize = Last.Partial.CodeSize;
    Out.Duplications = Last.Partial.Duplications;
    Out.Rollbacks = Last.Partial.Rollbacks;
    Out.RunFailures = Last.Partial.RunFailures;
    Out.Degradation = Last.Partial.Degradation;
    Out.DynamicCycles = Last.Partial.DynamicCycles;
    Out.ResultHash = Last.Partial.ResultHash;
    Out.Audit = Last.Partial.Audit;
    for (auto &A : T.Attempts) {
      Out.Attempts.push_back(A->Info);
      for (std::string &Line : A->Partial.LogLines)
        Out.LogLines.push_back(std::move(Line));
    }
    Out.Exhausted = Supervised && Last.Info.Failed;

    for (const std::string &Line : Out.LogLines)
      fprintf(stderr, "%s/%s: %s\n", BenchName.c_str(),
              Functions[FIdx]->getName().c_str(), Line.c_str());

    if (Out.Exhausted && !Opts.CrashBundleDir.empty()) {
      CrashBundleSpec Spec;
      Spec.Benchmark = BenchName;
      Spec.ConfigName = runConfigName(Config);
      Spec.FunctionName = Functions[FIdx]->getName();
      Spec.Dir = Opts.CrashBundleDir + "/" + BenchName + "-" +
                 Spec.ConfigName + "-" + Spec.FunctionName;
      Spec.Pristine = T.Pristine.get();
      Spec.ClassTable = W.Mod.get();
      if (Opts.Injector) {
        Spec.HasInjector = true;
        Spec.FaultRate = Opts.Injector->rate();
        Spec.FaultKindMask = Opts.Injector->kindMask();
      }
      for (const auto &A : T.Attempts) {
        CrashBundleAttempt CA;
        CA.Attempt = A->Info.Attempt;
        CA.ForcedLevel = A->Info.Forced;
        CA.FaultSeed = A->Info.FaultSeed;
        CA.FaultSites = A->Info.FaultSites;
        CA.FaultsInjected = A->Info.FaultsInjected;
        CA.Rollbacks = A->Info.Rollbacks;
        CA.RunFailures = A->Info.RunFailures;
        CA.Cancelled = A->Info.Cancelled;
        CA.BudgetTripped = A->Info.BudgetTripped;
        CA.Reason = A->Info.Reason;
        Spec.Attempts.push_back(std::move(CA));
        Spec.DiagnosticsText += A->Diags.render();
        Spec.DecisionsJsonl += A->Decisions.renderJsonl();
      }
      CrashBundleResult BR = writeCrashBundle(Spec);
      if (BR.Written) {
        Out.CrashBundle = Spec.Dir;
        ++crash_bundles_written;
      } else if (Opts.Diags) {
        Opts.Diags->error("compile-service", Spec.FunctionName,
                          "failed to write crash bundle: " + BR.Error);
      }
    }

    for (auto &A : T.Attempts) {
      // One registry update per task: the batched flush the counters
      // ROADMAP item asked for, and the index-ordered publication the
      // metrics determinism contract requires.
      CounterRegistry::publishBatch(A->CounterBatch);
      MetricsShard::publish(A->MetricsBatch);
      if (Opts.Decisions)
        Opts.Decisions->merge(std::move(A->Decisions));
      if (Opts.Diags)
        Opts.Diags->mergeFrom(A->Diags);
      if (Opts.Injector && A->HasInjector) {
        // A replayed attempt never ran its derived injector; fold in the
        // memoized site count instead so summary lines match cold runs.
        if (A->CacheHit)
          Opts.Injector->absorbCounts(A->Info.FaultSites, 0);
        else
          Opts.Injector->absorbCounts(A->Injector);
      }
      // Cache inserts happen here — serially, in (function index, attempt)
      // order — never during a wave, so probe results and eviction order
      // are identical at every --jobs level.
      if (Opts.Cache && A->HasStore)
        Opts.Cache->insert(A->StoreKey, std::move(A->Store));
    }
  }
  return Batch;
}
