//===- tests/concurrency_test.cpp - Parallel compile determinism wall ------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The determinism wall for the parallel compile service: the thread pool's
// scheduling contract, the telemetry sharding/merge machinery, the
// per-task fault-stream derivation, and — the headline — full-corpus
// equivalence between --jobs=1 and --jobs=8 (bitwise-identical printed IR,
// identical interpreter results, counter totals, decision logs, and
// diagnostics across >= 5 seeds under all three paper configurations).
//
// The ThreadPoolTest, CounterShardTest and ParallelCompileTest cases double
// as the TSan subjects (the `tsan` preset runs them with
// -fsanitize=thread).
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"
#include "telemetry/Counters.h"
#include "telemetry/DecisionLog.h"
#include "telemetry/Trace.h"
#include "workloads/CompileService.h"
#include "workloads/Runner.h"
#include "workloads/Suites.h"

#include <atomic>
#include <gtest/gtest.h>
#include <numeric>
#include <thread>
#include <vector>

using namespace dbds;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool scheduling contract
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  constexpr size_t N = 1000;
  std::vector<std::atomic<unsigned>> Hits(N);
  Pool.runIndexed(N, [&](size_t Index, unsigned Worker) {
    ASSERT_LT(Index, N);
    ASSERT_LT(Worker, Pool.workerCount());
    Hits[Index].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool Pool(3);
  std::atomic<uint64_t> Sum{0};
  for (unsigned Batch = 0; Batch != 5; ++Batch)
    Pool.runIndexed(100, [&](size_t Index, unsigned) {
      Sum.fetch_add(Index + 1, std::memory_order_relaxed);
    });
  EXPECT_EQ(Sum.load(), 5u * (100u * 101u / 2u));
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  ThreadPool Pool(2);
  bool Ran = false;
  Pool.runIndexed(0, [&](size_t, unsigned) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPoolTest, MoreWorkersThanTasks) {
  ThreadPool Pool(8);
  std::atomic<unsigned> Count{0};
  Pool.runIndexed(3, [&](size_t, unsigned) {
    Count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), 3u);
}

TEST(ThreadPoolTest, UnevenTaskDurationsDrainViaStealing) {
  // A few long tasks dealt to one deque force siblings to steal; the batch
  // must still complete every index. (Whether steals actually happen is
  // scheduling-dependent — only completion is asserted; stealCount() is
  // read to exercise the accessor under TSan.)
  ThreadPool Pool(4);
  constexpr size_t N = 64;
  std::vector<std::atomic<unsigned>> Hits(N);
  Pool.runIndexed(N, [&](size_t Index, unsigned) {
    if (Index % 16 == 0) {
      volatile uint64_t Spin = 0;
      for (unsigned I = 0; I != 200000; ++I)
        Spin = Spin + I;
    }
    Hits[Index].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u);
  (void)Pool.stealCount();
}

TEST(ThreadPoolTest, DefaultWorkerCountIsPositive) {
  EXPECT_GE(ThreadPool::defaultWorkerCount(), 1u);
}

//===----------------------------------------------------------------------===//
// CounterShard: buffering, flush, and per-thread isolation
//===----------------------------------------------------------------------===//

DBDS_COUNTER(concurrency_test, shard_probe);

TEST(CounterShardTest, BuffersUntilFlush) {
  const uint64_t Before = shard_probe.value();
  {
    CounterShard Shard;
    ++shard_probe;
    shard_probe += 4;
    // Buffered: the global value is unchanged until the shard dies.
    EXPECT_EQ(shard_probe.value(), Before);
    std::vector<CounterSample> Snap = Shard.snapshot();
    ASSERT_EQ(Snap.size(), 1u);
    EXPECT_EQ(Snap[0].Name, "concurrency_test.shard_probe");
    EXPECT_EQ(Snap[0].Value, 5u);
  }
  EXPECT_EQ(shard_probe.value(), Before + 5);
}

TEST(CounterShardTest, ActiveTracksInstallation) {
  EXPECT_EQ(CounterShard::active(), nullptr);
  {
    CounterShard Outer;
    EXPECT_EQ(CounterShard::active(), &Outer);
    {
      CounterShard Inner;
      EXPECT_EQ(CounterShard::active(), &Inner);
    }
    EXPECT_EQ(CounterShard::active(), &Outer);
  }
  EXPECT_EQ(CounterShard::active(), nullptr);
}

// The audit-attribution regression: before sharding, PhaseManager's audit
// mode snapshotted the *global* registry around each phase, so counter
// activity from concurrently compiling workers was misattributed to
// whatever phase happened to be in flight. The shard snapshot must see
// only the installing thread's increments, no matter how loudly other
// threads are counting. (Fails against global snapshots under --jobs>1.)
TEST(CounterShardTest, SnapshotIsolatedFromOtherThreads) {
  CounterShard Mine;
  ++shard_probe;

  std::atomic<bool> Stop{false};
  std::thread Noise([&] {
    while (!Stop.load(std::memory_order_relaxed))
      ++shard_probe; // no shard on this thread: hits the global atomic
  });
  for (unsigned I = 0; I != 1000; ++I) {
    std::vector<CounterSample> Snap = Mine.snapshot();
    ASSERT_EQ(Snap.size(), 1u);
    ASSERT_EQ(Snap[0].Value, 1u) << "foreign increments leaked into shard";
  }
  Stop.store(true, std::memory_order_relaxed);
  Noise.join();
}

TEST(CounterShardTest, ConcurrentShardsFlushToSameTotal) {
  CounterRegistry::instance().resetAll();
  constexpr unsigned Threads = 8, PerThread = 10000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&] {
      CounterShard Shard;
      for (unsigned I = 0; I != PerThread; ++I)
        ++shard_probe;
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(shard_probe.value(), uint64_t(Threads) * PerThread);
}

//===----------------------------------------------------------------------===//
// Merge primitives: decision log, diagnostics, fault streams, hashing
//===----------------------------------------------------------------------===//

TEST(DecisionLogMergeTest, PreservesOrderAndDrainsSource) {
  DecisionLog A, B;
  DuplicationDecision D;
  D.FunctionName = "f0";
  A.append(D);
  D.FunctionName = "f1";
  B.append(D);
  D.FunctionName = "f2";
  B.append(D);

  A.merge(std::move(B));
  ASSERT_EQ(A.decisions().size(), 3u);
  EXPECT_EQ(A.decisions()[0].FunctionName, "f0");
  EXPECT_EQ(A.decisions()[1].FunctionName, "f1");
  EXPECT_EQ(A.decisions()[2].FunctionName, "f2");
  EXPECT_TRUE(B.empty());
}

TEST(DecisionLogMergeTest, MergeIntoEmptyMoves) {
  DecisionLog A, B;
  DuplicationDecision D;
  D.FunctionName = "only";
  B.append(D);
  A.merge(std::move(B));
  ASSERT_EQ(A.decisions().size(), 1u);
  EXPECT_EQ(A.decisions()[0].FunctionName, "only");
}

TEST(DiagnosticsMergeTest, PreservesOrderAndDrainsSource) {
  DiagnosticEngine A, B;
  A.note("runner", "f0", "first");
  B.warning("runner", "f1", "second");
  B.error("runner", "f2", "third");
  A.mergeFrom(B);
  ASSERT_EQ(A.all().size(), 3u);
  EXPECT_EQ(A.all()[0].Message, "first");
  EXPECT_EQ(A.all()[1].Message, "second");
  EXPECT_EQ(A.all()[2].Message, "third");
  EXPECT_TRUE(B.empty());
}

TEST(FaultInjectorTaskTest, DerivedStreamsIgnoreBaseState) {
  // forTask(N) must depend only on (base seed, N): advancing the base
  // injector's own stream first must not change the derived stream —
  // that is what makes fault decisions independent of scheduling order.
  FaultInjector Fresh(42, 1.0);
  FaultInjector Advanced(42, 1.0);
  (void)Advanced.at("site-a");
  (void)Advanced.entropy();

  FaultInjector A = Fresh.forTask(7);
  FaultInjector B = Advanced.forTask(7);
  EXPECT_EQ(A.seed(), B.seed());
  for (unsigned I = 0; I != 16; ++I)
    ASSERT_EQ(A.at("probe"), B.at("probe"));
}

TEST(FaultInjectorTaskTest, DistinctTasksGetDistinctStreams) {
  FaultInjector Base(42, 1.0);
  EXPECT_NE(Base.forTask(0).seed(), Base.forTask(1).seed());
}

TEST(FaultInjectorTaskTest, AbsorbCountsAccumulates) {
  FaultInjector Base(42, 1.0);
  FaultInjector Task = Base.forTask(0);
  unsigned Fired = 0;
  for (unsigned I = 0; I != 10; ++I)
    Fired += Task.at("site") != FaultKind::None;
  Base.absorbCounts(Task);
  EXPECT_EQ(Base.sitesVisited(), 10u);
  EXPECT_EQ(Base.faultsInjected(), Fired);
}

TEST(ResultHashTest, FoldIsOrderSensitive) {
  uint64_t AB = resultHashCombine(resultHashCombine(0, 1), 2);
  uint64_t BA = resultHashCombine(resultHashCombine(0, 2), 1);
  EXPECT_NE(AB, BA); // index-ordered merge is load-bearing, not cosmetic
  EXPECT_EQ(AB, resultHashCombine(resultHashCombine(0, 1), 2));
}

//===----------------------------------------------------------------------===//
// The determinism wall: --jobs=1 vs --jobs=8 over the generator corpus
//===----------------------------------------------------------------------===//

/// Everything observable one corpus compilation produces.
struct CorpusObservation {
  std::vector<std::string> PrintedIR; ///< One per (seed, config).
  std::vector<uint64_t> ResultHashes; ///< Per function, flattened.
  std::vector<uint64_t> DynamicCycles;
  std::vector<uint64_t> CodeSizes;
  std::vector<unsigned> Duplications;
  std::vector<unsigned> Rollbacks;
  std::string RemarksJsonl;
  std::string DiagsText;
  std::vector<CounterSample> CounterDelta;
};

CorpusObservation observeCorpus(unsigned Jobs) {
  const SuiteSpec Corpus =
      generatorCorpusSuite(/*Seed=*/900, /*Benchmarks=*/5, /*Functions=*/5,
                           /*Segments=*/5);
  CorpusObservation Obs;
  DecisionLog Decisions;
  DiagnosticEngine Diags;
  RunnerOptions Opts;
  Opts.Verify = true;
  Opts.Decisions = &Decisions;
  Opts.Diags = &Diags;

  std::vector<CounterSample> Pre = CounterRegistry::instance().snapshot();
  CompileService Service(Jobs);
  const RunConfig Configs[] = {RunConfig::Baseline, RunConfig::DBDS,
                               RunConfig::DupALot};
  for (const BenchmarkSpec &Spec : Corpus.Benchmarks) {
    for (RunConfig Config : Configs) {
      GeneratedWorkload W = generateWorkload(Spec.Config);
      CompileBatch Batch =
          compileFunctionsParallel(Service, W, Config, Opts, Spec.Name);
      Obs.PrintedIR.push_back(printModule(W.Mod.get()));
      for (const FunctionCompileOutcome &O : Batch.Outcomes) {
        Obs.ResultHashes.push_back(O.ResultHash);
        Obs.DynamicCycles.push_back(O.DynamicCycles);
        Obs.CodeSizes.push_back(O.CodeSize);
        Obs.Duplications.push_back(O.Duplications);
        Obs.Rollbacks.push_back(O.Rollbacks);
      }
    }
  }
  Obs.RemarksJsonl = Decisions.renderJsonl();
  Obs.DiagsText = Diags.render();
  Obs.CounterDelta =
      CounterRegistry::delta(Pre, CounterRegistry::instance().snapshot());
  return Obs;
}

TEST(ConcurrencyWallTest, JobsOneAndJobsEightAreObservablyIdentical) {
  CorpusObservation Serial = observeCorpus(1);
  CorpusObservation Parallel = observeCorpus(8);

  // Bitwise-identical optimized IR for every (seed, config) module.
  ASSERT_EQ(Serial.PrintedIR.size(), Parallel.PrintedIR.size());
  for (size_t I = 0; I != Serial.PrintedIR.size(); ++I)
    EXPECT_EQ(Serial.PrintedIR[I], Parallel.PrintedIR[I])
        << "module " << I << " IR diverged between --jobs=1 and --jobs=8";

  // Identical interpreter results and per-function measurements.
  EXPECT_EQ(Serial.ResultHashes, Parallel.ResultHashes);
  EXPECT_EQ(Serial.DynamicCycles, Parallel.DynamicCycles);
  EXPECT_EQ(Serial.CodeSizes, Parallel.CodeSizes);
  EXPECT_EQ(Serial.Duplications, Parallel.Duplications);
  EXPECT_EQ(Serial.Rollbacks, Parallel.Rollbacks);

  // Byte-identical remarks stream and diagnostics.
  EXPECT_EQ(Serial.RemarksJsonl, Parallel.RemarksJsonl);
  EXPECT_EQ(Serial.DiagsText, Parallel.DiagsText);

  // Identical telemetry counter totals (deltas over each run).
  ASSERT_EQ(Serial.CounterDelta.size(), Parallel.CounterDelta.size());
  for (size_t I = 0; I != Serial.CounterDelta.size(); ++I) {
    EXPECT_EQ(Serial.CounterDelta[I].Name, Parallel.CounterDelta[I].Name);
    EXPECT_EQ(Serial.CounterDelta[I].Value, Parallel.CounterDelta[I].Value)
        << "counter " << Serial.CounterDelta[I].Name;
  }
}

TEST(ConcurrencyWallTest, RunnerMeasurementsMatchAcrossJobs) {
  // The Runner-level view of the same contract: everything except
  // wall-clock compile time agrees between serial and parallel runs.
  BenchmarkSpec Spec =
      generatorCorpusSuite(/*Seed=*/1700, /*Benchmarks=*/1, /*Functions=*/6,
                           /*Segments=*/5)
          .Benchmarks[0];
  RunnerOptions Serial, Parallel;
  Serial.Verify = Parallel.Verify = true;
  Serial.CollectCounters = Parallel.CollectCounters = true;
  Serial.Jobs = 1;
  Parallel.Jobs = 8;

  BenchmarkMeasurement A = measureBenchmark(Spec, Serial);
  BenchmarkMeasurement B = measureBenchmark(Spec, Parallel);

  const std::pair<const ConfigMeasurement *, const ConfigMeasurement *>
      Pairs[] = {{&A.Baseline, &B.Baseline},
                 {&A.DBDS, &B.DBDS},
                 {&A.DupALot, &B.DupALot}};
  for (const auto &[SA, SB] : Pairs) {
    EXPECT_EQ(SA->DynamicCycles, SB->DynamicCycles);
    EXPECT_EQ(SA->CodeSize, SB->CodeSize);
    EXPECT_EQ(SA->Duplications, SB->Duplications);
    EXPECT_EQ(SA->ResultHash, SB->ResultHash);
    EXPECT_EQ(SA->Rollbacks, SB->Rollbacks);
    EXPECT_EQ(SA->RunFailures, SB->RunFailures);
  }
  EXPECT_EQ(A.ResultsAgree, B.ResultsAgree);
}

TEST(ConcurrencyWallTest, FaultInjectionIsScheduleIndependent) {
  // With a derived per-task fault stream, even an injected-fault run must
  // be jobs-invariant: same rollbacks, same diagnostics, same counts.
  BenchmarkSpec Spec =
      generatorCorpusSuite(/*Seed=*/2600, /*Benchmarks=*/1, /*Functions=*/6,
                           /*Segments=*/4)
          .Benchmarks[0];

  auto Run = [&](unsigned Jobs) {
    FaultInjector Injector(99, 0.05);
    DiagnosticEngine Diags;
    RunnerOptions Opts;
    Opts.Verify = true;
    Opts.Injector = &Injector;
    Opts.Diags = &Diags;
    Opts.Jobs = Jobs;
    BenchmarkMeasurement M = measureBenchmark(Spec, Opts);
    return std::tuple<unsigned, unsigned, unsigned, std::string>(
        M.DBDS.Rollbacks, Injector.sitesVisited(), Injector.faultsInjected(),
        Diags.render());
  };
  EXPECT_EQ(Run(1), Run(8));

  // The fault storm: a higher rate over a larger unit, with the decision
  // log, the diagnostics and a trace captured. Every function must
  // produce an outcome, the trace must be span-balanced, and everything
  // observable must be byte-identical to the --jobs=1 run.
  BenchmarkSpec Storm =
      generatorCorpusSuite(/*Seed=*/5100, /*Benchmarks=*/1, /*Functions=*/8,
                           /*Segments=*/4)
          .Benchmarks[0];
  auto RunStorm = [&](unsigned Jobs) {
    FaultInjector Injector(31, 0.15);
    DecisionLog Decisions;
    DiagnosticEngine Diags;
    RunnerOptions Opts;
    Opts.Verify = true;
    Opts.Injector = &Injector;
    Opts.Decisions = &Decisions;
    Opts.Diags = &Diags;

    GeneratedWorkload W = generateWorkload(Storm.Config);
    CompileService Service(Jobs);
    TraceSession Trace;
    CompileBatch Batch = [&] {
      ScopedTraceAttach Attach(Trace);
      return compileFunctionsParallel(Service, W, RunConfig::DBDS, Opts,
                                      Storm.Name);
    }();
    EXPECT_EQ(Batch.Outcomes.size(), 8u);
    EXPECT_GT(Injector.faultsInjected(), 0u);
    std::vector<std::string> Errors;
    EXPECT_TRUE(Trace.checkBalance(&Errors));
    for (const std::string &E : Errors)
      ADD_FAILURE() << E;

    std::string S;
    for (const FunctionCompileOutcome &O : Batch.Outcomes)
      S += "outcome hash=" + std::to_string(O.ResultHash) +
           " dup=" + std::to_string(O.Duplications) +
           " rollbacks=" + std::to_string(O.Rollbacks) +
           " runfail=" + std::to_string(O.RunFailures) + "\n";
    return S + printModule(W.Mod.get()) + Decisions.renderJsonl() +
           Diags.render() + "sites=" +
           std::to_string(Injector.sitesVisited()) +
           " injected=" + std::to_string(Injector.faultsInjected());
  };
  EXPECT_EQ(RunStorm(1), RunStorm(8));
}

//===----------------------------------------------------------------------===//
// Parallel compile stress (the TSan smoke subject)
//===----------------------------------------------------------------------===//

TEST(ParallelCompileTest, StressSmoke) {
  // Small but genuinely concurrent: 4 workers, three configs, decision
  // logging, diagnostics, and fault injection all on — the surface TSan
  // needs to see racing if anything shared slipped through.
  BenchmarkSpec Spec =
      generatorCorpusSuite(/*Seed=*/4242, /*Benchmarks=*/1, /*Functions=*/8,
                           /*Segments=*/4)
          .Benchmarks[0];
  FaultInjector Injector(7, 0.05);
  DecisionLog Decisions;
  DiagnosticEngine Diags;
  RunnerOptions Opts;
  Opts.Verify = true;
  Opts.Jobs = 4;
  Opts.Injector = &Injector;
  Opts.Decisions = &Decisions;
  Opts.Diags = &Diags;
  Opts.CollectCounters = true;

  BenchmarkMeasurement M = measureBenchmark(Spec, Opts);
  EXPECT_TRUE(M.ResultsAgree);
  EXPECT_NE(M.Baseline.ResultHash, 0u);
}

TEST(ParallelCompileTest, ServiceResolvesJobs) {
  EXPECT_EQ(CompileService(1).jobs(), 1u);
  EXPECT_EQ(CompileService(6).jobs(), 6u);
  EXPECT_GE(CompileService(0).jobs(), 1u); // 0 = hardware threads
  EXPECT_EQ(CompileService::resolveJobs(0), ThreadPool::defaultWorkerCount());
}

} // namespace
