//===- tests/cache_test.cpp - Compile-cache equivalence test wall ----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The test wall for the content-addressed compile cache (DESIGN.md §13):
//
//  - warm-vs-cold equivalence: a warm run over the generator corpus is
//    observably identical to the cold run that populated the cache —
//    bitwise IR, interpreter results, measurements, remarks, diagnostics,
//    and counter totals (modulo the cache.* component, the one documented
//    divergence);
//  - schedule independence: warm-cache runs at --jobs=1 and --jobs=8 are
//    byte-identical, including the hit/miss counts themselves;
//  - zero redundant compiles: a warm suite run over a duplicate-heavy
//    corpus never misses;
//  - key sensitivity: every fingerprint field perturbs the key;
//  - the on-disk format: round-trip fidelity, corruption/truncation/
//    version-mismatch all fail open as misses, FIFO eviction respects the
//    capacity bound deterministically.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "support/Diagnostics.h"
#include "telemetry/Counters.h"
#include "telemetry/DecisionLog.h"
#include "telemetry/Metrics.h"
#include "workloads/CompileCache.h"
#include "workloads/CompileService.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>
#include <vector>

using namespace dbds;

namespace {

//===----------------------------------------------------------------------===//
// Corpus harness
//===----------------------------------------------------------------------===//

/// Everything observable one corpus compilation produces.
struct CorpusObservation {
  std::vector<std::string> PrintedIR; ///< One per (seed, config) module.
  std::vector<uint64_t> ResultHashes; ///< Per function, flattened.
  std::vector<uint64_t> DynamicCycles;
  std::vector<uint64_t> CodeSizes;
  std::vector<unsigned> Duplications;
  std::vector<unsigned> Rollbacks;
  std::string RemarksJsonl;
  std::string DiagsText;
  std::vector<CounterSample> CounterDelta;
};

/// The cache.* component is the documented warm-vs-cold divergence; strip
/// it before comparing counter totals across cache states.
std::vector<CounterSample> stripCache(std::vector<CounterSample> V) {
  std::vector<CounterSample> Out;
  for (CounterSample &S : V)
    if (S.Name.compare(0, 6, "cache.") != 0)
      Out.push_back(std::move(S));
  return Out;
}

uint64_t counterValue(const std::vector<CounterSample> &V,
                      const std::string &Name) {
  for (const CounterSample &S : V)
    if (S.Name == Name)
      return S.Value;
  return 0;
}

/// Compiles the 5-seed corpus under all three paper configurations through
/// \p Cache (null = uncached) and records every observable.
CorpusObservation observeCorpus(unsigned Jobs, CompileCache *Cache) {
  const SuiteSpec Corpus =
      generatorCorpusSuite(/*Seed=*/7100, /*Benchmarks=*/5, /*Functions=*/5,
                           /*Segments=*/5);
  CorpusObservation Obs;
  DecisionLog Decisions;
  DiagnosticEngine Diags;
  RunnerOptions Opts;
  Opts.Verify = true;
  Opts.Decisions = &Decisions;
  Opts.Diags = &Diags;
  Opts.Cache = Cache;

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

/// Asserts two corpus observations are identical; \p IgnoreCacheCounters
/// excludes the cache.* component (warm vs cold), keeping everything else
/// under the byte-identical contract.
void expectObservablyIdentical(const CorpusObservation &A,
                               const CorpusObservation &B,
                               bool IgnoreCacheCounters) {
  ASSERT_EQ(A.PrintedIR.size(), B.PrintedIR.size());
  for (size_t I = 0; I != A.PrintedIR.size(); ++I)
    EXPECT_EQ(A.PrintedIR[I], B.PrintedIR[I]) << "module " << I;
  EXPECT_EQ(A.ResultHashes, B.ResultHashes);
  EXPECT_EQ(A.DynamicCycles, B.DynamicCycles);
  EXPECT_EQ(A.CodeSizes, B.CodeSizes);
  EXPECT_EQ(A.Duplications, B.Duplications);
  EXPECT_EQ(A.Rollbacks, B.Rollbacks);
  EXPECT_EQ(A.RemarksJsonl, B.RemarksJsonl);
  EXPECT_EQ(A.DiagsText, B.DiagsText);

  std::vector<CounterSample> CA = A.CounterDelta, CB = B.CounterDelta;
  if (IgnoreCacheCounters) {
    CA = stripCache(std::move(CA));
    CB = stripCache(std::move(CB));
  }
  ASSERT_EQ(CA.size(), CB.size());
  for (size_t I = 0; I != CA.size(); ++I) {
    EXPECT_EQ(CA[I].Name, CB[I].Name);
    EXPECT_EQ(CA[I].Value, CB[I].Value) << "counter " << CA[I].Name;
  }
}

//===----------------------------------------------------------------------===//
// Warm-vs-cold equivalence (the headline)
//===----------------------------------------------------------------------===//

TEST(CacheEquivalenceTest, WarmRunIsByteIdenticalToCold) {
  CompileCache Cache;
  CorpusObservation Cold = observeCorpus(1, &Cache);
  ASSERT_GT(Cache.size(), 0u) << "clean corpus stored nothing";
  CorpusObservation Warm = observeCorpus(1, &Cache);
  expectObservablyIdentical(Cold, Warm, /*IgnoreCacheCounters=*/true);

  // Every compile the cold run stored replays warm; a clean corpus with no
  // injector, budget, or diagnostics stores everything, so the warm run
  // performs zero redundant compiles (the acceptance criterion).
  EXPECT_EQ(Warm.DiagsText, "");
  EXPECT_EQ(counterValue(Warm.CounterDelta, "cache.miss"), 0u);
  EXPECT_EQ(counterValue(Warm.CounterDelta, "cache.hit"),
            counterValue(Cold.CounterDelta, "cache.hit") +
                counterValue(Cold.CounterDelta, "cache.miss"));
  // Warm runs compile nothing, yet replay makes the counter totals agree —
  // functions_compiled included, which is exactly the point.
  EXPECT_EQ(
      counterValue(stripCache(Warm.CounterDelta), "compile_service.functions_compiled"),
      counterValue(stripCache(Cold.CounterDelta), "compile_service.functions_compiled"));
}

TEST(CacheEquivalenceTest, CachedRunMatchesUncachedRun) {
  // The cache must be invisible: a cold cached run produces byte-identical
  // observables to a run with no cache at all (cache.* aside).
  CorpusObservation Uncached = observeCorpus(1, nullptr);
  CompileCache Cache;
  CorpusObservation Cached = observeCorpus(1, &Cache);
  expectObservablyIdentical(Uncached, Cached, /*IgnoreCacheCounters=*/true);
}

TEST(CacheEquivalenceTest, ColdMissCountIsScheduleIndependent) {
  // Probes run in parallel waves but inserts land at the serial join, so
  // hit/miss totals — not just the replayed payloads — are identical
  // between --jobs=1 and --jobs=8.
  CompileCache A, B;
  CorpusObservation Cold1 = observeCorpus(1, &A);
  CorpusObservation Cold8 = observeCorpus(8, &B);
  expectObservablyIdentical(Cold1, Cold8, /*IgnoreCacheCounters=*/false);
  EXPECT_EQ(A.size(), B.size());
}

TEST(CacheEquivalenceTest, WarmRunsAreScheduleIndependent) {
  CompileCache Cache;
  observeCorpus(1, &Cache); // populate
  CorpusObservation Warm1 = observeCorpus(1, &Cache);
  CorpusObservation Warm8 = observeCorpus(8, &Cache);
  expectObservablyIdentical(Warm1, Warm8, /*IgnoreCacheCounters=*/false);
}

TEST(CacheEquivalenceTest, DuplicateHeavyCorpusSharesEntriesAcrossBenchmarks) {
  // Two benchmarks with identical generator configs produce structurally
  // identical functions; the benchmark label is deliberately not part of
  // the key, so the second benchmark hits entries the first stored.
  SuiteSpec Corpus = generatorCorpusSuite(/*Seed=*/7500, /*Benchmarks=*/1,
                                          /*Functions=*/4, /*Segments=*/4);
  BenchmarkSpec Twin = Corpus.Benchmarks[0];
  Twin.Name = "twin-of-" + Twin.Name;
  Corpus.Benchmarks.push_back(Twin);

  CompileCache Cache;
  RunnerOptions Opts;
  Opts.Verify = true;
  Opts.Cache = &Cache;
  std::vector<CounterSample> Pre = CounterRegistry::instance().snapshot();
  CompileService Service(1);
  for (const BenchmarkSpec &Spec : Corpus.Benchmarks) {
    GeneratedWorkload W = generateWorkload(Spec.Config);
    compileFunctionsParallel(Service, W, RunConfig::DBDS, Opts, Spec.Name);
  }
  std::vector<CounterSample> Delta =
      CounterRegistry::delta(Pre, CounterRegistry::instance().snapshot());
  // The twin compiled nothing: every unique function missed exactly once
  // (cache.miss == unique hashes == entries stored), the rest hit.
  EXPECT_EQ(counterValue(Delta, "cache.miss"), Cache.size());
  EXPECT_GE(counterValue(Delta, "cache.hit"), 4u);
}

TEST(CacheEquivalenceTest, DeterministicHistogramsReplayExactly) {
  // With metrics on, a warm run's Deterministic-class histograms merge to
  // the same state the cold run recorded (Timing-class histograms are the
  // wall-clock carve-out and stay excluded). Rendered JSON is compared:
  // byte-identical rendering is the report-level contract.
  MetricsRegistry::setEnabled(true);
  MetricsRegistry::instance().resetAll();
  CompileCache Cache;
  observeCorpus(1, &Cache);
  std::string Cold = MetricsRegistry::renderJson(
      MetricsRegistry::instance().snapshot(/*DeterministicOnly=*/true));

  MetricsRegistry::instance().resetAll();
  observeCorpus(1, &Cache);
  std::string Warm = MetricsRegistry::renderJson(
      MetricsRegistry::instance().snapshot(/*DeterministicOnly=*/true));
  MetricsRegistry::setEnabled(false);
  MetricsRegistry::instance().resetAll();

  EXPECT_EQ(Cold, Warm);
}

TEST(CacheEquivalenceTest, MetricsEnabledPerturbsTheKey) {
  // A cache populated with metrics off must not serve a metrics-on run
  // (the entry has no histogram payload to replay): the fingerprint keeps
  // the two keyspaces apart, so the metrics-on run simply misses.
  CompileCache Cache;
  observeCorpus(1, &Cache); // metrics off
  const size_t ColdEntries = Cache.size();

  MetricsRegistry::setEnabled(true);
  MetricsRegistry::instance().resetAll();
  std::vector<CounterSample> Pre = CounterRegistry::instance().snapshot();
  observeCorpus(1, &Cache);
  std::vector<CounterSample> Delta =
      CounterRegistry::delta(Pre, CounterRegistry::instance().snapshot());
  MetricsRegistry::setEnabled(false);
  MetricsRegistry::instance().resetAll();

  EXPECT_EQ(counterValue(Delta, "cache.hit"), 0u);
  EXPECT_GT(Cache.size(), ColdEntries);
}

//===----------------------------------------------------------------------===//
// Key sensitivity: every fingerprint field perturbs the key
//===----------------------------------------------------------------------===//

struct KeyFixture {
  std::string IR = "function f(a) {\nentry:\n  ret a\n}\n";
  std::vector<std::vector<int64_t>> Train = {{1, 2}, {3}};
  std::vector<std::vector<int64_t>> Eval = {{4}};
  CompileCacheFingerprint FP;

  KeyFixture() {
    // Non-default everything, so single-field mutations move *away* from
    // the baseline rather than toward a default they started at.
    FP.Config = 1;
    FP.Verify = true;
    FP.CompileBudgetMs = 12.5;
    FP.SimAudit = true;
    FP.HasInjector = true;
    FP.InjectorBaseSeed = 99;
    FP.InjectorRate = 0.25;
    FP.TaskFaultSeed = 1234;
  }

  CompileCacheKey key() const {
    return computeCompileCacheKey(IR, Train, Eval, FP);
  }
};

TEST(CacheKeyTest, EveryFingerprintFieldPerturbsKey) {
  KeyFixture Base;
  const CompileCacheKey K = Base.key();

  struct Case {
    const char *Field;
    void (*Mutate)(KeyFixture &);
  };
  const Case Cases[] = {
      {"Tool", [](KeyFixture &F) { F.FP.Tool = "fuzzdiff"; }},
      {"Config", [](KeyFixture &F) { F.FP.Config = 2; }},
      {"Verify", [](KeyFixture &F) { F.FP.Verify = false; }},
      {"FailFast", [](KeyFixture &F) { F.FP.FailFast = true; }},
      {"CompileBudgetMs", [](KeyFixture &F) { F.FP.CompileBudgetMs = 13.0; }},
      {"SimAudit", [](KeyFixture &F) { F.FP.SimAudit = false; }},
      {"WantDiags", [](KeyFixture &F) { F.FP.WantDiags = true; }},
      {"WantDecisions", [](KeyFixture &F) { F.FP.WantDecisions = true; }},
      {"MetricsEnabled", [](KeyFixture &F) { F.FP.MetricsEnabled = true; }},
      {"HasInjector", [](KeyFixture &F) { F.FP.HasInjector = false; }},
      {"InjectorBaseSeed",
       [](KeyFixture &F) { F.FP.InjectorBaseSeed = 100; }},
      {"InjectorRate", [](KeyFixture &F) { F.FP.InjectorRate = 0.5; }},
      {"TaskFaultSeed", [](KeyFixture &F) { F.FP.TaskFaultSeed = 1235; }},
  };
  for (const Case &C : Cases) {
    KeyFixture Mutated;
    C.Mutate(Mutated);
    EXPECT_NE(Mutated.key(), K)
        << "fingerprint field " << C.Field << " does not perturb the key";
  }
}

TEST(CacheKeyTest, IRAndInputsPerturbKey) {
  KeyFixture Base;
  const CompileCacheKey K = Base.key();

  KeyFixture IR;
  IR.IR += " ";
  EXPECT_NE(IR.key(), K);

  KeyFixture Train;
  Train.Train[0][0] = 5;
  EXPECT_NE(Train.key(), K);

  KeyFixture Eval;
  Eval.Eval.push_back({});
  EXPECT_NE(Eval.key(), K);

  // Tuple boundaries must not alias: {{1,2},{3}} vs {{1},{2,3}}.
  KeyFixture Shifted;
  Shifted.Train = {{1}, {2, 3}};
  EXPECT_NE(Shifted.key(), K);
}

TEST(CacheKeyTest, StructurallyIdenticalWorkloadsShareKeys) {
  // The canonical printing renames values/blocks in print order, so two
  // generations from the same seed hash identically — the content part of
  // "content-addressed".
  GeneratorConfig Config;
  Config.Seed = 4242;
  Config.NumFunctions = 3;
  Config.SegmentsPerFunction = 4;
  GeneratedWorkload A = generateWorkload(Config);
  GeneratedWorkload B = generateWorkload(Config);
  auto FA = A.Mod->functions(), FB = B.Mod->functions();
  ASSERT_EQ(FA.size(), FB.size());
  CompileCacheFingerprint FP;
  for (size_t I = 0; I != FA.size(); ++I) {
    std::string PA = printCacheableUnit(A.Mod.get(), FA[I]);
    std::string PB = printCacheableUnit(B.Mod.get(), FB[I]);
    EXPECT_EQ(PA, PB);
    EXPECT_EQ(computeCompileCacheKey(PA, A.TrainInputs[I], A.EvalInputs[I], FP),
              computeCompileCacheKey(PB, B.TrainInputs[I], B.EvalInputs[I], FP));
  }
}

//===----------------------------------------------------------------------===//
// Serialization: round-trip fidelity and fail-open parsing
//===----------------------------------------------------------------------===//

/// A fully populated synthetic entry: every field off its default,
/// decision doubles with bit patterns a decimal round-trip would mangle.
CompileCacheEntry makeRichEntry() {
  CompileCacheEntry E;
  E.CodeSize = 777;
  E.Duplications = 3;
  E.Degradation = DegradationLevel::NoFixpoint;
  E.DynamicCycles = 123456789;
  E.ResultHash = 0xdeadbeefcafef00dULL;
  E.FaultSites = 11;
  E.Audit.Ran = true;
  E.Audit.Confirmed = 2;
  E.Audit.Overclaimed = 1;
  E.Audit.Underclaimed = 0;
  E.Audit.Skipped = 4;

  DuplicationDecision D;
  D.FunctionName = "fn with spaces"; // names are the line tail, spaces ok
  D.Iteration = 2;
  D.MergeId = 7;
  D.PredId = 3;
  D.SecondMergeId = 9;
  D.CyclesSaved = 0.1 + 0.2; // 0.30000000000000004: decimal would lose it
  D.Probability = 1.0 / 3.0;
  D.SizeCost = -5;
  D.CurrentSize = 100;
  D.InitialSize = 90;
  D.Opportunities.ConstantFolds = 1;
  D.Opportunities.StrengthReductions = 2;
  D.Opportunities.ConditionalEliminations = 3;
  D.Opportunities.ReadEliminations = 4;
  D.Opportunities.AllocationSinks = 5;
  D.Opportunities.PartialEscapes = 6;
  D.TradeoffEvaluated = true;
  D.Clauses.PositiveCyclesSaved = true;
  D.Clauses.BenefitOutweighsCost = true;
  D.Clauses.UnderMaxUnitSize = false;
  D.Clauses.WithinGrowthBudget = true;
  D.Verdict = DecisionVerdict::RejectedTradeoff;
  D.DuplicationsPerformed = 2;
  D.Audit = AuditVerdict::Overclaimed;
  E.Decisions.push_back(D);
  D.FunctionName = "plain";
  D.Verdict = DecisionVerdict::Accepted;
  E.Decisions.push_back(D);

  E.Counters.push_back({"dbds.duplications", 3});
  E.Counters.push_back({"vm.steps", 1000});

  CompileCacheEntry::HistogramState HS;
  HS.Component = "dbds";
  HS.Name = "ir_growth_pct";
  HS.Unit = MetricUnit::Percent;
  HS.Class = MetricClass::Deterministic;
  Histogram H;
  H.record(0);
  H.record(17);
  H.record(1u << 20);
  HS.H = H;
  E.Histograms.push_back(HS);

  E.OptimizedIR = "function f(a) {\nentry:\n  ret a\n}\n";
  return E;
}

void expectEntriesEqual(const CompileCacheEntry &A,
                        const CompileCacheEntry &B) {
  EXPECT_EQ(A.CodeSize, B.CodeSize);
  EXPECT_EQ(A.Duplications, B.Duplications);
  EXPECT_EQ(A.Degradation, B.Degradation);
  EXPECT_EQ(A.DynamicCycles, B.DynamicCycles);
  EXPECT_EQ(A.ResultHash, B.ResultHash);
  EXPECT_EQ(A.FaultSites, B.FaultSites);
  EXPECT_EQ(A.Audit.Ran, B.Audit.Ran);
  EXPECT_EQ(A.Audit.Confirmed, B.Audit.Confirmed);
  EXPECT_EQ(A.Audit.Overclaimed, B.Audit.Overclaimed);
  EXPECT_EQ(A.Audit.Underclaimed, B.Audit.Underclaimed);
  EXPECT_EQ(A.Audit.Skipped, B.Audit.Skipped);
  ASSERT_EQ(A.Decisions.size(), B.Decisions.size());
  for (size_t I = 0; I != A.Decisions.size(); ++I) {
    // renderJson covers every rendered field; bit-exact doubles included.
    EXPECT_EQ(A.Decisions[I].renderJson(), B.Decisions[I].renderJson());
    EXPECT_EQ(A.Decisions[I].CyclesSaved, B.Decisions[I].CyclesSaved);
    EXPECT_EQ(A.Decisions[I].Probability, B.Decisions[I].Probability);
  }
  ASSERT_EQ(A.Counters.size(), B.Counters.size());
  for (size_t I = 0; I != A.Counters.size(); ++I) {
    EXPECT_EQ(A.Counters[I].Name, B.Counters[I].Name);
    EXPECT_EQ(A.Counters[I].Value, B.Counters[I].Value);
  }
  ASSERT_EQ(A.Histograms.size(), B.Histograms.size());
  for (size_t I = 0; I != A.Histograms.size(); ++I) {
    EXPECT_EQ(A.Histograms[I].Component, B.Histograms[I].Component);
    EXPECT_EQ(A.Histograms[I].Name, B.Histograms[I].Name);
    EXPECT_EQ(A.Histograms[I].Unit, B.Histograms[I].Unit);
    EXPECT_EQ(A.Histograms[I].Class, B.Histograms[I].Class);
    EXPECT_EQ(A.Histograms[I].H.buckets(), B.Histograms[I].H.buckets());
    EXPECT_EQ(A.Histograms[I].H.count(), B.Histograms[I].H.count());
    EXPECT_EQ(A.Histograms[I].H.sum(), B.Histograms[I].H.sum());
    EXPECT_EQ(A.Histograms[I].H.min(), B.Histograms[I].H.min());
    EXPECT_EQ(A.Histograms[I].H.max(), B.Histograms[I].H.max());
  }
  EXPECT_EQ(A.OptimizedIR, B.OptimizedIR);
}

TEST(CacheSerializationTest, RoundTripPreservesEverything) {
  const CompileCacheKey Key = stableHash128("round-trip");
  const CompileCacheEntry E = makeRichEntry();
  const std::string Text = serializeCacheEntry(Key, E);

  CompileCacheEntry Back;
  ASSERT_TRUE(parseCacheEntry(Text, Key, Back));
  expectEntriesEqual(E, Back);

  // Serialization is deterministic: re-serializing the parsed entry is
  // byte-identical (what makes stored_bytes and disk images stable).
  EXPECT_EQ(serializeCacheEntry(Key, Back), Text);
}

TEST(CacheSerializationTest, EmptyEntryRoundTrips) {
  const CompileCacheKey Key = stableHash128("empty");
  CompileCacheEntry E;
  E.OptimizedIR = "function g() {\nentry:\n  ret 0\n}\n";
  const std::string Text = serializeCacheEntry(Key, E);
  CompileCacheEntry Back;
  ASSERT_TRUE(parseCacheEntry(Text, Key, Back));
  expectEntriesEqual(E, Back);
}

TEST(CacheSerializationTest, AnySingleByteCorruptionIsAMiss) {
  const CompileCacheKey Key = stableHash128("corrupt");
  std::string Text = serializeCacheEntry(Key, makeRichEntry());
  CompileCacheEntry Sink;
  ASSERT_TRUE(parseCacheEntry(Text, Key, Sink));
  // Flip one bit at a sweep of positions: the checksum (or, for bytes
  // inside the checksum line itself, the hex comparison) must reject every
  // single one — fail-open, never a wrong replay.
  for (size_t Pos = 0; Pos < Text.size(); Pos += 7) {
    std::string Bad = Text;
    Bad[Pos] ^= 0x01;
    CompileCacheEntry Out;
    EXPECT_FALSE(parseCacheEntry(Bad, Key, Out))
        << "corruption at byte " << Pos << " parsed successfully";
  }
}

TEST(CacheSerializationTest, TruncationIsAMiss) {
  const CompileCacheKey Key = stableHash128("truncate");
  const std::string Text = serializeCacheEntry(Key, makeRichEntry());
  for (size_t Keep : {size_t(0), size_t(1), Text.size() / 2,
                      Text.size() - 1}) {
    CompileCacheEntry Out;
    EXPECT_FALSE(parseCacheEntry(Text.substr(0, Keep), Key, Out))
        << "truncation to " << Keep << " bytes parsed successfully";
  }
}

TEST(CacheSerializationTest, VersionMismatchIsAMiss) {
  const CompileCacheKey Key = stableHash128("version");
  std::string Text = serializeCacheEntry(Key, makeRichEntry());
  ASSERT_EQ(Text.compare(0, 21, "dbds-compile-cache v3"), 0);
  // A hypothetical v4 writer with a *valid* checksum over its bytes: the
  // version check must run first and reject without touching the payload.
  Text[20] = '4';
  const size_t ChecksumLine = Text.rfind("checksum ");
  ASSERT_NE(ChecksumLine, std::string::npos);
  std::string Body = Text.substr(0, ChecksumLine);
  char Line[32];
  snprintf(Line, sizeof(Line), "checksum %016llx\n",
           static_cast<unsigned long long>(stableHash64(Body)));
  std::string V4 = Body + Line;
  CompileCacheEntry Out;
  EXPECT_FALSE(parseCacheEntry(V4, Key, Out));
}

TEST(CacheSerializationTest, KeyMismatchIsAMiss) {
  const CompileCacheKey Key = stableHash128("the-key");
  const std::string Text = serializeCacheEntry(Key, makeRichEntry());
  CompileCacheEntry Out;
  EXPECT_FALSE(parseCacheEntry(Text, stableHash128("another-key"), Out));
}

TEST(CacheReplayTest, UnparseableIRFailsOpen) {
  CompileCacheEntry E;
  E.OptimizedIR = "this is not ir";
  PreparedReplay R;
  EXPECT_FALSE(prepareReplay(E, R));
}

TEST(CacheReplayTest, UnknownCounterFailsOpen) {
  CompileCacheEntry E;
  E.OptimizedIR = "function f(a) {\nentry:\n  ret a\n}\n";
  E.Counters.push_back({"no_such.counter_at_all", 1});
  PreparedReplay R;
  EXPECT_FALSE(prepareReplay(E, R));
}

//===----------------------------------------------------------------------===//
// The cache container: on-disk store, eviction, insert semantics
//===----------------------------------------------------------------------===//

std::string freshCacheDir(const char *Tag) {
  std::string Dir = ::testing::TempDir() + "dbds-cache-" + Tag + "-" +
                    std::to_string(getpid());
  // Start clean: stale entries from a previous run would turn misses into
  // hits and mask the assertions below.
  std::string Cmd = "rm -rf '" + Dir + "'";
  EXPECT_EQ(system(Cmd.c_str()), 0);
  return Dir;
}

TEST(CacheStoreTest, InMemoryProbeAfterInsert) {
  CompileCache Cache;
  const CompileCacheKey Key = stableHash128("mem");
  EXPECT_EQ(Cache.probe(Key), nullptr);
  Cache.insert(Key, makeRichEntry());
  auto E = Cache.probe(Key);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->CodeSize, 777u);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(CacheStoreTest, FirstInsertWins) {
  CompileCache Cache;
  const CompileCacheKey Key = stableHash128("dup");
  CompileCacheEntry First = makeRichEntry();
  First.CodeSize = 1;
  CompileCacheEntry Second = makeRichEntry();
  Second.CodeSize = 2;
  Cache.insert(Key, std::move(First));
  Cache.insert(Key, std::move(Second));
  auto E = Cache.probe(Key);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->CodeSize, 1u);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(CacheStoreTest, OnDiskRoundTripAcrossProcessBoundary) {
  const std::string Dir = freshCacheDir("roundtrip");
  const CompileCacheKey Key = stableHash128("disk");
  const CompileCacheEntry E = makeRichEntry();
  {
    CompileCache Writer(Dir);
    Writer.insert(Key, E);
  }
  // A fresh cache instance simulates the next process: nothing in memory,
  // the entry loads from disk.
  CompileCache Reader(Dir);
  EXPECT_EQ(Reader.size(), 0u);
  auto Loaded = Reader.probe(Key);
  ASSERT_NE(Loaded, nullptr);
  expectEntriesEqual(E, *Loaded);
  // Disk probes never populate the memory map (wave-time probes must not
  // mutate shared state beyond their shard lock).
  EXPECT_EQ(Reader.size(), 0u);
}

TEST(CacheStoreTest, CorruptedDiskEntryIsAMiss) {
  const std::string Dir = freshCacheDir("corrupt");
  const CompileCacheKey Key = stableHash128("disk-corrupt");
  CompileCache Writer(Dir);
  Writer.insert(Key, makeRichEntry());

  // Flip one byte in the middle of the file.
  const std::string Path = Writer.entryPath(Key);
  FILE *File = fopen(Path.c_str(), "r+b");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(fseek(File, 40, SEEK_SET), 0);
  int C = fgetc(File);
  ASSERT_NE(C, EOF);
  ASSERT_EQ(fseek(File, 40, SEEK_SET), 0);
  fputc(C ^ 0x01, File);
  fclose(File);

  CompileCache Reader(Dir);
  EXPECT_EQ(Reader.probe(Key), nullptr);
}

TEST(CacheStoreTest, VersionMismatchedDiskEntryIsAMiss) {
  const std::string Dir = freshCacheDir("version");
  const CompileCacheKey Key = stableHash128("disk-version");
  CompileCache Writer(Dir);
  Writer.insert(Key, makeRichEntry());

  const std::string Path = Writer.entryPath(Key);
  FILE *File = fopen(Path.c_str(), "r+b");
  ASSERT_NE(File, nullptr);
  // "dbds-compile-cache v3" -> v9 in place.
  ASSERT_EQ(fseek(File, 20, SEEK_SET), 0);
  fputc('9', File);
  fclose(File);

  CompileCache Reader(Dir);
  EXPECT_EQ(Reader.probe(Key), nullptr);
}

TEST(CacheStoreTest, MissingDirectoryFailsOpen) {
  // An uncreatable directory (parent missing) must not break compilation:
  // writes count disk_write_failures, probes miss, memory still serves.
  const std::string Dir =
      ::testing::TempDir() + "no-such-parent-" + std::to_string(getpid()) +
      "/nested/cache";
  CompileCache Cache(Dir);
  const CompileCacheKey Key = stableHash128("nodir");
  Cache.insert(Key, makeRichEntry());
  EXPECT_NE(Cache.probe(Key), nullptr); // memory entry survives
  CompileCache Fresh(Dir);
  EXPECT_EQ(Fresh.probe(Key), nullptr);
}

TEST(CacheStoreTest, EvictionIsFIFOAndBoundsMemory) {
  CompileCache Cache("", /*MaxEntries=*/4);
  std::vector<CompileCacheKey> Keys;
  for (unsigned I = 0; I != 10; ++I) {
    Keys.push_back(stableHash128("evict-" + std::to_string(I)));
    CompileCacheEntry E;
    E.CodeSize = I;
    E.OptimizedIR = "x";
    Cache.insert(Keys.back(), std::move(E));
    EXPECT_LE(Cache.size(), 4u);
  }
  EXPECT_EQ(Cache.size(), 4u);
  // FIFO: the first six inserts are gone, the last four survive.
  for (unsigned I = 0; I != 6; ++I)
    EXPECT_EQ(Cache.probe(Keys[I]), nullptr) << "entry " << I << " survived";
  for (unsigned I = 6; I != 10; ++I) {
    auto E = Cache.probe(Keys[I]);
    ASSERT_NE(E, nullptr) << "entry " << I << " evicted out of order";
    EXPECT_EQ(E->CodeSize, I);
  }
}

TEST(CacheStoreTest, EvictionPropertySweep) {
  // Property: for any capacity C and insert count N of distinct keys,
  // exactly the last min(C, N) inserts are resident, in every case.
  for (size_t Cap : {size_t(1), size_t(2), size_t(3), size_t(8)}) {
    for (unsigned N : {1u, 2u, 5u, 9u, 16u}) {
      CompileCache Cache("", Cap);
      std::vector<CompileCacheKey> Keys;
      for (unsigned I = 0; I != N; ++I) {
        Keys.push_back(stableHash128("sweep-" + std::to_string(Cap) + "-" +
                                     std::to_string(N) + "-" +
                                     std::to_string(I)));
        CompileCacheEntry E;
        E.OptimizedIR = "x";
        Cache.insert(Keys.back(), std::move(E));
      }
      const size_t Resident = std::min(Cap, size_t(N));
      EXPECT_EQ(Cache.size(), Resident);
      for (unsigned I = 0; I != N; ++I) {
        const bool ShouldSurvive = I + Resident >= N;
        EXPECT_EQ(Cache.probe(Keys[I]) != nullptr, ShouldSurvive)
            << "cap " << Cap << " n " << N << " key " << I;
      }
    }
  }
}

TEST(CacheStoreTest, EvictedEntriesReloadFromDisk) {
  // Memory capacity bounds memory, not the store: an evicted entry's disk
  // file persists and the next probe reloads it.
  const std::string Dir = freshCacheDir("reload");
  CompileCache Cache(Dir, /*MaxEntries=*/1);
  const CompileCacheKey A = stableHash128("reload-a");
  const CompileCacheKey B = stableHash128("reload-b");
  CompileCacheEntry EA = makeRichEntry();
  EA.CodeSize = 1;
  Cache.insert(A, std::move(EA));
  CompileCacheEntry EB = makeRichEntry();
  EB.CodeSize = 2;
  Cache.insert(B, std::move(EB)); // evicts A from memory
  EXPECT_EQ(Cache.size(), 1u);
  auto Reloaded = Cache.probe(A);
  ASSERT_NE(Reloaded, nullptr);
  EXPECT_EQ(Reloaded->CodeSize, 1u);
}

//===----------------------------------------------------------------------===//
// Smoke alias subject (the compile_cache_smoke ctest filter)
//===----------------------------------------------------------------------===//

TEST(CompileCacheSmokeTest, ColdThenWarmSingleBenchmark) {
  // The one-benchmark fast path of the equivalence wall: a smoke-sized
  // cold+warm pair for the `cache` preset's quick signal.
  const SuiteSpec Corpus =
      generatorCorpusSuite(/*Seed=*/8800, /*Benchmarks=*/1, /*Functions=*/4,
                           /*Segments=*/4);
  CompileCache Cache;
  RunnerOptions Opts;
  Opts.Verify = true;
  Opts.Cache = &Cache;
  CompileService Service(1);

  auto RunOnce = [&] {
    GeneratedWorkload W = generateWorkload(Corpus.Benchmarks[0].Config);
    CompileBatch Batch = compileFunctionsParallel(
        Service, W, RunConfig::DBDS, Opts, Corpus.Benchmarks[0].Name);
    std::string S = printModule(W.Mod.get());
    for (const FunctionCompileOutcome &O : Batch.Outcomes)
      S += std::to_string(O.ResultHash) + "/" +
           std::to_string(O.DynamicCycles) + "/" +
           std::to_string(O.CodeSize) + "\n";
    return S;
  };
  std::vector<CounterSample> Pre = CounterRegistry::instance().snapshot();
  const std::string Cold = RunOnce();
  const std::string Warm = RunOnce();
  std::vector<CounterSample> Delta =
      CounterRegistry::delta(Pre, CounterRegistry::instance().snapshot());
  EXPECT_EQ(Cold, Warm);
  EXPECT_GT(counterValue(Delta, "cache.hit"), 0u);
}

} // namespace
