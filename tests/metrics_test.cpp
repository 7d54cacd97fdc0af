//===- tests/metrics_test.cpp - Histogram metrics layer tests --------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The metrics tentpole's contract, tested bottom-up: log2-bucket
// histogram arithmetic (bucketing, merge ≡ record-all, percentile
// sanity), the registry (identity, gating, deterministic-only filtering,
// stable JSON), shard buffering, the folded-flamegraph derivation
// against a golden fixture, the BenchCompare regression engine, and the
// headline acceptance criterion: the deterministic metrics JSON is
// byte-identical between --jobs=1 and --jobs=8 over a generated corpus.
//
//===----------------------------------------------------------------------===//

#include "telemetry/BenchCompare.h"
#include "telemetry/JsonValue.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"
#include "workloads/CompileService.h"
#include "workloads/Runner.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <thread>

#include <gtest/gtest.h>

using namespace dbds;

namespace {

//===----------------------------------------------------------------------===//
// Histogram core
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly {0}; bucket b holds the values of bit width b.
  EXPECT_EQ(Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX), 64u);
  for (unsigned B = 1; B != Histogram::NumBuckets; ++B) {
    EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketLo(B)), B);
    EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketHi(B)), B);
  }
}

TEST(HistogramTest, RecordAccumulatesScalars) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  H.record(7);
  H.record(3);
  H.record(0);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sum(), 10u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 7u);
  EXPECT_DOUBLE_EQ(H.mean(), 10.0 / 3.0);
}

TEST(HistogramTest, MergeEqualsRecordAll) {
  // The determinism contract's foundation: merging shard histograms in
  // any grouping gives the same state as recording everything into one.
  Histogram All, A, B, C;
  for (uint64_t V = 0; V != 300; ++V) {
    All.record(V * V % 977);
    (V % 3 == 0 ? A : V % 3 == 1 ? B : C).record(V * V % 977);
  }
  A.merge(B);
  A.merge(C);
  EXPECT_EQ(A.count(), All.count());
  EXPECT_EQ(A.sum(), All.sum());
  EXPECT_EQ(A.min(), All.min());
  EXPECT_EQ(A.max(), All.max());
  EXPECT_EQ(A.buckets(), All.buckets());
  EXPECT_DOUBLE_EQ(A.percentile(50), All.percentile(50));
  EXPECT_DOUBLE_EQ(A.percentile(99), All.percentile(99));
}

TEST(HistogramTest, PercentileSanity) {
  Histogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  // Log2 buckets bound the estimate by the bucket containing the true
  // quantile: p50 of 1..1000 lies in [256, 511], p99 in [512, 1000].
  EXPECT_GE(H.percentile(50), 256.0);
  EXPECT_LE(H.percentile(50), 511.0);
  EXPECT_GE(H.percentile(99), 512.0);
  EXPECT_LE(H.percentile(99), 1000.0);
  // Interpolation clamps to the recorded extremes.
  EXPECT_DOUBLE_EQ(H.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(H.percentile(100), 1000.0);
  // Monotone in Q.
  EXPECT_LE(H.percentile(50), H.percentile(90));
  EXPECT_LE(H.percentile(90), H.percentile(99));
}

TEST(HistogramTest, PercentileExactForSingleValue) {
  Histogram H;
  for (int I = 0; I != 10; ++I)
    H.record(42);
  EXPECT_DOUBLE_EQ(H.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(H.percentile(99), 42.0);
}

//===----------------------------------------------------------------------===//
// Registry, gating, shards
//===----------------------------------------------------------------------===//

/// RAII: enables metrics for one test, restores the prior state after.
struct ScopedMetrics {
  bool Was;
  ScopedMetrics() : Was(MetricsRegistry::enabled()) {
    MetricsRegistry::setEnabled(true);
  }
  ~ScopedMetrics() { MetricsRegistry::setEnabled(Was); }
};

TEST(MetricsRegistryTest, GetOrCreateReturnsSameInstance) {
  TelemetryHistogram &A = MetricsRegistry::instance().getOrCreate(
      "test_registry", "identity", MetricUnit::Count,
      MetricClass::Deterministic);
  TelemetryHistogram &B = MetricsRegistry::instance().getOrCreate(
      "test_registry", "identity", MetricUnit::Count,
      MetricClass::Deterministic);
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(A.qualifiedName(), "test_registry.identity");
}

TEST(MetricsRegistryTest, GetOrCreateConcurrentFirstUseIsRaceFree) {
  // Regression test: getOrCreate used to construct (and self-register) the
  // new histogram outside the registry lock, then erase and destroy the
  // loser of a naming race — a concurrent getOrCreate or snapshot() could
  // retain the doomed pointer. All threads must agree on one instance per
  // name, with snapshots running concurrently.
  constexpr unsigned Threads = 8, Names = 4;
  std::array<std::atomic<TelemetryHistogram *>, Names> First{};
  std::atomic<bool> Mismatch{false};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&First, &Mismatch] {
      for (unsigned N = 0; N != Names; ++N) {
        TelemetryHistogram &H = MetricsRegistry::instance().getOrCreate(
            "test_registry_race", "name" + std::to_string(N),
            MetricUnit::Count, MetricClass::Deterministic);
        TelemetryHistogram *Expected = nullptr;
        if (!First[N].compare_exchange_strong(Expected, &H) && Expected != &H)
          Mismatch = true;
        (void)MetricsRegistry::instance().snapshot();
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_FALSE(Mismatch);
}

TEST(MetricsRegistryTest, DisabledRecordIsDropped) {
  TelemetryHistogram &H = MetricsRegistry::instance().getOrCreate(
      "test_registry", "gated", MetricUnit::Count,
      MetricClass::Deterministic);
  H.reset();
  ASSERT_FALSE(MetricsRegistry::enabled());
  H.record(5); // detached: the site must drop the sample
  EXPECT_EQ(H.read().count(), 0u);
  {
    ScopedMetrics On;
    H.record(5);
  }
  EXPECT_EQ(H.read().count(), 1u);
  H.reset();
}

TEST(MetricsRegistryTest, DeterministicOnlySnapshotFiltersTiming) {
  ScopedMetrics On;
  TelemetryHistogram &D = MetricsRegistry::instance().getOrCreate(
      "test_registry", "det_only", MetricUnit::Count,
      MetricClass::Deterministic);
  TelemetryHistogram &T = MetricsRegistry::instance().getOrCreate(
      "test_registry", "timing_only", MetricUnit::Nanoseconds,
      MetricClass::Timing);
  D.reset();
  T.reset();
  D.record(1);
  T.record(1);
  bool SawDet = false, SawTiming = false;
  for (const HistogramSample &S :
       MetricsRegistry::instance().snapshot(/*DeterministicOnly=*/true)) {
    if (S.Name == "test_registry.det_only")
      SawDet = true;
    if (S.Name == "test_registry.timing_only")
      SawTiming = true;
  }
  EXPECT_TRUE(SawDet);
  EXPECT_FALSE(SawTiming);
  D.reset();
  T.reset();
}

TEST(MetricsRegistryTest, RenderJsonIsStableAndParses) {
  ScopedMetrics On;
  TelemetryHistogram &H = MetricsRegistry::instance().getOrCreate(
      "test_registry", "json", MetricUnit::Bytes, MetricClass::Deterministic);
  H.reset();
  H.record(0);
  H.record(3);
  H.record(100);
  std::vector<HistogramSample> Snap;
  for (const HistogramSample &S : MetricsRegistry::instance().snapshot())
    if (S.Name == "test_registry.json")
      Snap.push_back(S);
  ASSERT_EQ(Snap.size(), 1u);

  std::string Json = MetricsRegistry::renderJson(Snap);
  // Equal snapshots render byte-identically (the determinism test's
  // comparison primitive).
  EXPECT_EQ(Json, MetricsRegistry::renderJson(Snap));

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  const JsonValue *S = Doc.get("test_registry.json");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->getNumber("count"), 3.0);
  EXPECT_EQ(S->getNumber("sum"), 103.0);
  EXPECT_EQ(S->getNumber("max"), 100.0);
  const JsonValue *Unit = S->get("unit");
  ASSERT_NE(Unit, nullptr);
  EXPECT_EQ(Unit->asString(), "bytes");
  H.reset();
}

TEST(JsonValueNumberTest, EnforcesTheJsonNumberGrammar) {
  // The parser scans the strict JSON number grammar before strtod;
  // otherwise strtod's extensions (inf/nan, hex floats, leading '+')
  // would round-trip non-JSON tokens into comparisons as valid numbers.
  JsonValue V;
  for (const char *Bad : {"nan", "nancy", "inf", "-inf", "0x1p3", "+5", "01",
                          "1.", ".5", "1e", "1e+", "-"})
    EXPECT_FALSE(JsonValue::parse(std::string("[") + Bad + "]", V, nullptr))
        << "accepted non-JSON number: " << Bad;
  for (const char *Good :
       {"0", "-0", "10", "-1.5e-3", "0.25", "1E+2", "20e0"}) {
    EXPECT_TRUE(JsonValue::parse(std::string("[") + Good + "]", V, nullptr))
        << "rejected valid JSON number: " << Good;
    ASSERT_EQ(V.size(), 1u);
    EXPECT_EQ(V.at(0)->asDouble(), strtod(Good, nullptr));
  }
}

TEST(MetricsShardTest, ShardBuffersUntilPublished) {
  ScopedMetrics On;
  TelemetryHistogram &H = MetricsRegistry::instance().getOrCreate(
      "test_registry", "sharded", MetricUnit::Count,
      MetricClass::Deterministic);
  H.reset();
  MetricsShard::Buffer Taken;
  {
    MetricsShard Shard;
    H.record(11);
    H.record(13);
    // Buffered in the shard: the published global state is still empty.
    EXPECT_EQ(H.read().count(), 0u);
    Taken = Shard.take();
  }
  // take() emptied the shard, so its destructor had nothing to publish.
  EXPECT_EQ(H.read().count(), 0u);
  MetricsShard::publish(Taken);
  Histogram Global = H.read();
  EXPECT_EQ(Global.count(), 2u);
  EXPECT_EQ(Global.sum(), 24u);
  H.reset();
}

TEST(MetricsShardTest, DestructorPublishesUntakenBuffer) {
  ScopedMetrics On;
  TelemetryHistogram &H = MetricsRegistry::instance().getOrCreate(
      "test_registry", "shard_dtor", MetricUnit::Count,
      MetricClass::Deterministic);
  H.reset();
  {
    MetricsShard Shard;
    H.record(7);
  }
  EXPECT_EQ(H.read().count(), 1u);
  H.reset();
}

//===----------------------------------------------------------------------===//
// Folded flamegraph derivation
//===----------------------------------------------------------------------===//

TraceEvent mkEvent(char Phase, const char *Name, uint64_t Us,
                   uint32_t Thread = 0) {
  TraceEvent E;
  E.Phase = Phase;
  E.Name = Name;
  E.TimestampNs = Us * 1000;
  E.ThreadId = Thread;
  return E;
}

TEST(FoldedFlameTest, GoldenNestedStacks) {
  // compile[0..100us] { simulate[10..40], optimize[50..90] } — self time:
  // compile 30us (10 + 10 + 10), simulate 30us, optimize 40us.
  std::vector<TraceEvent> Events = {
      mkEvent('B', "compile", 0),   mkEvent('B', "simulate", 10),
      mkEvent('E', "simulate", 40), mkEvent('B', "optimize", 50),
      mkEvent('E', "optimize", 90), mkEvent('E', "compile", 100),
  };
  EXPECT_EQ(renderFoldedStacks(Events),
            "compile 30\n"
            "compile;optimize 40\n"
            "compile;simulate 30\n");
}

TEST(FoldedFlameTest, ThreadsFoldIndependentlyThenAggregate) {
  // The same stack on two threads sums; a thread-private stack stands
  // alone. Output order is lexicographic regardless of event order.
  std::vector<TraceEvent> Events = {
      mkEvent('B', "compile", 0, 0),  mkEvent('B', "compile", 0, 1),
      mkEvent('B', "other", 20, 1),   mkEvent('E', "other", 30, 1),
      mkEvent('E', "compile", 10, 0), mkEvent('E', "compile", 30, 1),
  };
  EXPECT_EQ(renderFoldedStacks(Events), "compile 30\n"
                                        "compile;other 10\n");
}

TEST(FoldedFlameTest, InstantEventsAndEmptyStreamsAreHarmless) {
  EXPECT_EQ(renderFoldedStacks({}), "");
  std::vector<TraceEvent> Events = {
      mkEvent('B', "compile", 0),
      mkEvent('i', "quarantine", 5),
      mkEvent('E', "compile", 20),
  };
  EXPECT_EQ(renderFoldedStacks(Events), "compile 20\n");
}

TEST(FoldedFlameTest, UnbalancedSessionRefusesToWrite) {
  TraceSession Session;
  {
    ScopedTraceAttach Attach(Session);
    TraceSpan Open(&Session, "left-open", "test");
    std::string Error;
    EXPECT_FALSE(Session.writeFolded("/nonexistent-dir/x.folded", &Error));
    EXPECT_NE(Error.find("unbalanced"), std::string::npos) << Error;
  }
}

//===----------------------------------------------------------------------===//
// BenchCompare engine
//===----------------------------------------------------------------------===//

std::string tinyReport(double Cycles, double Ms, double Size) {
  char Buf[512];
  snprintf(Buf, sizeof(Buf),
           "{\"schema\":\"dbds-bench-report\",\"version\":2,"
           "\"suite\":\"t\",\"benchmarks\":[{\"name\":\"b\",\"configs\":{"
           "\"dbds\":{\"dynamic_cycles\":%.1f,\"compile_time_ms\":%.3f,"
           "\"code_size\":%.1f}}}]}",
           Cycles, Ms, Size);
  return Buf;
}

TEST(BenchCompareTest, IdenticalReportsHaveNoRegressions) {
  std::string R = tinyReport(1000, 10, 200);
  BenchCompareResult Res = compareBenchReports(R, R, BenchCompareOptions());
  EXPECT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Regressions, 0u);
  EXPECT_GT(Res.Compared, 0u);
}

TEST(BenchCompareTest, RegressionPastThresholdGates) {
  BenchCompareOptions Opts; // 10%
  BenchCompareResult Res = compareBenchReports(
      tinyReport(1000, 10, 200), tinyReport(1150, 10, 200), Opts);
  EXPECT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Regressions, 1u); // +15% cycles
  Opts.ThresholdPct = 20.0;
  Res = compareBenchReports(tinyReport(1000, 10, 200),
                            tinyReport(1150, 10, 200), Opts);
  EXPECT_EQ(Res.Regressions, 0u);
}

TEST(BenchCompareTest, ImprovementsNeverGate) {
  BenchCompareResult Res =
      compareBenchReports(tinyReport(1000, 10, 200), tinyReport(500, 5, 100),
                          BenchCompareOptions());
  EXPECT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Regressions, 0u);
}

std::string counterReport(const char *Counters) {
  std::string Out =
      "{\"schema\":\"dbds-bench-report\",\"version\":2,"
      "\"suite\":\"t\",\"benchmarks\":[{\"name\":\"b\",\"configs\":{"
      "\"dbds\":{\"dynamic_cycles\":1000,\"compile_time_ms\":10,"
      "\"code_size\":200,\"counters\":{";
  Out += Counters;
  Out += "}}}}]}";
  return Out;
}

// The pea.* family is optimizer work done, so it gates on shrinkage:
// fewer stores eliminated / allocations virtualized than the baseline run
// is the regression, growth never is.
TEST(BenchCompareTest, PeaCounterShrinkageGates) {
  BenchCompareOptions Opts; // 10% threshold
  BenchCompareResult Res = compareBenchReports(
      counterReport("\"pea.stores_eliminated\":100"),
      counterReport("\"pea.stores_eliminated\":80"), Opts);
  EXPECT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Regressions, 1u);

  Res = compareBenchReports(counterReport("\"pea.stores_eliminated\":100"),
                            counterReport("\"pea.stores_eliminated\":200"),
                            Opts);
  EXPECT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Regressions, 0u);
}

TEST(BenchCompareTest, PeaCounterMissingOnNewSideIsACollapseToZero) {
  // Zero-valued counters are omitted from reports, so a vanished
  // pea.allocs_sunk means the sinking stopped happening entirely — the
  // worst shrinkage. A key only the new side has is not comparable.
  BenchCompareResult Res = compareBenchReports(
      counterReport("\"pea.allocs_sunk\":5"),
      counterReport("\"pea.stores_eliminated\":5"), BenchCompareOptions());
  EXPECT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Regressions, 1u);
}

TEST(BenchCompareTest, MalformedInputFailsClosed) {
  BenchCompareResult Res = compareBenchReports("nonsense", "also nonsense",
                                               BenchCompareOptions());
  EXPECT_FALSE(Res.Ok);
  EXPECT_FALSE(Res.Error.empty());
}

//===----------------------------------------------------------------------===//
// The acceptance criterion: deterministic metrics across --jobs
//===----------------------------------------------------------------------===//

/// Compiles the 5-seed generated corpus under all three configs at the
/// given parallelism and returns the deterministic-class metrics JSON.
std::string corpusDeterministicMetricsJson(unsigned Jobs) {
  const SuiteSpec Corpus =
      generatorCorpusSuite(/*Seed=*/900, /*Benchmarks=*/5, /*Functions=*/5,
                           /*Segments=*/5);
  MetricsRegistry::instance().resetAll();
  RunnerOptions Opts;
  Opts.Verify = true;
  CompileService Service(Jobs);
  const RunConfig Configs[] = {RunConfig::Baseline, RunConfig::DBDS,
                               RunConfig::DupALot};
  for (const BenchmarkSpec &Spec : Corpus.Benchmarks) {
    for (RunConfig Config : Configs) {
      GeneratedWorkload W = generateWorkload(Spec.Config);
      compileFunctionsParallel(Service, W, Config, Opts, Spec.Name);
    }
  }
  std::string Json = MetricsRegistry::renderJson(
      MetricsRegistry::instance().snapshot(/*DeterministicOnly=*/true));
  MetricsRegistry::instance().resetAll();
  return Json;
}

TEST(MetricsDeterminismTest, JobsOneAndJobsEightMetricsAreByteIdentical) {
  ScopedMetrics On;
  std::string Serial = corpusDeterministicMetricsJson(1);
  std::string Parallel = corpusDeterministicMetricsJson(8);
  // The metrics must exist (the corpus compiles real functions)...
  EXPECT_NE(Serial.find("compile_service.ir_growth_pct"), std::string::npos);
  EXPECT_NE(Serial.find("interpreter.run_steps"), std::string::npos);
  // ...and the deterministic-class JSON must not depend on scheduling.
  EXPECT_EQ(Serial, Parallel);
}

} // namespace
