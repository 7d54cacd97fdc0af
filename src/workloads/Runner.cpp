//===- workloads/Runner.cpp - Benchmark measurement harness ----------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Runner.h"

#include "support/Diagnostics.h"
#include "support/Statistics.h"
#include "telemetry/Json.h"
#include "telemetry/Trace.h"
#include "workloads/CompileService.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace dbds;

const char *dbds::runConfigName(RunConfig Config) {
  switch (Config) {
  case RunConfig::Baseline:
    return "baseline";
  case RunConfig::DBDS:
    return "dbds";
  case RunConfig::DupALot:
    return "dupalot";
  }
  return "?";
}

namespace {

void diagnose(const RunnerOptions &Opts, DiagKind Kind,
              const std::string &Component, const std::string &Fn,
              const std::string &Msg) {
  if (Opts.Diags)
    Opts.Diags->report(Kind, Component, Fn, Msg);
}

ConfigMeasurement measureConfig(CompileService &Service,
                                const BenchmarkSpec &Spec, RunConfig Config,
                                const RunnerOptions &Opts) {
  TraceSession *TS = TraceSession::active();
  TraceSpan ConfigSpan(TS, runConfigName(Config), "runner",
                       TS ? "\"benchmark\":" + jsonString(Spec.Name)
                          : std::string());
  std::vector<CounterSample> PreCounters;
  if (Opts.CollectCounters)
    PreCounters = CounterRegistry::instance().snapshot();

  // Regenerate from the seed: each configuration optimizes an identical
  // program (block/instruction pointers differ; semantics do not).
  GeneratedWorkload W = generateWorkload(Spec.Config);

  // The per-function pipeline runs on the compile service — sharded across
  // workers at --jobs=N, inline at --jobs=1 — and hands back per-function
  // outcomes in function index order either way.
  CompileBatch Batch =
      compileFunctionsParallel(Service, W, Config, Opts, Spec.Name);

  ConfigMeasurement Out;
  for (const FunctionCompileOutcome &O : Batch.Outcomes) {
    Out.DynamicCycles += O.DynamicCycles;
    Out.CompileTimeMs += O.CompileTimeMs;
    Out.CodeSize += O.CodeSize;
    Out.Duplications += O.Duplications;
    Out.Rollbacks += O.Rollbacks;
    Out.RunFailures += O.RunFailures;
    if (O.Degradation != DegradationLevel::None) {
      ++Out.FunctionsDegraded;
      Out.MaxDegradation = std::max(Out.MaxDegradation, O.Degradation);
    }
    // Module hash = index-ordered fold of per-function hashes, so it is
    // independent of completion order.
    Out.ResultHash = resultHashCombine(Out.ResultHash, O.ResultHash);
    Out.Audit.accumulate(O.Audit);
  }
  if (Opts.CollectCounters)
    Out.Counters = CounterRegistry::delta(
        PreCounters, CounterRegistry::instance().snapshot());
  return Out;
}

BenchmarkMeasurement measureBenchmarkOn(CompileService &Service,
                                        const BenchmarkSpec &Spec,
                                        const RunnerOptions &Opts) {
  BenchmarkMeasurement M;
  M.Name = Spec.Name;
  M.Baseline = measureConfig(Service, Spec, RunConfig::Baseline, Opts);
  M.DBDS = measureConfig(Service, Spec, RunConfig::DBDS, Opts);
  M.DupALot = measureConfig(Service, Spec, RunConfig::DupALot, Opts);

  // Correctness gate: optimization must not change program results. A
  // divergence is a finding, not a process death — one bad candidate must
  // not kill the whole suite (FailFast restores the legacy abort).
  if (M.Baseline.ResultHash != M.DBDS.ResultHash ||
      M.Baseline.ResultHash != M.DupALot.ResultHash) {
    fprintf(stderr, "MISCOMPILE on benchmark %s: result hashes differ\n",
            Spec.Name.c_str());
    if (Opts.FailFast)
      abort();
    M.ResultsAgree = false;
    diagnose(Opts, DiagKind::Error, "runner", "",
             "MISCOMPILE on benchmark " + Spec.Name +
                 ": result hashes differ across configurations");
  }
  return M;
}

} // namespace

BenchmarkMeasurement dbds::measureBenchmark(const BenchmarkSpec &Spec,
                                            const RunnerOptions &Opts) {
  CompileService Service(Opts.Jobs);
  return measureBenchmarkOn(Service, Spec, Opts);
}

BenchmarkMeasurement dbds::measureBenchmark(const BenchmarkSpec &Spec) {
  return measureBenchmark(Spec, RunnerOptions());
}

std::vector<BenchmarkMeasurement> dbds::measureSuite(const SuiteSpec &Suite,
                                                     const RunnerOptions &Opts) {
  // One service for the whole suite: workers park between benchmarks
  // instead of being respawned per measurement.
  CompileService Service(Opts.Jobs);
  std::vector<BenchmarkMeasurement> Rows;
  Rows.reserve(Suite.Benchmarks.size());
  for (const BenchmarkSpec &Spec : Suite.Benchmarks)
    Rows.push_back(measureBenchmarkOn(Service, Spec, Opts));
  return Rows;
}

std::vector<BenchmarkMeasurement> dbds::measureSuite(const SuiteSpec &Suite) {
  return measureSuite(Suite, RunnerOptions());
}

std::string
dbds::formatSuiteReport(const std::string &SuiteName,
                        const std::vector<BenchmarkMeasurement> &Rows) {
  std::string Out;
  char Line[256];
  snprintf(Line, sizeof(Line),
           "=== %s: peak performance / compile time / code size "
           "(vs. baseline, %%) ===\n",
           SuiteName.c_str());
  Out += Line;
  snprintf(Line, sizeof(Line), "%-14s | %21s | %21s\n", "benchmark",
           "DBDS  peak    ct    cs", "dupalot peak   ct    cs");
  Out += Line;

  std::vector<double> DPeak, DCt, DCs, APeak, ACt, ACs;
  std::string Notes;
  for (const BenchmarkMeasurement &M : Rows) {
    double Dp = M.peakImprovementPercent(M.DBDS);
    double Dt = M.compileTimeIncreasePercent(M.DBDS);
    double Ds = M.codeSizeIncreasePercent(M.DBDS);
    double Ap = M.peakImprovementPercent(M.DupALot);
    double At = M.compileTimeIncreasePercent(M.DupALot);
    double As = M.codeSizeIncreasePercent(M.DupALot);
    snprintf(Line, sizeof(Line),
             "%-14s | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f\n",
             M.Name.c_str(), Dp, Dt, Ds, Ap, At, As);
    Out += Line;
    DPeak.push_back(1.0 + Dp / 100.0);
    DCt.push_back(1.0 + Dt / 100.0);
    DCs.push_back(1.0 + Ds / 100.0);
    APeak.push_back(1.0 + Ap / 100.0);
    ACt.push_back(1.0 + At / 100.0);
    ACs.push_back(1.0 + As / 100.0);

    // Degradation / correctness footnotes: a degraded or diverging row is
    // reported, never silently folded into the geomean.
    if (!M.ResultsAgree)
      Notes += "note: " + M.Name +
               ": MISCOMPILE — results differ across configurations\n";
    const std::pair<const char *, const ConfigMeasurement *> Configs[] = {
        {"dbds", &M.DBDS}, {"dupalot", &M.DupALot}};
    for (const auto &[Cfg, CM] : Configs) {
      if (CM->FunctionsDegraded != 0) {
        snprintf(Line, sizeof(Line),
                 "note: %s/%s: %u function(s) hit the compile budget "
                 "(degraded to %s)\n",
                 M.Name.c_str(), Cfg, CM->FunctionsDegraded,
                 degradationLevelName(CM->MaxDegradation));
        Notes += Line;
      }
      if (CM->Rollbacks != 0) {
        snprintf(Line, sizeof(Line), "note: %s/%s: %u phase rollback(s)\n",
                 M.Name.c_str(), Cfg, CM->Rollbacks);
        Notes += Line;
      }
      if (CM->Audit.Ran) {
        snprintf(Line, sizeof(Line),
                 "note: %s/%s: simulation audit: %llu confirmed, "
                 "%llu overclaimed, %llu underclaimed, %llu skipped "
                 "(precision %.3f, recall %.3f)\n",
                 M.Name.c_str(), Cfg,
                 static_cast<unsigned long long>(CM->Audit.Confirmed),
                 static_cast<unsigned long long>(CM->Audit.Overclaimed),
                 static_cast<unsigned long long>(CM->Audit.Underclaimed),
                 static_cast<unsigned long long>(CM->Audit.Skipped),
                 CM->Audit.precision(), CM->Audit.recall());
        Notes += Line;
      }
    }
  }
  auto Geo = [](std::vector<double> &V) {
    return (geometricMean(ArrayRef<double>(V)) - 1.0) * 100.0;
  };
  snprintf(Line, sizeof(Line),
           "%-14s | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f\n",
           "geomean", Geo(DPeak), Geo(DCt), Geo(DCs), Geo(APeak), Geo(ACt),
           Geo(ACs));
  Out += Line;
  // Spread summary: the geomean hides skew (one octane-raytrace-style
  // regression vanishes into it, §6.2), so report median and sample
  // stddev of the same per-benchmark percentages.
  auto Med = [](std::vector<double> &V) {
    return (median(ArrayRef<double>(V)) - 1.0) * 100.0;
  };
  auto Sd = [](std::vector<double> &V) {
    return stddev(ArrayRef<double>(V)) * 100.0;
  };
  snprintf(Line, sizeof(Line),
           "%-14s | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f\n",
           "median", Med(DPeak), Med(DCt), Med(DCs), Med(APeak), Med(ACt),
           Med(ACs));
  Out += Line;
  snprintf(Line, sizeof(Line),
           "%-14s | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f\n",
           "stddev", Sd(DPeak), Sd(DCt), Sd(DCs), Sd(APeak), Sd(ACt),
           Sd(ACs));
  Out += Line;
  Out += Notes;
  return Out;
}
