//===- bench/bench_headline.cpp - Abstract/§6.2 headline numbers ----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Experiment E5 (DESIGN.md): the paper's headline aggregates across all
// four suites — "peak performance improvements of up to 40% with a mean
// peak performance increase of 5.89%, ... mean code size increase of
// 9.93% and mean compile time increase of 18.44%".
//
// Expected shape here: a positive mean peak improvement with individual
// benchmarks far above it, mean code-size increase in the single-digit to
// low-teens percent, and dupalot roughly doubling the cost metrics at
// equal-or-worse peak performance. (Absolute compile-time percentages run
// higher than the paper's because this substrate has no backend: the
// paper's denominators include LIR, register allocation, and emission.)
//
// Regression gating (opt-in): --json-out writes the combined "headline"
// bench report (rows named "suite/benchmark"); --compare=FILE diffs this
// run against a prior report with tools/dbds-stats' engine and exits
// non-zero when any gated field regressed past --compare-threshold — the
// CI hook for catching perf regressions between PRs.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"
#include "telemetry/BenchCompare.h"
#include "telemetry/Metrics.h"
#include "telemetry/Report.h"
#include "tooling/DriverOptions.h"
#include "workloads/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace dbds;

int main(int argc, char **argv) {
  DriverOptions D;
  D.JsonOutDefault = "BENCH_headline.json";
  DriverOptionsParser P(
      D, {DriverFlag::Jobs, DriverFlag::Metrics, DriverFlag::JsonOut,
          DriverFlag::SimAudit});
  std::string ComparePath;
  BenchCompareOptions CompareOpts;
  auto usage = [&](FILE *To) {
    fprintf(To, "usage: %s [--compare=FILE] [--compare-threshold=PCT] %s\n",
            argv[0], P.usage().c_str());
  };
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    switch (P.parse(Arg)) {
    case ParseStatus::Handled:
      continue;
    case ParseStatus::Help:
      usage(stdout);
      printf("options:\n%s"
             "  --compare=FILE           diff this run against a prior "
             "--json-out report\n"
             "  --compare-threshold=PCT  regression-gate tolerance for "
             "--compare\n",
             P.helpText().c_str());
      return 0;
    case ParseStatus::Error:
      fprintf(stderr, "%s: %s\n", argv[0], P.error().c_str());
      return 2;
    case ParseStatus::Unrecognized:
      break;
    }
    if (strncmp(Arg, "--compare=", 10) == 0) {
      ComparePath = Arg + 10;
    } else if (strncmp(Arg, "--compare-threshold=", 20) == 0) {
      CompareOpts.ThresholdPct = strtod(Arg + 20, nullptr);
    } else {
      fprintf(stderr, "unknown option: %s\n", Arg);
      usage(stderr);
      return 2;
    }
  }
  const bool Metrics = D.Metrics;
  const std::string JsonOutPath = D.JsonOutPath;
  RunnerOptions Opts = D.toRunnerOptions();
  // Both --json-out and --compare need the combined report rows; --compare
  // works standalone (render in memory, diff, never write).
  const bool NeedReport = !JsonOutPath.empty() || !ComparePath.empty();
  Opts.CollectCounters = Opts.CollectCounters || NeedReport;

  if (Metrics) {
    MetricsRegistry::setEnabled(true);
    MetricsRegistry::instance().resetAll();
  }

  std::vector<double> DBDSPeak, DBDSCt, DBDSCs;
  std::vector<double> DupPeak, DupCt, DupCs;
  double MaxPeak = 0.0;
  std::string MaxPeakName;
  SimAuditCounts Audit;
  // Combined report rows, names qualified "suite/benchmark" so the four
  // suites coexist in one document and compare runs match by full name.
  std::vector<BenchmarkMeasurement> AllRows;

  for (const SuiteSpec &Suite : allSuites()) {
    printf("measuring %s...\n", Suite.Name.c_str());
    for (BenchmarkMeasurement &M : measureSuite(Suite, Opts)) {
      Audit.accumulate(M.DBDS.Audit);
      double Peak = M.peakImprovementPercent(M.DBDS);
      DBDSPeak.push_back(1.0 + Peak / 100.0);
      DBDSCt.push_back(1.0 + M.compileTimeIncreasePercent(M.DBDS) / 100.0);
      DBDSCs.push_back(1.0 + M.codeSizeIncreasePercent(M.DBDS) / 100.0);
      DupPeak.push_back(1.0 +
                        M.peakImprovementPercent(M.DupALot) / 100.0);
      DupCt.push_back(1.0 +
                      M.compileTimeIncreasePercent(M.DupALot) / 100.0);
      DupCs.push_back(1.0 + M.codeSizeIncreasePercent(M.DupALot) / 100.0);
      if (Peak > MaxPeak) {
        MaxPeak = Peak;
        MaxPeakName = Suite.Name + "/" + M.Name;
      }
      if (NeedReport) {
        M.Name = Suite.Name + "/" + M.Name;
        AllRows.push_back(std::move(M));
      }
    }
  }

  auto Geo = [](std::vector<double> &V) {
    return (geometricMean(ArrayRef<double>(V)) - 1.0) * 100.0;
  };
  printf("\n=== Headline aggregates over all %zu benchmarks ===\n",
         DBDSPeak.size());
  printf("paper:  DBDS mean peak +5.89%%, max +40%%, mean code size "
         "+9.93%%, mean compile time +18.44%%\n");
  printf("ours:   DBDS mean peak %+.2f%%, max %+.2f%% (%s)\n",
         Geo(DBDSPeak), MaxPeak, MaxPeakName.c_str());
  printf("        DBDS mean code size %+.2f%%, mean compile time %+.2f%%\n",
         Geo(DBDSCs), Geo(DBDSCt));
  printf("        dupalot mean peak %+.2f%%, code size %+.2f%%, compile "
         "time %+.2f%%\n",
         Geo(DupPeak), Geo(DupCs), Geo(DupCt));
  if (Audit.Ran)
    printf("        simulation audit (dbds): %llu confirmed, %llu "
           "overclaimed, %llu underclaimed, %llu skipped — precision "
           "%.3f, recall %.3f\n",
           static_cast<unsigned long long>(Audit.Confirmed),
           static_cast<unsigned long long>(Audit.Overclaimed),
           static_cast<unsigned long long>(Audit.Underclaimed),
           static_cast<unsigned long long>(Audit.Skipped), Audit.precision(),
           Audit.recall());

  std::vector<HistogramSample> MetricsSnapshot;
  if (Metrics) {
    MetricsSnapshot = MetricsRegistry::instance().snapshot();
    printf("\n=== metrics ===\n%s",
           MetricsRegistry::renderTable(MetricsSnapshot).c_str());
  }

  std::string NewReport;
  if (!JsonOutPath.empty()) {
    NewReport = renderBenchJson("headline", AllRows,
                                Metrics ? &MetricsSnapshot : nullptr);
    FILE *File = fopen(JsonOutPath.c_str(), "wb");
    if (!File || fwrite(NewReport.data(), 1, NewReport.size(), File) !=
                     NewReport.size()) {
      fprintf(stderr, "--json-out: cannot write '%s'\n", JsonOutPath.c_str());
      if (File)
        fclose(File);
      return 1;
    }
    fclose(File);
    printf("bench report written to %s\n", JsonOutPath.c_str());
  }

  if (!ComparePath.empty()) {
    if (NewReport.empty())
      NewReport = renderBenchJson("headline", AllRows,
                                  Metrics ? &MetricsSnapshot : nullptr);
    std::string OldReport, Error;
    if (!readFileToString(ComparePath, OldReport, &Error)) {
      fprintf(stderr, "--compare: %s\n", Error.c_str());
      return 2;
    }
    BenchCompareResult R =
        compareBenchReports(OldReport, NewReport, CompareOpts);
    printf("\n=== regression gate vs %s (threshold %.1f%%) ===\n%s",
           ComparePath.c_str(), CompareOpts.ThresholdPct,
           R.render().c_str());
    if (!R.Ok)
      return 2;
    // A gate that compared nothing gates nothing: treat it as a
    // configuration error rather than a silent pass.
    if (R.Compared == 0) {
      fprintf(stderr,
              "--compare: 0 comparisons performed (no benchmark names "
              "matched %s) — refusing to pass an empty gate\n",
              ComparePath.c_str());
      return 2;
    }
    if (R.Regressions != 0)
      return 1;
  }
  return 0;
}
