//===- bench/FigureBench.h - Shared figure-reproduction driver --*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared driver for the per-figure benchmark binaries (Figures 5-8):
/// measures one suite under baseline / dbds / dupalot and prints the
/// per-benchmark rows plus the geometric-mean footer the paper reports
/// under each figure.
///
/// All flags come from the shared driver-option table
/// (tooling/DriverOptions.h) — run any figure binary with --help for the
/// generated list. The default run is byte-identical to the
/// pre-telemetry drivers.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_BENCH_FIGUREBENCH_H
#define DBDS_BENCH_FIGUREBENCH_H

#include "telemetry/Counters.h"
#include "telemetry/DecisionLog.h"
#include "telemetry/Report.h"
#include "telemetry/Trace.h"
#include "tooling/DriverOptions.h"
#include "workloads/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

namespace dbds {

/// Runs \p Suite and prints the paper-style report. Returns the rows for
/// further aggregation.
inline std::vector<BenchmarkMeasurement>
runFigure(const char *FigureName, const SuiteSpec &Suite) {
  printf("# %s — configurations: baseline (DBDS off), DBDS, dupalot "
         "(no trade-off)\n",
         FigureName);
  printf("# peak: %% faster than baseline (higher is better)\n");
  printf("# ct:   %% compile-time increase (lower is better)\n");
  printf("# cs:   %% code-size increase (lower is better)\n");
  std::vector<BenchmarkMeasurement> Rows = measureSuite(Suite);
  printf("%s\n", formatSuiteReport(Suite.Name, Rows).c_str());
  return Rows;
}

/// The figure drivers' option state: everything is a shared flag.
struct FigureOptions {
  DriverOptions Driver;
  bool Ok = true;
  bool ShowedHelp = false;
};

/// The full shared-flag subset the figure binaries support.
inline DriverOptionsParser makeFigureParser(DriverOptions &D) {
  return DriverOptionsParser(
      D, {DriverFlag::Trace, DriverFlag::Remarks, DriverFlag::Counters,
          DriverFlag::JsonOut, DriverFlag::Jobs, DriverFlag::Metrics,
          DriverFlag::Flamegraph, DriverFlag::SimAudit});
}

inline FigureOptions parseFigureOptions(int argc, char **argv,
                                        const SuiteSpec &Suite) {
  FigureOptions O;
  O.Driver.JsonOutDefault = "BENCH_" + Suite.Name + ".json";
  DriverOptionsParser P = makeFigureParser(O.Driver);
  for (int I = 1; I < argc; ++I) {
    switch (P.parse(argv[I])) {
    case ParseStatus::Handled:
      break;
    case ParseStatus::Help:
      printf("usage: %s %s\noptions:\n%s", argv[0], P.usage().c_str(),
             P.helpText().c_str());
      O.ShowedHelp = true;
      return O;
    case ParseStatus::Error:
      fprintf(stderr, "%s: %s\n", argv[0], P.error().c_str());
      O.Ok = false;
      return O;
    case ParseStatus::Unrecognized:
      fprintf(stderr, "unknown option: %s\nusage: %s %s\n", argv[I],
              argv[0], P.usage().c_str());
      O.Ok = false;
      return O;
    }
  }
  return O;
}

/// Flag-aware main body shared by the figure binaries: measures \p Suite,
/// prints the paper-style report, and emits whatever telemetry artifacts
/// the flags request. Returns the process exit code.
inline int runFigureMain(int argc, char **argv, const char *FigureName,
                         const SuiteSpec &Suite,
                         std::vector<BenchmarkMeasurement> *RowsOut = nullptr) {
  FigureOptions FO = parseFigureOptions(argc, argv, Suite);
  if (FO.ShowedHelp)
    return 0;
  if (!FO.Ok)
    return 2;
  const DriverOptions &O = FO.Driver;

  TraceSession Session;
  DecisionLog Decisions;
  RunnerOptions Opts = O.toRunnerOptions();
  if (!O.RemarksPath.empty())
    Opts.Decisions = &Decisions;
  Opts.CollectCounters = O.DumpCounters || !O.JsonOutPath.empty();

  printf("# %s — configurations: baseline (DBDS off), DBDS, dupalot "
         "(no trade-off)\n",
         FigureName);
  printf("# peak: %% faster than baseline (higher is better)\n");
  printf("# ct:   %% compile-time increase (lower is better)\n");
  printf("# cs:   %% code-size increase (lower is better)\n");

  if (O.Metrics) {
    MetricsRegistry::setEnabled(true);
    MetricsRegistry::instance().resetAll();
  }

  std::vector<BenchmarkMeasurement> Rows;
  {
    std::optional<ScopedTraceAttach> Attach;
    // The flamegraph is folded from the trace spans, so requesting one
    // attaches the session even without --trace.
    if (!O.TracePath.empty() || !O.FlamegraphPath.empty())
      Attach.emplace(Session);
    Rows = measureSuite(Suite, Opts);
  }
  printf("%s\n", formatSuiteReport(Suite.Name, Rows).c_str());

  std::vector<HistogramSample> MetricsSnapshot;
  if (O.Metrics) {
    MetricsSnapshot = MetricsRegistry::instance().snapshot();
    printf("=== metrics ===\n%s",
           MetricsRegistry::renderTable(MetricsSnapshot).c_str());
  }

  if (O.DumpCounters) {
    printf("=== telemetry counters ===\n%s",
           CounterRegistry::renderText(
               CounterRegistry::instance().snapshot(/*SkipZero=*/true))
               .c_str());
  }

  std::string Error;
  if (!O.TracePath.empty()) {
    if (!Session.writeJson(O.TracePath, &Error)) {
      fprintf(stderr, "--trace: %s\n", Error.c_str());
      return 1;
    }
    printf("trace written to %s (%zu events)\n", O.TracePath.c_str(),
           Session.eventCount());
  }
  if (!O.RemarksPath.empty()) {
    if (!Decisions.writeJsonl(O.RemarksPath, &Error)) {
      fprintf(stderr, "--remarks: %s\n", Error.c_str());
      return 1;
    }
    printf("remarks written to %s (%zu decisions)\n", O.RemarksPath.c_str(),
           Decisions.decisions().size());
  }
  if (!O.FlamegraphPath.empty()) {
    if (!Session.writeFolded(O.FlamegraphPath, &Error)) {
      fprintf(stderr, "--flamegraph: %s\n", Error.c_str());
      return 1;
    }
    printf("folded flamegraph written to %s\n", O.FlamegraphPath.c_str());
  }
  if (!O.JsonOutPath.empty()) {
    if (!writeBenchJson(O.JsonOutPath, Suite.Name, Rows, &Error,
                        O.Metrics ? &MetricsSnapshot : nullptr)) {
      fprintf(stderr, "--json-out: %s\n", Error.c_str());
      return 1;
    }
    printf("bench report written to %s\n", O.JsonOutPath.c_str());
  }
  if (RowsOut)
    *RowsOut = std::move(Rows);
  return 0;
}

} // namespace dbds

#endif // DBDS_BENCH_FIGUREBENCH_H
