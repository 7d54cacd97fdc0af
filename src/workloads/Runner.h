//===- workloads/Runner.h - Benchmark measurement harness -------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark under the paper's three configurations — baseline
/// (DBDS disabled), dbds, and dupalot (simulation without trade-off) —
/// and measures the three §6.1 metrics: peak performance (dynamic
/// cost-model cycles on evaluation inputs; lower is faster), compile time
/// (wall clock of the optimization pipeline), and code size (static size
/// estimate after optimization). Every run cross-checks program results
/// across configurations, so the harness doubles as an end-to-end
/// correctness test.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_WORKLOADS_RUNNER_H
#define DBDS_WORKLOADS_RUNNER_H

#include "analysis/SimAudit.h"
#include "support/Budget.h"
#include "telemetry/Counters.h"
#include "workloads/Suites.h"

#include <string>
#include <vector>

namespace dbds {

class CompileCache;
class DecisionLog;
class DiagnosticEngine;
class FaultInjector;

/// The three configurations of §6.1.
enum class RunConfig { Baseline, DBDS, DupALot };

const char *runConfigName(RunConfig Config);

/// One conflict or out-of-range knob found by RunnerOptions::validate(),
/// phrased in the drivers' flag vocabulary so it can be printed verbatim
/// as a usage error.
struct RunnerOptionDiagnostic {
  std::string Option;  ///< The flag as drivers expose it
                       ///< ("--compile-cache").
  std::string Message; ///< What is wrong with its value or combination.
};

/// Harness robustness knobs. The defaults degrade gracefully: faults are
/// diagnosed and measurement continues; FailFast restores the legacy
/// abort-on-anything behavior for debugging.
struct RunnerOptions {
  /// Abort the process on divergence, non-termination, or verifier
  /// failure (the pre-transactional behavior; drivers expose --fail-fast).
  bool FailFast = false;

  /// Verify the IR after every phase, with transactional rollback of
  /// failing phases. Off by default to keep compile-time measurements
  /// comparable with the paper's.
  bool Verify = false;

  /// Per-function wall-clock compile budget in milliseconds (0 =
  /// unlimited). On overrun the pipeline degrades stepwise: drop DBDS,
  /// then drop fixpoint iteration, down to the single-round baseline.
  double CompileBudgetMs = 0.0;

  /// Optional deterministic fault source (not owned; needs Verify).
  FaultInjector *Injector = nullptr;

  /// Optional sink for structured diagnostics (not owned).
  DiagnosticEngine *Diags = nullptr;

  /// Optional sink for per-candidate DBDS duplication decisions (not
  /// owned) — the optimization-remarks stream (drivers expose --remarks).
  DecisionLog *Decisions = nullptr;

  /// When set, each ConfigMeasurement carries the telemetry-counter delta
  /// of its compilation+measurement region (drivers expose --counters;
  /// folded into the machine-readable bench report).
  bool CollectCounters = false;

  /// Worker threads for the parallel compile service (drivers expose
  /// --jobs). 1 = serial (same code path, run inline); 0 = one worker per
  /// hardware thread. Every observable output except wall-clock timing is
  /// identical across jobs settings (see workloads/CompileService.h).
  unsigned Jobs = 1;

  /// Run SimAudit (analysis/SimAudit.h) over each function's post-DBDS IR
  /// and decision slice; verdicts land in the decision log, counts in
  /// ConfigMeasurement::Audit and the bench JSON's `simulation_audit`
  /// section (drivers expose --simaudit).
  bool SimAudit = false;

  /// Checks the knob combination for conflicts the harness would
  /// otherwise paper over at runtime: fault injection combined with the
  /// compile cache (a replayed compile would desync the sequential fault
  /// stream — the conflict fuzzdiff used to auto-disable silently).
  /// Returns one diagnostic per problem; empty means the options are
  /// coherent. Every
  /// driver gates on this after wiring its pointers (see
  /// tooling/DriverOptions.h's reportInvalidRunnerOptions).
  std::vector<RunnerOptionDiagnostic> validate() const;

  /// Optional content-addressed compile cache (not owned; drivers expose
  /// --compile-cache[=dir]). A hit replays the memoized compile so the
  /// run's deterministic outputs are byte-identical to a cold compile
  /// (workloads/CompileCache.h); misses store clean compiles at the
  /// serial join.
  CompileCache *Cache = nullptr;
};

/// Raw measurements of one benchmark under one configuration.
struct ConfigMeasurement {
  uint64_t DynamicCycles = 0; ///< Peak performance proxy (lower = faster).
  double CompileTimeMs = 0.0;
  uint64_t CodeSize = 0;
  unsigned Duplications = 0;
  uint64_t ResultHash = 0; ///< Hash of all program results (correctness).
  unsigned FunctionsDegraded = 0; ///< Units that hit the compile budget.
  /// Worst DegradationLevel reached across the benchmark's functions.
  DegradationLevel MaxDegradation = DegradationLevel::None;
  unsigned Rollbacks = 0;    ///< Phase/DBDS rollbacks during compilation.
  unsigned RunFailures = 0;  ///< Training/eval runs that did not terminate.
  /// Telemetry-counter delta over this configuration's region (empty
  /// unless RunnerOptions::CollectCounters was set).
  std::vector<CounterSample> Counters;
  /// SimAudit verdict counts over the benchmark's functions (Ran only
  /// when RunnerOptions::SimAudit was set and this configuration runs
  /// DBDS).
  SimAuditCounts Audit;
};

/// One benchmark's results across all three configurations.
struct BenchmarkMeasurement {
  std::string Name;
  ConfigMeasurement Baseline, DBDS, DupALot;
  /// False when the configurations' program results diverged (a
  /// miscompile; reported instead of aborting unless FailFast is set).
  bool ResultsAgree = true;

  /// Peak performance delta of \p C vs baseline in percent (positive =
  /// faster, as the paper reports it). Returns 0.0 when either side
  /// measured zero cycles (empty or fully-folded functions) — a ratio
  /// against a zero baseline would be inf/NaN, not a measurement.
  double peakImprovementPercent(const ConfigMeasurement &C) const {
    if (Baseline.DynamicCycles == 0 || C.DynamicCycles == 0)
      return 0.0;
    return (static_cast<double>(Baseline.DynamicCycles) /
                static_cast<double>(C.DynamicCycles) -
            1.0) *
           100.0;
  }
  /// Compile-time increase vs baseline in percent (0.0 when the baseline
  /// measured zero time).
  double compileTimeIncreasePercent(const ConfigMeasurement &C) const {
    if (Baseline.CompileTimeMs <= 0.0)
      return 0.0;
    return (C.CompileTimeMs / Baseline.CompileTimeMs - 1.0) * 100.0;
  }
  /// Code-size increase vs baseline in percent (0.0 when the baseline
  /// measured zero size).
  double codeSizeIncreasePercent(const ConfigMeasurement &C) const {
    if (Baseline.CodeSize == 0)
      return 0.0;
    return (static_cast<double>(C.CodeSize) /
                static_cast<double>(Baseline.CodeSize) -
            1.0) *
           100.0;
  }
};

/// Generates, profiles, compiles, and measures one benchmark under all
/// three configurations. With default options a result divergence across
/// configurations is recorded (ResultsAgree = false, plus a diagnostic)
/// and measurement continues; under Opts.FailFast it aborts.
BenchmarkMeasurement measureBenchmark(const BenchmarkSpec &Spec,
                                      const RunnerOptions &Opts);
BenchmarkMeasurement measureBenchmark(const BenchmarkSpec &Spec);

/// Measures a whole suite.
std::vector<BenchmarkMeasurement> measureSuite(const SuiteSpec &Suite,
                                               const RunnerOptions &Opts);
std::vector<BenchmarkMeasurement> measureSuite(const SuiteSpec &Suite);

/// Renders one suite's results in the layout of the paper's per-figure
/// tables: one row per benchmark plus the geometric-mean footer.
std::string formatSuiteReport(const std::string &SuiteName,
                              const std::vector<BenchmarkMeasurement> &Rows);

} // namespace dbds

#endif // DBDS_WORKLOADS_RUNNER_H
