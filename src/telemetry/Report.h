//===- telemetry/Report.h - Machine-readable bench reports ------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a measured benchmark suite (workloads/Runner.h) to the
/// stable BENCH_<suite>.json schema, so the perf trajectory can be tracked
/// across PRs by diffing files instead of scraping text tables — and, with
/// tools/dbds-stats, compared with regression thresholds. Schema
/// (dbds-bench-report v2, see DESIGN.md §8/§12; v2 adds the optional
/// suite-level "metrics" histogram section, emitted when the driver ran
/// with --metrics):
///
///   {
///     "schema": "dbds-bench-report", "version": 2, "suite": "...",
///     "benchmarks": [{
///       "name": "...", "results_agree": true,
///       "configs": {
///         "baseline" | "dbds" | "dupalot": {
///           "dynamic_cycles", "compile_time_ms", "code_size",
///           "duplications", "rollbacks", "run_failures",
///           "functions_degraded", "max_degradation",
///           "counters": {"component.name": delta, ...}   // optional
///         }},
///       "vs_baseline": {"dbds" | "dupalot":
///           {"peak_pct", "compile_time_pct", "code_size_pct"}}
///     }],
///     "geomean": {"dbds" | "dupalot": {same three percents}},
///     "metrics": {"component.name": {unit, class, count, sum, min, max,
///                 mean, p50, p90, p99, buckets}}          // v2, optional
///   }
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_TELEMETRY_REPORT_H
#define DBDS_TELEMETRY_REPORT_H

#include "telemetry/Metrics.h"

#include <string>
#include <vector>

namespace dbds {

struct BenchmarkMeasurement;

/// Renders the BENCH JSON document for \p Rows (one measured suite).
/// \p Metrics, when non-null, becomes the suite-level "metrics" section
/// (drivers pass a MetricsRegistry snapshot of the measured region).
std::string renderBenchJson(const std::string &SuiteName,
                            const std::vector<BenchmarkMeasurement> &Rows,
                            const std::vector<HistogramSample> *Metrics =
                                nullptr);

/// Renders and writes the document to \p Path; false + \p Error on I/O
/// failure.
bool writeBenchJson(const std::string &Path, const std::string &SuiteName,
                    const std::vector<BenchmarkMeasurement> &Rows,
                    std::string *Error = nullptr,
                    const std::vector<HistogramSample> *Metrics = nullptr);

} // namespace dbds

#endif // DBDS_TELEMETRY_REPORT_H
