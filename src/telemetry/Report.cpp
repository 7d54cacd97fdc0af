//===- telemetry/Report.cpp - Machine-readable bench reports ---------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Depends on workloads/Runner.h for the measurement types only — every
// member used here is defined inline in the header, so dbds_telemetry
// stays a leaf library (support only) and everything above it can link
// telemetry without a cycle.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Report.h"

#include "support/Statistics.h"
#include "telemetry/Counters.h"
#include "telemetry/Json.h"
#include "workloads/Runner.h"

#include <cstdio>

using namespace dbds;

namespace {

// SimAuditCounts is header-only (analysis/SimAudit.h via Runner.h), so
// rendering it here keeps dbds_telemetry leaf-linked like the rest of the
// measurement types.
std::string renderAudit(const SimAuditCounts &A) {
  std::string Out = "{";
  Out += "\"confirmed\":" + jsonNumber(A.Confirmed);
  Out += ",\"overclaimed\":" + jsonNumber(A.Overclaimed);
  Out += ",\"underclaimed\":" + jsonNumber(A.Underclaimed);
  Out += ",\"skipped\":" + jsonNumber(A.Skipped);
  Out += ",\"precision\":" + jsonNumber(A.precision());
  Out += ",\"recall\":" + jsonNumber(A.recall());
  Out += "}";
  return Out;
}

std::string renderConfig(const ConfigMeasurement &C) {
  std::string Out = "{";
  Out += "\"dynamic_cycles\":" + jsonNumber(C.DynamicCycles);
  Out += ",\"compile_time_ms\":" + jsonNumber(C.CompileTimeMs);
  Out += ",\"code_size\":" + jsonNumber(C.CodeSize);
  Out += ",\"duplications\":" + jsonNumber(C.Duplications);
  Out += ",\"rollbacks\":" + jsonNumber(C.Rollbacks);
  Out += ",\"run_failures\":" + jsonNumber(C.RunFailures);
  Out += ",\"functions_degraded\":" + jsonNumber(C.FunctionsDegraded);
  Out += ",\"max_degradation\":" +
         jsonString(degradationLevelName(C.MaxDegradation));
  if (!C.Counters.empty())
    Out += ",\"counters\":" + CounterRegistry::renderJson(C.Counters);
  if (C.Audit.Ran)
    Out += ",\"simulation_audit\":" + renderAudit(C.Audit);
  Out += "}";
  return Out;
}

std::string renderVsBaseline(const BenchmarkMeasurement &M,
                             const ConfigMeasurement &C) {
  std::string Out = "{";
  Out += "\"peak_pct\":" + jsonNumber(M.peakImprovementPercent(C));
  Out += ",\"compile_time_pct\":" +
         jsonNumber(M.compileTimeIncreasePercent(C));
  Out += ",\"code_size_pct\":" + jsonNumber(M.codeSizeIncreasePercent(C));
  Out += "}";
  return Out;
}

} // namespace

std::string
dbds::renderBenchJson(const std::string &SuiteName,
                      const std::vector<BenchmarkMeasurement> &Rows,
                      const std::vector<HistogramSample> *Metrics) {
  std::string Out = "{\"schema\":\"dbds-bench-report\",\"version\":2";
  Out += ",\"suite\":" + jsonString(SuiteName);
  Out += ",\"benchmarks\":[";

  std::vector<double> DPeak, DCt, DCs, APeak, ACt, ACs;
  SimAuditCounts DAudit, AAudit;
  for (size_t I = 0; I != Rows.size(); ++I) {
    const BenchmarkMeasurement &M = Rows[I];
    DAudit.accumulate(M.DBDS.Audit);
    AAudit.accumulate(M.DupALot.Audit);
    if (I != 0)
      Out += ",";
    Out += "\n{\"name\":" + jsonString(M.Name);
    Out += std::string(",\"results_agree\":") + jsonBool(M.ResultsAgree);
    Out += ",\"configs\":{";
    Out += "\"baseline\":" + renderConfig(M.Baseline);
    Out += ",\"dbds\":" + renderConfig(M.DBDS);
    Out += ",\"dupalot\":" + renderConfig(M.DupALot);
    Out += "},\"vs_baseline\":{";
    Out += "\"dbds\":" + renderVsBaseline(M, M.DBDS);
    Out += ",\"dupalot\":" + renderVsBaseline(M, M.DupALot);
    Out += "}}";

    DPeak.push_back(1.0 + M.peakImprovementPercent(M.DBDS) / 100.0);
    DCt.push_back(1.0 + M.compileTimeIncreasePercent(M.DBDS) / 100.0);
    DCs.push_back(1.0 + M.codeSizeIncreasePercent(M.DBDS) / 100.0);
    APeak.push_back(1.0 + M.peakImprovementPercent(M.DupALot) / 100.0);
    ACt.push_back(1.0 + M.compileTimeIncreasePercent(M.DupALot) / 100.0);
    ACs.push_back(1.0 + M.codeSizeIncreasePercent(M.DupALot) / 100.0);
  }

  auto Geo = [](std::vector<double> &V) {
    return (geometricMean(ArrayRef<double>(V)) - 1.0) * 100.0;
  };
  Out += "\n],\"geomean\":{";
  Out += "\"dbds\":{\"peak_pct\":" + jsonNumber(Geo(DPeak));
  Out += ",\"compile_time_pct\":" + jsonNumber(Geo(DCt));
  Out += ",\"code_size_pct\":" + jsonNumber(Geo(DCs));
  Out += "},\"dupalot\":{\"peak_pct\":" + jsonNumber(Geo(APeak));
  Out += ",\"compile_time_pct\":" + jsonNumber(Geo(ACt));
  Out += ",\"code_size_pct\":" + jsonNumber(Geo(ACs));
  Out += "}}";
  // Per-suite simulator precision/recall (§4's predictions vs dataflow-
  // proven facts); present only when the suite ran with --simaudit, so
  // legacy reports stay byte-identical.
  if (DAudit.Ran || AAudit.Ran) {
    Out += ",\"simulation_audit\":{";
    Out += "\"dbds\":" + renderAudit(DAudit);
    Out += ",\"dupalot\":" + renderAudit(AAudit);
    Out += "}";
  }
  // Suite-level histogram metrics (--metrics); optional so reports from
  // drivers that never enable the registry stay unchanged past the
  // version bump.
  if (Metrics && !Metrics->empty())
    Out += ",\"metrics\":" + MetricsRegistry::renderJson(*Metrics);
  Out += "}\n";
  return Out;
}

bool dbds::writeBenchJson(const std::string &Path,
                          const std::string &SuiteName,
                          const std::vector<BenchmarkMeasurement> &Rows,
                          std::string *Error,
                          const std::vector<HistogramSample> *Metrics) {
  FILE *File = fopen(Path.c_str(), "wb");
  if (!File) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  std::string Json = renderBenchJson(SuiteName, Rows, Metrics);
  size_t Written = fwrite(Json.data(), 1, Json.size(), File);
  fclose(File);
  if (Written != Json.size()) {
    if (Error)
      *Error = "short write to '" + Path + "'";
    return false;
  }
  return true;
}
