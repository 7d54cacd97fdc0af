//===- telemetry/BenchCompare.cpp - Bench report regression diff -----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/BenchCompare.h"

#include "telemetry/JsonValue.h"

#include <cstdio>

using namespace dbds;

namespace {

double deltaPct(double OldV, double NewV) {
  if (OldV <= 0.0)
    return 0.0;
  return (NewV / OldV - 1.0) * 100.0;
}

/// Gates one scalar: records a delta when New regressed past the
/// threshold. Lower is better for every gated field (latency, cycles,
/// size).
void gateScalar(BenchCompareResult &R, const BenchCompareOptions &Opts,
                const std::string &Where, const std::string &Field,
                double OldV, double NewV, bool Gating) {
  ++R.Compared;
  if (OldV <= 0.0)
    return; // zero baselines are not comparable (empty/folded functions)
  double Pct = deltaPct(OldV, NewV);
  if (Pct <= Opts.ThresholdPct)
    return;
  BenchDelta D;
  D.Where = Where;
  D.Field = Field;
  D.OldValue = OldV;
  D.NewValue = NewV;
  D.DeltaPct = Pct;
  D.Gating = Gating;
  if (Gating)
    ++R.Regressions;
  R.Deltas.push_back(std::move(D));
}

/// Gates one higher-is-better counter, fed inverted: a value that
/// *dropped* past the threshold is the regression. Zero-valued counters
/// are omitted from reports, so \p New may be null — that means the
/// counter collapsed to zero, the worst shrinkage, which must still gate.
/// A missing old-side key skips the check (nothing to shrink from),
/// matching gateScalar's zero-baseline rule.
void gateShrinkage(BenchCompareResult &R, const BenchCompareOptions &Opts,
                   const std::string &Where, const std::string &Field,
                   const JsonValue *Old, const JsonValue *New) {
  if (!Old)
    return;
  double OldV = Old->asDouble();
  double NewV = New ? New->asDouble() : 0.0;
  ++R.Compared;
  if (OldV <= 0.0)
    return;
  double Pct = deltaPct(OldV, NewV);
  if (-Pct <= Opts.ThresholdPct)
    return;
  BenchDelta D;
  D.Where = Where;
  D.Field = Field;
  D.OldValue = OldV;
  D.NewValue = NewV;
  D.DeltaPct = Pct;
  D.Gating = true;
  ++R.Regressions;
  R.Deltas.push_back(std::move(D));
}

void compareConfigs(BenchCompareResult &R, const BenchCompareOptions &Opts,
                    const std::string &BenchName, const JsonValue &OldBench,
                    const JsonValue &NewBench) {
  const JsonValue *OldConfigs = OldBench.get("configs");
  const JsonValue *NewConfigs = NewBench.get("configs");
  if (!OldConfigs || !NewConfigs)
    return;
  for (const char *Config : {"baseline", "dbds", "dupalot"}) {
    const JsonValue *OldC = OldConfigs->get(Config);
    const JsonValue *NewC = NewConfigs->get(Config);
    if (!OldC || !NewC)
      continue;
    std::string Where = BenchName + "/" + Config;
    double OldMs = OldC->getNumber("compile_time_ms");
    double NewMs = NewC->getNumber("compile_time_ms");
    // The latency noise floor: gate only when both readings are real.
    if (OldMs >= Opts.MinLatencyMs && NewMs >= Opts.MinLatencyMs)
      gateScalar(R, Opts, Where, "compile_time_ms", OldMs, NewMs,
                 /*Gating=*/true);
    gateScalar(R, Opts, Where, "dynamic_cycles",
               OldC->getNumber("dynamic_cycles"),
               NewC->getNumber("dynamic_cycles"), /*Gating=*/true);
    gateScalar(R, Opts, Where, "code_size", OldC->getNumber("code_size"),
               NewC->getNumber("code_size"), /*Gating=*/true);

    const JsonValue *OldCtr = OldC->get("counters");
    const JsonValue *NewCtr = NewC->get("counters");
    if (OldCtr && NewCtr && OldCtr->isObject() && NewCtr->isObject()) {
      // Partial-escape effectiveness: every pea.* counter is optimizer
      // work done (loads forwarded, allocations virtualized or sunk), so
      // the whole family gates on shrinkage — a PR that silently stops
      // scalar-replacing shows up as a drop here before it shows up in
      // cycle counts.
      for (const auto &[Name, OldV] : OldCtr->members())
        if (Name.rfind("pea.", 0) == 0)
          gateShrinkage(R, Opts, Where, "counters/" + Name, &OldV,
                        NewCtr->get(Name));
    }
  }
}

void compareMetrics(BenchCompareResult &R, const BenchCompareOptions &Opts,
                    const JsonValue &OldDoc, const JsonValue &NewDoc) {
  const JsonValue *OldM = OldDoc.get("metrics");
  const JsonValue *NewM = NewDoc.get("metrics");
  if (!OldM || !NewM || !OldM->isObject() || !NewM->isObject())
    return;
  for (const auto &[Name, OldH] : OldM->members()) {
    const JsonValue *NewH = NewM->get(Name);
    if (!NewH)
      continue;
    const JsonValue *Class = OldH.get("class");
    bool Deterministic = Class && Class->isString() &&
                         Class->asString() == "deterministic";
    bool Gating = Deterministic || Opts.GateOnMetrics;
    for (const char *Pct : {"p50", "p99"}) {
      gateScalar(R, Opts, "metrics/" + Name, Pct, OldH.getNumber(Pct),
                 NewH->getNumber(Pct), Gating);
    }
  }
}

} // namespace

std::string BenchCompareResult::render() const {
  std::string Out;
  if (!Ok) {
    Out = "compare failed: " + Error + "\n";
    return Out;
  }
  char Line[256];
  for (const BenchDelta &D : Deltas) {
    snprintf(Line, sizeof(Line), "%s %s/%s: %.6g -> %.6g (%+.2f%%)\n",
             D.Gating ? "REGRESSION" : "note:", D.Where.c_str(),
             D.Field.c_str(), D.OldValue, D.NewValue, D.DeltaPct);
    Out += Line;
  }
  snprintf(Line, sizeof(Line),
           "%u comparison(s), %u regression(s) past threshold\n", Compared,
           Regressions);
  Out += Line;
  return Out;
}

BenchCompareResult dbds::compareBenchReports(const std::string &OldJson,
                                             const std::string &NewJson,
                                             const BenchCompareOptions &Opts) {
  BenchCompareResult R;
  JsonValue OldDoc, NewDoc;
  std::string Error;
  if (!JsonValue::parse(OldJson, OldDoc, &Error)) {
    R.Error = "old report: " + Error;
    return R;
  }
  if (!JsonValue::parse(NewJson, NewDoc, &Error)) {
    R.Error = "new report: " + Error;
    return R;
  }
  for (const JsonValue *Doc : {&OldDoc, &NewDoc}) {
    const JsonValue *Schema = Doc->get("schema");
    if (!Schema || !Schema->isString() ||
        Schema->asString() != "dbds-bench-report") {
      R.Error = "not a dbds-bench-report document";
      return R;
    }
  }
  R.Ok = true;

  const JsonValue *OldBenches = OldDoc.get("benchmarks");
  const JsonValue *NewBenches = NewDoc.get("benchmarks");
  if (OldBenches && NewBenches) {
    for (size_t I = 0; I != NewBenches->size(); ++I) {
      const JsonValue *NewBench = NewBenches->at(I);
      const JsonValue *Name = NewBench ? NewBench->get("name") : nullptr;
      if (!Name || !Name->isString())
        continue;
      // Match by name, not index: suites may gain or reorder benchmarks
      // between the two runs.
      const JsonValue *OldBench = nullptr;
      for (size_t J = 0; J != OldBenches->size(); ++J) {
        const JsonValue *Cand = OldBenches->at(J);
        const JsonValue *CandName = Cand ? Cand->get("name") : nullptr;
        if (CandName && CandName->isString() &&
            CandName->asString() == Name->asString()) {
          OldBench = Cand;
          break;
        }
      }
      if (OldBench)
        compareConfigs(R, Opts, Name->asString(), *OldBench, *NewBench);
    }
  }
  compareMetrics(R, Opts, OldDoc, NewDoc);
  return R;
}

bool dbds::readFileToString(const std::string &Path, std::string &Out,
                            std::string *Error) {
  FILE *File = fopen(Path.c_str(), "rb");
  if (!File) {
    if (Error)
      *Error = "cannot open '" + Path + "' for reading";
    return false;
  }
  Out.clear();
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), File)) != 0)
    Out.append(Buf, N);
  bool Bad = ferror(File) != 0;
  fclose(File);
  if (Bad) {
    if (Error)
      *Error = "read error on '" + Path + "'";
    return false;
  }
  return true;
}

BenchCompareResult
dbds::compareBenchReportFiles(const std::string &OldPath,
                              const std::string &NewPath,
                              const BenchCompareOptions &Opts) {
  BenchCompareResult R;
  std::string OldJson, NewJson, Error;
  if (!readFileToString(OldPath, OldJson, &Error)) {
    R.Error = Error;
    return R;
  }
  if (!readFileToString(NewPath, NewJson, &Error)) {
    R.Error = Error;
    return R;
  }
  return compareBenchReports(OldJson, NewJson, Opts);
}
