//===- tooling/DriverOptions.cpp - Shared driver option surface -----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tooling/DriverOptions.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace dbds;

namespace {

/// Whether a flag is bare (--metrics), takes a mandatory value
/// (--jobs=N), or both spellings are legal (--compile-cache[=DIR]).
enum class ArgKind { None, Required, Optional };

struct FlagInfo {
  DriverFlag Flag;
  const char *Name;  ///< Spelling without the value ("--jobs").
  ArgKind Kind;
  const char *Value; ///< Metavariable for usage/help ("N", "FILE", ...).
  const char *Help;
};

/// The single source of truth for every shared flag: spelling, value
/// syntax, and help text live here and nowhere else.
constexpr FlagInfo FlagTable[] = {
    {DriverFlag::Jobs, "--jobs", ArgKind::Required, "N",
     "worker threads (0 = one per hardware thread; default 1)"},
    {DriverFlag::Metrics, "--metrics", ArgKind::None, nullptr,
     "histogram metrics registry: percentile table after the run"},
    {DriverFlag::Counters, "--counters", ArgKind::None, nullptr,
     "dump the telemetry counter registry after the run"},
    {DriverFlag::Trace, "--trace", ArgKind::Required, "FILE",
     "write a Chrome trace_event JSON covering the run"},
    {DriverFlag::Remarks, "--remarks", ArgKind::Required, "FILE",
     "write the DBDS duplication decision log as JSONL"},
    {DriverFlag::Flamegraph, "--flamegraph", ArgKind::Required, "FILE",
     "write a collapsed-stack profile folded from the trace spans"},
    {DriverFlag::JsonOut, "--json-out", ArgKind::Optional, "FILE",
     "write the machine-readable bench report (default name without =FILE)"},
    {DriverFlag::SimAudit, "--simaudit", ArgKind::None, nullptr,
     "audit simulator predictions against post-DBDS dataflow facts"},
    {DriverFlag::CompileCache, "--compile-cache", ArgKind::Optional, "DIR",
     "content-addressed compile cache; with =DIR entries persist on disk"},
    {DriverFlag::CacheDir, "--cache-dir", ArgKind::Required, "DIR",
     "like --compile-cache=DIR"},
    {DriverFlag::Seed, "--seed", ArgKind::Required, "N",
     "first generator seed"},
    {DriverFlag::Count, "--count", ArgKind::Required, "N",
     "number of generated seeds"},
    {DriverFlag::Functions, "--functions", ArgKind::Required, "N",
     "functions per generated program"},
    {DriverFlag::Segments, "--segments", ArgKind::Required, "N",
     "segments per generated function"},
    {DriverFlag::Quiet, "--quiet", ArgKind::None, nullptr,
     "suppress per-item output"},
    {DriverFlag::FailFast, "--fail-fast", ArgKind::None, nullptr,
     "abort the process on the first failure (debug mode)"},
};

const FlagInfo &infoFor(DriverFlag F) {
  for (const FlagInfo &Info : FlagTable)
    if (Info.Flag == F)
      return Info;
  assert(false && "flag missing from table");
  return FlagTable[0];
}

/// The flag's full spelling for usage/help: "--jobs=N",
/// "--compile-cache[=DIR]", "--metrics".
std::string spellingOf(const FlagInfo &Info) {
  std::string Out = Info.Name;
  if (Info.Kind == ArgKind::Required)
    Out += std::string("=") + Info.Value;
  else if (Info.Kind == ArgKind::Optional)
    Out += std::string("[=") + Info.Value + "]";
  return Out;
}

void applyFlag(DriverOptions &O, DriverFlag Flag, const char *Value) {
  switch (Flag) {
  case DriverFlag::Jobs:
    O.Jobs = static_cast<unsigned>(strtoul(Value, nullptr, 10));
    break;
  case DriverFlag::Metrics:
    O.Metrics = true;
    break;
  case DriverFlag::Counters:
    O.DumpCounters = true;
    break;
  case DriverFlag::Trace:
    O.TracePath = Value;
    break;
  case DriverFlag::Remarks:
    O.RemarksPath = Value;
    break;
  case DriverFlag::Flamegraph:
    O.FlamegraphPath = Value;
    break;
  case DriverFlag::JsonOut:
    O.JsonOutPath = Value ? Value : O.JsonOutDefault;
    break;
  case DriverFlag::SimAudit:
    O.SimAudit = true;
    break;
  case DriverFlag::CompileCache:
    O.UseCompileCache = true;
    if (Value)
      O.CacheDir = Value;
    break;
  case DriverFlag::CacheDir:
    O.UseCompileCache = true;
    O.CacheDir = Value;
    break;
  case DriverFlag::Seed:
    O.Seed = strtoull(Value, nullptr, 10);
    break;
  case DriverFlag::Count:
    O.Count = static_cast<unsigned>(strtoul(Value, nullptr, 10));
    break;
  case DriverFlag::Functions:
    O.Functions = static_cast<unsigned>(strtoul(Value, nullptr, 10));
    break;
  case DriverFlag::Segments:
    O.Segments = static_cast<unsigned>(strtoul(Value, nullptr, 10));
    break;
  case DriverFlag::Quiet:
    O.Quiet = true;
    break;
  case DriverFlag::FailFast:
    O.FailFast = true;
    break;
  }
}

} // namespace

RunnerOptions DriverOptions::toRunnerOptions() const {
  RunnerOptions R;
  R.Jobs = Jobs;
  R.SimAudit = SimAudit;
  R.FailFast = FailFast;
  return R;
}

DriverOptionsParser::DriverOptionsParser(
    DriverOptions &Opts, std::initializer_list<DriverFlag> Enabled)
    : Opts(Opts), Enabled(Enabled) {}

ParseStatus DriverOptionsParser::parse(const char *Arg) {
  if (strcmp(Arg, "--help") == 0)
    return ParseStatus::Help;
  for (DriverFlag F : Enabled) {
    const FlagInfo &Info = infoFor(F);
    size_t Len = strlen(Info.Name);
    if (strncmp(Arg, Info.Name, Len) != 0)
      continue;
    if (Arg[Len] == '\0') {
      if (Info.Kind == ArgKind::Required) {
        Err = std::string(Info.Name) + " requires a value: " +
              spellingOf(Info);
        return ParseStatus::Error;
      }
      applyFlag(Opts, F, nullptr);
      return ParseStatus::Handled;
    }
    if (Arg[Len] == '=' && Info.Kind != ArgKind::None) {
      applyFlag(Opts, F, Arg + Len + 1);
      return ParseStatus::Handled;
    }
    // A longer flag sharing this prefix (--count vs --counters): keep
    // scanning.
  }
  return ParseStatus::Unrecognized;
}

std::string DriverOptionsParser::usage() const {
  std::string Out;
  for (DriverFlag F : Enabled) {
    if (!Out.empty())
      Out += " ";
    Out += "[" + spellingOf(infoFor(F)) + "]";
  }
  return Out;
}

std::string DriverOptionsParser::helpText() const {
  std::string Out;
  char Buf[256];
  for (DriverFlag F : Enabled) {
    const FlagInfo &Info = infoFor(F);
    snprintf(Buf, sizeof(Buf), "  %-24s %s\n", spellingOf(Info).c_str(),
             Info.Help);
    Out += Buf;
  }
  return Out;
}

bool dbds::reportInvalidRunnerOptions(const RunnerOptions &Opts,
                                      const char *Prog) {
  std::vector<RunnerOptionDiagnostic> Diags = Opts.validate();
  for (const RunnerOptionDiagnostic &D : Diags)
    fprintf(stderr, "%s: %s: %s\n", Prog, D.Option.c_str(),
            D.Message.c_str());
  return !Diags.empty();
}
