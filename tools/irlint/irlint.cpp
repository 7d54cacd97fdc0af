//===- tools/irlint/irlint.cpp - Standalone IR lint driver -----------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Command-line front end for the IRLint engine (analysis/Lint.h):
//
//   irlint [options] file.ir...      lint textual-IR files (e.g. fuzzdiff
//                                    crash artifacts)
//   irlint --selftest                run the malformed-fixture known-positive
//                                    suite (tooling/LintFixtures.h); with
//                                    --dataflow, the flow-sensitive sabotage
//                                    fixtures as well
//   irlint --corpus [--dynamic] [--audit] [--sabotage]
//                                    generate + optimize workloads and lint
//                                    every optimized function under all three
//                                    paper configurations
//
// Common options:
//   --json               machine-readable report instead of text
//   --trace=FILE         write a Chrome trace_event JSON of the run
//   --counters           dump the telemetry counter registry after the run
//   --jobs=N             corpus mode: lint N seeds concurrently (0 = one
//                        worker per hardware thread); reports are merged
//                        in seed order, so output matches --jobs=1
//   --Werror             warnings fail the run like errors
//   --disable=RULE       disable a rule (repeatable)
//   --enable=RULE        re-enable a previously disabled rule
//   --list-rules         print the registered rules and exit
//   --dataflow           add the flow-sensitive rules (analysis/DataFlow.h)
//                        to every lint pass
//   --simaudit           corpus mode: replay each function's recorded DBDS
//                        decisions against dataflow facts on the optimized
//                        IR and report the simulator's precision/recall
// Corpus options:
//   --seed=N --count=N --functions=N --segments=N
//   --dynamic            interpret on the eval inputs and cross-check stamps
//                        against the observed values
//   --audit              run the optimization pipeline in PhaseManager audit
//                        mode (lint diff per phase + behavioral oracle)
//   --sabotage           known-positive control: corrupt each optimized
//                        function with SabotagePhase and require the
//                        behavioral oracle to flag every corrupted one
//
// Exit status: 0 when the run matches expectations (clean files / clean
// corpus / all fixtures and sabotages caught), 1 on findings or missed
// expectations, 2 on usage or I/O errors.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "analysis/SimAudit.h"
#include "dbds/DBDSPhase.h"
#include "telemetry/DecisionLog.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Phase.h"
#include "support/Diagnostics.h"
#include "telemetry/Counters.h"
#include "telemetry/Trace.h"
#include "tooling/DriverOptions.h"
#include "tooling/LintFixtures.h"
#include "tooling/LintHarness.h"
#include "tooling/Sabotage.h"
#include "vm/Interpreter.h"
#include "workloads/CompileService.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace dbds;

namespace {

constexpr uint64_t RunFuel = 1u << 22;

struct Options {
  /// Shared flags (tooling/DriverOptions.h): --seed/--count/--functions/
  /// --segments/--quiet/--trace/--counters/--jobs/--simaudit.
  DriverOptions Common;
  bool Selftest = false;
  bool Corpus = false;
  bool Dynamic = false;
  bool Audit = false;
  bool Sabotage = false;
  bool Dataflow = false;
  bool Json = false;
  bool Werror = false;
  bool ListRules = false;
  std::vector<std::string> Disabled;
  std::vector<std::string> Enabled;
  std::vector<std::string> Files;
};

int usage(const char *Prog, const DriverOptionsParser &P) {
  fprintf(stderr,
          "usage: %s [--selftest | --corpus | file.ir...]\n"
          "  [--json] [--Werror] [--disable=RULE] [--enable=RULE]\n"
          "  [--list-rules] [--dataflow]\n"
          "  corpus: [--dynamic] [--audit] [--sabotage]\n"
          "  shared: %s\n",
          Prog, P.usage().c_str());
  return 2;
}

/// The linter the options select: the standard registry, plus the
/// flow-sensitive rules under --dataflow.
Linter makeLinter(const Options &O, const Module *ClassTable = nullptr) {
  return O.Dataflow ? dataflowLinter(ClassTable)
                    : Linter::standard(ClassTable);
}

/// The standard linter with the CLI's enable/disable edits applied.
/// Returns false (with a message) on an unknown rule id.
bool configureLinter(Linter &L, const Options &O) {
  for (const std::string &Id : O.Disabled)
    if (!L.setEnabled(Id, false)) {
      fprintf(stderr, "irlint: unknown rule '%s'\n", Id.c_str());
      return false;
    }
  for (const std::string &Id : O.Enabled)
    if (!L.setEnabled(Id, true)) {
      fprintf(stderr, "irlint: unknown rule '%s'\n", Id.c_str());
      return false;
    }
  return true;
}

void printReport(const LintReport &Report, const Options &O) {
  if (O.Json) {
    printf("%s\n", Report.renderJSON().c_str());
    return;
  }
  if (!O.Common.Quiet || Report.hasErrors())
    printf("%s", Report.render().c_str());
}

/// Pass/fail verdict for one report under the --Werror policy.
bool reportFails(const LintReport &Report, const Options &O) {
  return Report.hasErrors() ||
         (O.Werror && Report.count(LintSeverity::Warn) != 0);
}

int listRules(const Options &O) {
  Linter L = makeLinter(O);
  for (const LintRule *Rule : L.rules())
    printf("%-18s %-10s %s\n", Rule->id(),
           Rule->stage() == LintRule::Stage::Structure ? "structure"
                                                       : "semantic",
           Rule->description());
  return 0;
}

int runSelftest(const Options &O) {
  std::string Log;
  std::vector<LintFixture> Fixtures = makeLintFixtures();
  bool Ok = true;
  for (const LintFixture &Fx : Fixtures)
    Ok &= checkLintFixture(Fx, Log);
  size_t Total = Fixtures.size();
  if (O.Dataflow) {
    std::vector<LintFixture> FlowFixtures = makeDataflowLintFixtures();
    for (const LintFixture &Fx : FlowFixtures)
      Ok &= checkDataflowLintFixture(Fx, Log);
    Total += FlowFixtures.size();
  }
  if (!Ok) {
    fprintf(stderr, "irlint: selftest FAILED\n%s", Log.c_str());
    return 1;
  }
  if (!O.Common.Quiet)
    printf("irlint: selftest passed (%zu fixtures)\n", Total);
  return 0;
}

int lintFiles(const Options &O) {
  LintReport Combined;
  for (const std::string &Path : O.Files) {
    FILE *File = fopen(Path.c_str(), "rb");
    if (!File) {
      fprintf(stderr, "irlint: cannot open '%s'\n", Path.c_str());
      return 2;
    }
    std::string Source;
    char Buf[4096];
    size_t Read;
    while ((Read = fread(Buf, 1, sizeof(Buf), File)) != 0)
      Source.append(Buf, Read);
    fclose(File);

    ParseResult Parsed = parseModule(Source);
    if (!Parsed) {
      fprintf(stderr, "irlint: %s: parse error: %s\n", Path.c_str(),
              Parsed.Error.c_str());
      return 2;
    }
    Linter L = makeLinter(O, Parsed.Mod.get());
    if (!configureLinter(L, O))
      return 2;
    Combined.append(L.lintModule(*Parsed.Mod));
  }
  printReport(Combined, O);
  return reportFails(Combined, O) ? 1 : 0;
}

/// Profiles and optimizes \p F under \p Config the way workloads/Runner
/// does, optionally with PhaseManager audit mode enabled.
void optimizeFunction(Function &F, Module *M, RunConfig Config,
                      const std::vector<std::vector<int64_t>> &Train,
                      const Options &O, const Linter *AuditLinter,
                      DiagnosticEngine *Diags, unsigned *Rollbacks,
                      DecisionLog *Decisions = nullptr) {
  Interpreter Interp(*M);
  ProfileSummary Profile;
  for (const auto &Args : Train) {
    Interp.reset();
    Interp.run(F, ArrayRef<int64_t>(Args), RunFuel, &Profile);
  }
  applyProfile(F, Profile);

  PhaseManager Pipeline = PhaseManager::standardPipeline(/*Verify=*/true, M);
  Pipeline.setDiagnostics(Diags);
  if (O.Audit && AuditLinter) {
    Pipeline.setAuditLinter(AuditLinter);
    Pipeline.setAuditOracle(makeInterpreterOracle(*M, Train, RunFuel));
  }
  Pipeline.run(F);
  if (Rollbacks)
    *Rollbacks += Pipeline.rollbackCount();

  if (Config != RunConfig::Baseline) {
    DBDSConfig DC;
    DC.UseTradeoff = Config == RunConfig::DBDS;
    DC.ClassTable = M;
    DC.Verify = true;
    DC.Diags = Diags;
    DC.Decisions = Decisions;
    runDBDS(F, DC);
  }
}

int runCorpus(const Options &O) {
  // Unknown rule ids are a usage error; validate once up front so the
  // per-seed tasks below cannot fail.
  {
    Linter Probe = Linter::standard();
    if (!configureLinter(Probe, O))
      return 2;
  }

  DiagnosticEngine Diags;
  LintReport Combined;
  unsigned FunctionsLinted = 0;
  unsigned AuditRollbacks = 0;
  unsigned Corrupted = 0;
  unsigned CorruptionsCaught = 0;

  // One seed = one task; everything a task produces is buffered and merged
  // in seed order at the join, so the report and summary are identical at
  // every --jobs level.
  struct SeedResult {
    LintReport Report;
    DiagnosticEngine Diags;
    unsigned FunctionsLinted = 0;
    unsigned AuditRollbacks = 0;
    unsigned Corrupted = 0;
    unsigned CorruptionsCaught = 0;
    SimAuditCounts Audit;
  };
  std::vector<SeedResult> Results(O.Common.Count);

  const RunConfig Configs[] = {RunConfig::Baseline, RunConfig::DBDS,
                               RunConfig::DupALot};
  CompileService Service(O.Common.Jobs);
  Service.forEachIndex(O.Common.Count, [&](size_t N, unsigned /*Worker*/) {
    SeedResult &R = Results[N];
    GeneratorConfig GC;
    GC.Seed = O.Common.Seed + N;
    GC.NumFunctions = O.Common.Functions;
    GC.SegmentsPerFunction = O.Common.Segments;

    for (RunConfig Config : Configs) {
      GeneratedWorkload Work = generateWorkload(GC);
      Module *M = Work.Mod.get();
      Linter L = makeLinter(O, M);
      configureLinter(L, O); // validated above; cannot fail

      auto Fns = M->functions();
      for (unsigned FIdx = 0; FIdx != Fns.size(); ++FIdx) {
        Function &F = *Fns[FIdx];
        // --simaudit: record this function's DBDS decisions so the audit
        // can replay them against the optimized IR below.
        DecisionLog Decisions;
        bool WantAudit = O.Common.SimAudit && Config != RunConfig::Baseline;
        optimizeFunction(F, M, Config, Work.TrainInputs[FIdx], O, &L,
                         &R.Diags, &R.AuditRollbacks,
                         WantAudit ? &Decisions : nullptr);
        if (WantAudit)
          R.Audit.accumulate(auditSimulation(F, Decisions));

        // Static pass (plus dynamic stamp cross-checks when requested).
        LintReport Report;
        if (O.Dynamic) {
          Interpreter Interp(*M);
          ObservationMap Obs =
              observeFunction(Interp, F, Work.EvalInputs[FIdx], RunFuel);
          Report = L.lint(F, &Obs);
        } else {
          Report = L.lint(F);
        }
        ++R.FunctionsLinted;
        for (LintFinding &Finding : Report.Findings) {
          Finding.Message += " [seed " + std::to_string(GC.Seed) + ", " +
                             runConfigName(Config) + "]";
          R.Report.Findings.push_back(std::move(Finding));
        }

        // Known-positive control: corrupt the optimized function and
        // require the behavioral oracle to notice. The corruption is
        // structurally valid, so this is exactly the class of defect the
        // static rules cannot flag.
        if (O.Sabotage) {
          std::unique_ptr<Function> Pristine = F.clone();
          SabotagePhase Saboteur;
          if (Saboteur.run(F)) {
            ++R.Corrupted;
            std::string Detail;
            AuditOracle Oracle =
                makeInterpreterOracle(*M, Work.EvalInputs[FIdx], RunFuel);
            if (!Oracle(*Pristine, F, Detail)) {
              ++R.CorruptionsCaught;
              LintFinding Synthetic;
              Synthetic.RuleId = "dynamic-divergence";
              Synthetic.Severity = LintSeverity::Error;
              Synthetic.FunctionName = F.getName();
              Synthetic.Message = "sabotaged function diverges: " + Detail +
                                  " [seed " + std::to_string(GC.Seed) + ", " +
                                  runConfigName(Config) + "]";
              R.Report.Findings.push_back(std::move(Synthetic));
            }
            F.restoreFrom(*Pristine);
          }
        }
      }
    }
  });

  // Deterministic join in seed order.
  SimAuditCounts Audit;
  for (SeedResult &R : Results) {
    Combined.append(std::move(R.Report));
    Diags.mergeFrom(R.Diags);
    FunctionsLinted += R.FunctionsLinted;
    AuditRollbacks += R.AuditRollbacks;
    Corrupted += R.Corrupted;
    CorruptionsCaught += R.CorruptionsCaught;
    Audit.accumulate(R.Audit);
  }

  printReport(Combined, O);
  if (!O.Common.Quiet) {
    printf("irlint: corpus: %u function-compiles linted, %u error(s), "
           "%u warning(s)\n",
           FunctionsLinted, Combined.errorCount(),
           Combined.count(LintSeverity::Warn));
    if (O.Audit)
      printf("irlint: audit: %u rollback(s)\n%s", AuditRollbacks,
             Diags.render().c_str());
    if (O.Sabotage)
      printf("irlint: sabotage: %u corrupted, %u caught\n", Corrupted,
             CorruptionsCaught);
    if (Audit.Ran)
      printf("irlint: simaudit: %llu confirmed, %llu overclaimed, "
             "%llu underclaimed, %llu skipped — precision %.3f, "
             "recall %.3f\n",
             static_cast<unsigned long long>(Audit.Confirmed),
             static_cast<unsigned long long>(Audit.Overclaimed),
             static_cast<unsigned long long>(Audit.Underclaimed),
             static_cast<unsigned long long>(Audit.Skipped),
             Audit.precision(), Audit.recall());
  }

  if (O.Sabotage) {
    // Expectation inverted: the control must corrupt something, and every
    // corruption must be caught.
    return (Corrupted != 0 && CorruptionsCaught == Corrupted) ? 0 : 1;
  }
  // Clean corpus: no lint failure, and in audit mode no phase may have
  // been rolled back.
  bool StaticClean =
      !Combined.hasErrors() &&
      !(O.Werror && Combined.count(LintSeverity::Warn) != 0);
  return (StaticClean && AuditRollbacks == 0) ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.Common.Count = 3;
  DriverOptionsParser P(
      O.Common, {DriverFlag::Seed, DriverFlag::Count, DriverFlag::Functions,
                 DriverFlag::Segments, DriverFlag::Quiet, DriverFlag::Trace,
                 DriverFlag::Counters, DriverFlag::Jobs,
                 DriverFlag::SimAudit});
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    switch (P.parse(Arg)) {
    case ParseStatus::Handled:
      continue;
    case ParseStatus::Help:
      printf("usage: %s [--selftest | --corpus | file.ir...]\n"
             "  [--json] [--Werror] [--disable=RULE] [--enable=RULE]\n"
             "  [--list-rules] [--dataflow]\n"
             "  corpus: [--dynamic] [--audit] [--sabotage]\n"
             "shared options:\n%s",
             Argv[0], P.helpText().c_str());
      return 0;
    case ParseStatus::Error:
      fprintf(stderr, "irlint: %s\n", P.error().c_str());
      return 2;
    case ParseStatus::Unrecognized:
      break;
    }
    if (strcmp(Arg, "--selftest") == 0)
      O.Selftest = true;
    else if (strcmp(Arg, "--corpus") == 0)
      O.Corpus = true;
    else if (strcmp(Arg, "--dynamic") == 0)
      O.Dynamic = true;
    else if (strcmp(Arg, "--audit") == 0)
      O.Audit = true;
    else if (strcmp(Arg, "--sabotage") == 0)
      O.Sabotage = true;
    else if (strcmp(Arg, "--dataflow") == 0)
      O.Dataflow = true;
    else if (strcmp(Arg, "--json") == 0)
      O.Json = true;
    else if (strcmp(Arg, "--Werror") == 0)
      O.Werror = true;
    else if (strcmp(Arg, "--list-rules") == 0)
      O.ListRules = true;
    else if (strncmp(Arg, "--disable=", 10) == 0)
      O.Disabled.push_back(Arg + 10);
    else if (strncmp(Arg, "--enable=", 9) == 0)
      O.Enabled.push_back(Arg + 9);
    else if (strncmp(Arg, "--", 2) == 0)
      return usage(Argv[0], P);
    else
      O.Files.push_back(Arg);
  }

  if (O.ListRules)
    return listRules(O);

  TraceSession Trace;
  std::optional<ScopedTraceAttach> Attach;
  if (!O.Common.TracePath.empty())
    Attach.emplace(Trace);

  int Exit;
  if (O.Selftest)
    Exit = runSelftest(O);
  else if (O.Corpus)
    Exit = runCorpus(O);
  else if (O.Files.empty())
    return usage(Argv[0], P);
  else
    Exit = lintFiles(O);

  if (O.Common.DumpCounters)
    printf("=== telemetry counters ===\n%s",
           CounterRegistry::renderText(
               CounterRegistry::instance().snapshot(/*SkipZero=*/true))
               .c_str());
  if (!O.Common.TracePath.empty()) {
    Attach.reset();
    std::string Error;
    if (!Trace.writeJson(O.Common.TracePath, &Error)) {
      fprintf(stderr, "irlint: --trace: %s\n", Error.c_str());
      return 2;
    }
    if (!O.Common.Quiet)
      printf("irlint: trace written to %s (%zu events)\n",
             O.Common.TracePath.c_str(), Trace.eventCount());
  }
  return Exit;
}
