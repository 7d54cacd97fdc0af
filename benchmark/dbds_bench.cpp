//===- benchmark/dbds_bench.cpp - The DBDS compile benchmark --------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the paper's §6.1 numbers — compile time, peak performance
// (dynamic cost-model cycles) and code size — end to end under baseline,
// dbds and dupalot, and in a separate traced run splits each config's
// time across the program's layers (workloads, vm, opts, dbds). README.md
// next to this file explains the workloads and metrics.
//
//   dbds_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//              [--smoke] [--json-out=FILE] [--trace-dir=DIR]
//
// Load model: a closed loop, one process, one thread. Each program is
// generated just before it is compiled and freed right after, and every
// function's task (profile, compile, evaluate) starts when the previous
// one has finished. The first pass runs compileFunctionsParallel at
// --jobs=1; the timed passes that follow replicate its task body through
// each layer's public entry point, so the compile can be timed on the
// thread's CPU clock, and must reproduce the first pass bit for bit.
//
// The last line of standard output is one JSON object,
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics, or with --trace=1 the per-layer ones.
// Exit status: 0 when correct, 1 on any correctness failure, 2 on a usage
// error (no JSON line then).
//
//===----------------------------------------------------------------------===//

#include "Calibration.h"

#include "dbds/DBDSPhase.h"
#include "opts/Phase.h"
#include "support/RNG.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "telemetry/Counters.h"
#include "telemetry/Json.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"
#include "vm/Interpreter.h"
#include "workloads/CompileService.h"
#include "workloads/Runner.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

using namespace dbds;
using namespace dbds_bench;

namespace {

constexpr RunConfig Configs[] = {RunConfig::Baseline, RunConfig::DBDS,
                                 RunConfig::DupALot};
constexpr size_t NumConfigs = 3;
constexpr size_t DBDSIdx = 1;

// The compile service's task constants, replicated by the direct task
// body (runTask). Every run's equivalence gate fails if they drift.
constexpr uint64_t RunFuel = 1u << 24;
constexpr uint64_t NonTerminationSentinel = 0x6e6f2d7465726d21ULL;
constexpr unsigned PipelineRounds = 4;

void enableServiceCostModel(Interpreter &Interp) {
  Interp.enableCodeSizePenalty(/*Threshold=*/192, /*Step=*/160,
                               /*Cap=*/1u << 20);
}

// The standard pipeline's phases, in order (PhaseManager::standardPipeline).
const char *const StandardPhases[] = {
    "canonicalize",     "value-numbering", "conditional-elimination",
    "read-elimination", "partial-escape",  "dce",
    "simplify-cfg"};

double nsToMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// Peak resident set of this process image, in bytes: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is the fallback only, because
/// Linux carries it across exec: started from a larger process (a Python
/// harness, say), it reports that process's size instead.
uint64_t peakRssBytes() {
  FILE *Status = fopen("/proc/self/status", "r");
  if (!Status)
    return currentPeakRssBytes();
  char Line[256];
  unsigned long long Kb = 0;
  while (fgets(Line, sizeof(Line), Status))
    if (sscanf(Line, "VmHWM: %llu kB", &Kb) == 1)
      break;
  fclose(Status);
  return Kb ? Kb * 1024 : currentPeakRssBytes();
}

ConfigMeasurement &configOf(BenchmarkMeasurement &M, size_t CI) {
  return CI == 0 ? M.Baseline : CI == 1 ? M.DBDS : M.DupALot;
}
const ConfigMeasurement &configOf(const BenchmarkMeasurement &M, size_t CI) {
  return CI == 0 ? M.Baseline : CI == 1 ? M.DBDS : M.DupALot;
}

/// Linear interpolation between closest ranks; \p Q in [0, 1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// FNV-1a of \p Name, used to give every program its own random stream.
uint64_t nameSeed(const std::string &Name) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// One program of a workload. Its module and profiling (training) inputs
/// are fixed, so every seed compiles the same code; --seed draws the
/// evaluation inputs that peak performance is measured on. Seed 0 keeps
/// the generator's own, so paper-suites at seed 0 is exactly what the
/// figure drivers measure.
struct Program {
  std::string Name;
  GeneratorConfig Config;
  uint64_t Seed = 0;
};

/// Generates \p P's module and inputs. Called just before each compile,
/// so only one module is alive at a time.
GeneratedWorkload makeWorkload(const Program &P) {
  GeneratedWorkload W = generateWorkload(P.Config);
  if (P.Seed == 0)
    return W;
  RNG Rand(nameSeed(P.Name) ^ P.Seed);
  for (auto &Tuples : W.EvalInputs)
    for (auto &Args : Tuples)
      for (int64_t &Arg : Args)
        Arg = Rand.nextRange(0, 1 << 20); // the generator's input range
  return W;
}

std::vector<Program> paperSuites(uint64_t Seed) {
  std::vector<Program> Out;
  for (const SuiteSpec &Suite : allSuites())
    for (const BenchmarkSpec &Spec : Suite.Benchmarks)
      Out.push_back({Suite.Name + "/" + Spec.Name, Spec.Config, Seed});
  return Out;
}

/// Programs of one unit size: \p Segments hot and as many cold merge
/// segments per function.
std::vector<Program> unitSizeSet(const char *Prefix, unsigned Programs,
                                 unsigned Functions, unsigned Segments,
                                 double Noise, uint64_t Seed) {
  std::vector<Program> Out;
  for (unsigned N = 0; N != Programs; ++N) {
    std::string Name = std::string(Prefix) + "/" + std::to_string(N);
    GeneratorConfig Config;
    Config.Seed = nameSeed(Name);
    Config.NumFunctions = Functions;
    Config.SegmentsPerFunction = Segments;
    Config.ColdSegments = Segments;
    Config.Mix.Noise = Noise;
    Out.push_back({std::move(Name), Config, Seed});
  }
  return Out;
}

std::vector<Program> largeUnits(uint64_t Seed) {
  return unitSizeSet("large-units", 8, 4, 24, 2.0, Seed);
}

std::vector<Program> smallUnits(uint64_t Seed) {
  return unitSizeSet("small-units", 60, 8, 2, 1.0, Seed);
}

struct WorkloadSpec {
  const char *Name;
  std::vector<Program> (*Make)(uint64_t Seed);
};

const WorkloadSpec Workloads[] = {{"paper-suites", paperSuites},
                                  {"large-units", largeUnits},
                                  {"small-units", smallUnits}};

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Options {
  const WorkloadSpec *Workload = nullptr;
  uint64_t Seed = 0;
  double Seconds = 30.0;
  bool Trace = false;
  bool Smoke = false;
  std::string JsonOut;
  std::string TraceDir;
};

const char *const Usage =
    "usage: dbds_bench --workload=paper-suites|large-units|small-units\n"
    "                  [--seed=N] [--seconds=S] [--trace=0|1] [--smoke]\n"
    "                  [--json-out=FILE] [--trace-dir=DIR]\n";

/// Parses "--flag=value" and "--flag value". Returns an error message, or
/// "" on success.
std::string parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke") {
      O.Smoke = true;
      continue;
    }
    std::string Name = Arg, Value;
    size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Name = Arg.substr(0, Eq);
      Value = Arg.substr(Eq + 1);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      return "missing value for " + Arg;
    }
    char *End = nullptr;
    errno = 0;
    if (Name == "--workload") {
      O.Workload = nullptr;
      for (const WorkloadSpec &W : Workloads)
        if (Value == W.Name)
          O.Workload = &W;
      if (!O.Workload)
        return "unknown workload '" + Value + "'";
    } else if (Name == "--seed") {
      O.Seed = strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End || errno || Value[0] == '-')
        return "bad --seed '" + Value + "'";
    } else if (Name == "--seconds") {
      O.Seconds = strtod(Value.c_str(), &End);
      if (Value.empty() || *End || !(O.Seconds > 0.0))
        return "bad --seconds '" + Value + "'";
    } else if (Name == "--trace") {
      if (Value != "0" && Value != "1")
        return "bad --trace '" + Value + "' (0 or 1)";
      O.Trace = Value == "1";
    } else if (Name == "--json-out") {
      O.JsonOut = Value;
    } else if (Name == "--trace-dir") {
      O.TraceDir = Value;
    } else {
      return "unknown option " + Name;
    }
  }
  if (!O.Workload)
    return "--workload is required";
  return "";
}

//===----------------------------------------------------------------------===//
// Set-up: generation plus the independent correctness reference
//===----------------------------------------------------------------------===//

/// Evaluates \p F on \p Inputs exactly as the compile service's eval loop
/// does, returning the per-function result hash and adding the dynamic
/// cycles to \p Cycles.
uint64_t evalHash(Interpreter &Interp, Function &F,
                  const std::vector<std::vector<int64_t>> &Inputs,
                  uint64_t &Cycles, unsigned &RunFailures) {
  uint64_t Hash = 0;
  for (const auto &Args : Inputs) {
    Interp.reset();
    ExecutionResult R = Interp.run(F, ArrayRef<int64_t>(Args), RunFuel);
    if (!R.Ok) {
      ++RunFailures;
      Hash = resultHashCombine(Hash, NonTerminationSentinel);
      continue;
    }
    Cycles += R.DynamicCycles;
    Hash = resultHashCombine(
        Hash, R.HasResult && !R.Result.IsObject
                  ? static_cast<uint64_t>(R.Result.Scalar)
                  : 0);
  }
  return Hash;
}

struct Setup {
  /// Per program, per function: the result hash of the *unoptimized*
  /// function on its evaluation inputs. Every config must reproduce it,
  /// so a miscompile in a phase all three configs share is caught too.
  std::vector<std::vector<uint64_t>> Reference;
  size_t Functions = 0;
  /// Eval cycles of the unoptimized program under the service's cost model.
  uint64_t Cycles = 0;
  double SetupS = 0.0;     ///< Reference time, median over repetitions.
  double GenerateMs = 0.0; ///< Generation share of that, median.
  unsigned ReferenceRunFailures = 0;
  bool Stable = true; ///< Every repetition produced the same reference.
};

Setup runSetup(const std::vector<Program> &Programs, unsigned Repetitions,
               SpeedGauge &Gauge, TraceSession *TS) {
  Setup S;
  std::vector<double> Seconds, GenerateMs;
  for (unsigned Rep = 0; Rep != Repetitions; ++Rep) {
    TraceSpan RepSpan(TS, "setup", "bench");
    double RepMs = 0.0, GenMs = 0.0;
    uint64_t Cycles = 0;
    unsigned Failures = 0;
    std::vector<std::vector<uint64_t>> Reference;
    for (const Program &P : Programs) {
      Gauge.sample();
      const uint64_t T0 = threadCpuNs();
      GeneratedWorkload W;
      {
        TraceSpan Span(TS, "workloads.generate", "workloads");
        W = makeWorkload(P);
      }
      const uint64_t GenNs = threadCpuNs() - T0;
      {
        TraceSpan Span(TS, "vm.reference", "vm");
        Interpreter Interp(*W.Mod);
        enableServiceCostModel(Interp);
        std::vector<uint64_t> Hashes;
        auto Functions = W.Mod->functions();
        for (size_t FIdx = 0; FIdx != Functions.size(); ++FIdx)
          Hashes.push_back(evalHash(Interp, *Functions[FIdx],
                                    W.EvalInputs[FIdx], Cycles, Failures));
        Reference.push_back(std::move(Hashes));
      }
      const uint64_t ProgramNs = threadCpuNs() - T0;
      Gauge.sample();
      RepMs += nsToMs(ProgramNs) * Gauge.scale();
      GenMs += nsToMs(GenNs) * Gauge.scale();
    }
    Seconds.push_back(RepMs / 1000.0);
    GenerateMs.push_back(GenMs);
    if (Rep == 0) {
      S.Reference = std::move(Reference);
      S.ReferenceRunFailures = Failures;
      S.Cycles = Cycles;
    } else if (Reference != S.Reference) {
      S.Stable = false;
    }
  }
  for (const auto &Hashes : S.Reference)
    S.Functions += Hashes.size();
  S.SetupS = median(ArrayRef<double>(Seconds));
  S.GenerateMs = median(ArrayRef<double>(GenerateMs));
  return S;
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

/// What one function's task produced.
struct TaskOutcome {
  uint64_t Cycles = 0;
  uint64_t CodeSize = 0;
  uint64_t Hash = 0;
  double CompileMs = 0.0;
  unsigned Duplications = 0;
  /// Rollbacks, run failures or an exhausted retry ladder.
  bool Faulted = false;
  size_t Config = 0; ///< Index into Configs.

  bool sameResult(const TaskOutcome &O) const {
    return Cycles == O.Cycles && CodeSize == O.CodeSize && Hash == O.Hash;
  }
};

/// Compiles every function of a freshly generated program under one config.
using CompileProgramFn =
    std::function<std::vector<TaskOutcome>(GeneratedWorkload &W, size_t CI,
                                           const Program &P)>;

struct PassResult {
  /// Per program: totals per config.
  std::vector<BenchmarkMeasurement> Rows;
  /// Every task in loop order (program, config, function).
  std::vector<TaskOutcome> Tasks;
  /// Time of each (program, config) compile call, in loop order: reference
  /// time in the timed passes, thread CPU time otherwise.
  std::vector<double> BatchSeconds;
  unsigned Failed = 0; ///< Tasks that faulted or missed the reference.
};

/// Runs one pass. With \p Gauge (the timed passes), the gauge is sampled
/// around every batch, and the batch's time and its tasks' compile times
/// are converted to reference time.
PassResult runPass(const std::vector<Program> &Programs, const Setup &S,
                   const CompileProgramFn &CompileProgram, SpeedGauge *Gauge,
                   TraceSession *TS) {
  PassResult R;
  R.Rows.resize(Programs.size());
  for (size_t PI = 0; PI != Programs.size(); ++PI) {
    const Program &P = Programs[PI];
    R.Rows[PI].Name = P.Name;
    for (size_t CI = 0; CI != NumConfigs; ++CI) {
      TraceSpan ConfigSpan(TS, runConfigName(Configs[CI]), "bench",
                           TS ? "\"program\":" + jsonString(P.Name)
                              : std::string());
      GeneratedWorkload W;
      {
        TraceSpan Span(TS, "workloads.generate", "workloads");
        W = makeWorkload(P);
      }
      if (Gauge)
        Gauge->sample();
      const uint64_t T0 = threadCpuNs();
      std::vector<TaskOutcome> Outcomes = CompileProgram(W, CI, P);
      const double BatchSeconds =
          static_cast<double>(threadCpuNs() - T0) / 1e9;
      double Scale = 1.0;
      if (Gauge) {
        Gauge->sample();
        Scale = Gauge->scale();
        for (TaskOutcome &O : Outcomes)
          O.CompileMs *= Scale;
      }
      R.BatchSeconds.push_back(BatchSeconds * Scale);

      ConfigMeasurement &M = configOf(R.Rows[PI], CI);
      for (size_t FIdx = 0; FIdx != Outcomes.size(); ++FIdx) {
        TaskOutcome &O = Outcomes[FIdx];
        if (O.Faulted || O.Hash != S.Reference[PI][FIdx])
          ++R.Failed;
        M.DynamicCycles += O.Cycles;
        M.CodeSize += O.CodeSize;
        M.CompileTimeMs += O.CompileMs;
        M.Duplications += O.Duplications;
        M.ResultHash = resultHashCombine(M.ResultHash, O.Hash);
        O.Config = CI;
        R.Tasks.push_back(O);
      }
    }
  }
  return R;
}

/// The reference path: the compile service, exactly as the figure drivers
/// run it. Its CompileMs is the service's wall-clock compile time.
std::vector<TaskOutcome> compileWithService(CompileService &Service,
                                            GeneratedWorkload &W, size_t CI,
                                            const Program &P) {
  CompileBatch Batch = compileFunctionsParallel(Service, W, Configs[CI],
                                                RunnerOptions(), P.Name);
  std::vector<TaskOutcome> Out;
  for (const FunctionCompileOutcome &O : Batch.Outcomes) {
    TaskOutcome T;
    T.Cycles = O.DynamicCycles;
    T.CodeSize = O.CodeSize;
    T.Hash = O.ResultHash;
    T.CompileMs = O.CompileTimeMs;
    T.Duplications = O.Duplications;
    T.Faulted = O.Rollbacks != 0 || O.RunFailures != 0 || O.Exhausted;
    Out.push_back(T);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The direct task body: timed and traced passes
//===----------------------------------------------------------------------===//

/// Per-config layer totals of the traced pass, on the wall clock the
/// library's own histograms use.
struct Layers {
  double TrainMs = 0.0, EvalMs = 0.0, PipelineMs = 0.0, DBDSMs = 0.0,
         CompileMs = 0.0;
  uint64_t CandidatesEvaluated = 0;
  std::map<std::string, uint64_t> Counters; ///< Deltas by qualified name.
  std::map<std::string, uint64_t> HistNs;   ///< Histogram sum deltas.

  double counter(const char *Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0.0 : static_cast<double>(It->second);
  }
  double histMs(const std::string &Name) const {
    auto It = HistNs.find(Name);
    return It == HistNs.end() ? 0.0 : nsToMs(It->second);
  }
};

std::map<std::string, uint64_t> histogramSums() {
  std::map<std::string, uint64_t> Out;
  for (const HistogramSample &S : MetricsRegistry::instance().snapshot())
    Out[S.Name] = S.H.sum();
  return Out;
}

/// One function's task, replicating compileFunctionsParallel's unsupervised
/// body through each layer's public entry point. The compile is timed on
/// the thread's CPU clock. In the traced pass (\p TS and \p L set) every
/// layer call is also wrapped in a span and timed on the wall clock.
TaskOutcome runTask(GeneratedWorkload &W, size_t FIdx, RunConfig Config,
                    TraceSession *TS, Layers *L) {
  Function &F = *W.Mod->functions()[FIdx];
  const std::string Args =
      TS ? "\"function\":" + jsonString(F.getName()) : std::string();
  auto AddWallMs = [L](double Layers::*Field, uint64_t Since) {
    if (L)
      L->*Field += nsToMs(Timer::nowNs() - Since);
  };
  TaskOutcome Out;
  unsigned RunFailures = 0;
  Interpreter Interp(*W.Mod);
  enableServiceCostModel(Interp);

  uint64_t T0 = Timer::nowNs();
  {
    TraceSpan Span(TS, "vm.train", "vm", Args);
    ProfileSummary Profile;
    for (const auto &In : W.TrainInputs[FIdx]) {
      Interp.reset();
      if (!Interp.run(F, ArrayRef<int64_t>(In), RunFuel, &Profile).Ok) {
        ++RunFailures;
        break;
      }
    }
    applyProfile(F, Profile);
  }
  AddWallMs(&Layers::TrainMs, T0);

  const uint64_t CompileT0 = Timer::nowNs(), CompileCpu0 = threadCpuNs();
  {
    TraceSpan Span(TS, "compile", "bench", Args);
    T0 = Timer::nowNs();
    {
      TraceSpan Inner(TS, "opts.pipeline", "opts");
      PhaseManager::standardPipeline(/*Verify=*/false, W.Mod.get())
          .run(F, PipelineRounds);
    }
    AddWallMs(&Layers::PipelineMs, T0);
    if (Config != RunConfig::Baseline) {
      T0 = Timer::nowNs();
      TraceSpan Inner(TS, "dbds.run", "dbds");
      DBDSConfig DC;
      DC.UseTradeoff = Config == RunConfig::DBDS;
      DC.ClassTable = W.Mod.get();
      DC.Verify = false;
      DBDSResult R = runDBDS(F, DC);
      Inner.close();
      AddWallMs(&Layers::DBDSMs, T0);
      Out.Duplications = R.DuplicationsPerformed;
      Out.Faulted = R.RollbacksPerformed != 0;
      if (L)
        L->CandidatesEvaluated += R.CandidatesSimulated;
    }
  }
  Out.CompileMs = nsToMs(threadCpuNs() - CompileCpu0);
  AddWallMs(&Layers::CompileMs, CompileT0);
  Out.CodeSize = F.estimatedCodeSize();

  T0 = Timer::nowNs();
  {
    TraceSpan Span(TS, "vm.eval", "vm", Args);
    Out.Hash =
        evalHash(Interp, F, W.EvalInputs[FIdx], Out.Cycles, RunFailures);
  }
  AddWallMs(&Layers::EvalMs, T0);
  Out.Faulted |= RunFailures != 0;
  return Out;
}

/// Compiles every function of \p W under config \p CI with runTask.
std::vector<TaskOutcome> compileDirect(GeneratedWorkload &W, size_t CI,
                                       TraceSession *TS, Layers *L) {
  std::vector<TaskOutcome> Out;
  for (size_t FIdx = 0; FIdx != W.Mod->functions().size(); ++FIdx)
    Out.push_back(runTask(W, FIdx, Configs[CI], TS, L));
  return Out;
}

/// The traced pass: layer histograms on, spans around every layer call,
/// counter and histogram deltas read per program and config into \p L.
PassResult runTracedPass(const std::vector<Program> &Programs,
                         const Setup &S, TraceSession &TS,
                         Layers (&L)[NumConfigs]) {
  const CompileProgramFn Traced = [&TS, &L](GeneratedWorkload &W, size_t CI,
                                            const Program &) {
    std::vector<CounterSample> Before = CounterRegistry::instance().snapshot();
    std::map<std::string, uint64_t> HistBefore = histogramSums();
    std::vector<TaskOutcome> Out = compileDirect(W, CI, &TS, &L[CI]);
    for (const CounterSample &D : CounterRegistry::delta(
             Before, CounterRegistry::instance().snapshot()))
      L[CI].Counters[D.Name] += D.Value;
    for (const auto &[Name, Sum] : histogramSums())
      L[CI].HistNs[Name] += Sum - HistBefore[Name];
    return Out;
  };
  MetricsRegistry::setEnabled(true);
  PassResult R = runPass(Programs, S, Traced, /*Gauge=*/nullptr, &TS);
  MetricsRegistry::setEnabled(false);
  return R;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// What a timed pass leaves behind once checked: its reference times, in
/// loop order. Keeping no more than this keeps the benchmark's own memory
/// out of peak_rss_mb, however many passes fit in --seconds.
struct PassTimes {
  std::vector<double> CompileMs;    ///< Per task.
  std::vector<double> BatchSeconds; ///< Per (program, config) batch.
};

/// \p Service gives each task's config, cycles and code size (every timed
/// pass reproduced them), \p Timed the timings.
std::vector<Metric> endToEndMetrics(const PassResult &Service,
                                    const std::vector<PassTimes> &Timed,
                                    const Setup &S) {
  // Each task's compile time, and each (program, config) batch's time, is
  // its median over the timed passes, in reference time: a burst of host
  // noise the gauge missed in one pass moves none of the timings below.
  auto MedianOverPasses = [&Timed](auto Get) {
    std::vector<double> PerPass;
    for (const PassTimes &P : Timed)
      PerPass.push_back(Get(P));
    return median(ArrayRef<double>(PerPass));
  };
  const std::vector<TaskOutcome> &Tasks = Service.Tasks;
  double CompileMs[NumConfigs] = {};
  std::vector<double> DBDSMs;
  uint64_t Cycles[NumConfigs] = {}, Size[NumConfigs] = {};
  for (size_t I = 0; I != Tasks.size(); ++I) {
    const double Ms =
        MedianOverPasses([I](const PassTimes &P) { return P.CompileMs[I]; });
    CompileMs[Tasks[I].Config] += Ms;
    if (Tasks[I].Config == DBDSIdx)
      DBDSMs.push_back(Ms);
    Cycles[Tasks[I].Config] += Tasks[I].Cycles;
    Size[Tasks[I].Config] += Tasks[I].CodeSize;
  }
  double PassSeconds = 0.0;
  for (size_t I = 0; I != Service.BatchSeconds.size(); ++I)
    PassSeconds += MedianOverPasses(
        [I](const PassTimes &P) { return P.BatchSeconds[I]; });

  std::vector<Metric> M;
  M.push_back({"setup_s", S.SetupS, "s"});
  for (size_t CI = 0; CI != NumConfigs; ++CI)
    M.push_back({std::string("compile_s.") + runConfigName(Configs[CI]),
                 CompileMs[CI] / 1000.0, "s"});
  M.push_back({"compile_ms_p50.dbds", quantile(DBDSMs, 0.5), "ms"});
  M.push_back({"compile_ms_p90.dbds", quantile(DBDSMs, 0.9), "ms"});
  // Cycles relative to the unoptimized program on the same inputs: the
  // absolute total moves with the inputs --seed draws, this ratio hardly.
  for (size_t CI = 0; CI != NumConfigs; ++CI)
    M.push_back(
        {std::string("run_cycles_vs_unopt.") + runConfigName(Configs[CI]),
         static_cast<double>(Cycles[CI]) / static_cast<double>(S.Cycles),
         "ratio"});
  for (size_t CI = 0; CI != NumConfigs; ++CI)
    M.push_back({std::string("code_size.") + runConfigName(Configs[CI]),
                 static_cast<double>(Size[CI]), "size_units"});
  M.push_back({"throughput_fn_per_s",
               static_cast<double>(Tasks.size()) / PassSeconds, "fn/s"});
  M.push_back({"peak_rss_mb",
               static_cast<double>(peakRssBytes()) / 1e6, "MB"});

  printf("n: %zu dbds functions, each the median of %zu pass(es)\n",
         DBDSMs.size(), Timed.size());
  printf("run cycles (absolute): unoptimized %llu, baseline %llu, dbds %llu, "
         "dupalot %llu\n",
         static_cast<unsigned long long>(S.Cycles),
         static_cast<unsigned long long>(Cycles[0]),
         static_cast<unsigned long long>(Cycles[1]),
         static_cast<unsigned long long>(Cycles[2]));
  return M;
}

std::vector<Metric> layerMetrics(const Layers (&L)[NumConfigs],
                                 const Setup &S, double UntracedCompileMs,
                                 double CalibMs) {
  std::vector<Metric> M;
  M.push_back({"workloads.generate_ms", S.GenerateMs, "ms"});
  double TracedCompileMs = 0.0;
  for (size_t CI = 0; CI != NumConfigs; ++CI) {
    const std::string C = runConfigName(Configs[CI]);
    const Layers &X = L[CI];
    TracedCompileMs += X.CompileMs;
    M.push_back({"vm.train_ms." + C, X.TrainMs, "ms"});
    M.push_back({"vm.eval_ms." + C, X.EvalMs, "ms"});
    M.push_back({"vm.instructions." + C,
                 X.counter("interpreter.instructions_executed"), "count"});
    M.push_back({"opts.pipeline_ms." + C, X.PipelineMs, "ms"});
    for (const char *Phase : StandardPhases)
      M.push_back({std::string("opts.phase.") + Phase + "_ms." + C,
                   X.histMs(std::string("phase.") + Phase), "ms"});
    M.push_back(
        {"opts.phases_run." + C, X.counter("phase_manager.phases_run"),
         "count"});
    M.push_back(
        {"opts.rounds_run." + C, X.counter("phase_manager.rounds_run"),
         "count"});
    M.push_back({"compile.unattributed_ms." + C,
                 X.CompileMs - X.PipelineMs - X.DBDSMs, "ms"});
    if (Configs[CI] == RunConfig::Baseline)
      continue;
    const double Simulate = X.histMs("dbds.simulate_ns"),
                 Tradeoff = X.histMs("dbds.tradeoff_ns"),
                 Optimize = X.histMs("dbds.optimize_ns");
    M.push_back({"dbds.run_ms." + C, X.DBDSMs, "ms"});
    M.push_back({"dbds.simulate_ms." + C, Simulate, "ms"});
    M.push_back({"dbds.tradeoff_ms." + C, Tradeoff, "ms"});
    M.push_back({"dbds.optimize_ms." + C, Optimize, "ms"});
    M.push_back({"dbds.cleanup_ms." + C,
                 X.DBDSMs - Simulate - Tradeoff - Optimize, "ms"});
    const double Evaluated = static_cast<double>(X.CandidatesEvaluated);
    const double Dups = X.counter("dbds.duplications_performed");
    const double Stale = X.counter("dbds.candidates_stale");
    const double Phis = X.counter("duplicator.phis_created");
    auto Ratio = [](double A, double B) { return B > 0.0 ? A / B : 0.0; };
    M.push_back({"dbds.candidates_evaluated." + C, Evaluated, "count"});
    M.push_back({"dbds.duplications." + C, Dups, "count"});
    M.push_back({"dbds.candidates_stale." + C, Stale, "count"});
    M.push_back({"dbds.phis_created." + C, Phis, "count"});
    M.push_back({"dbds.instructions_copied." + C,
                 X.counter("duplicator.instructions_copied"), "count"});
    M.push_back(
        {"dbds.iterations." + C, X.counter("dbds.iterations_run"), "count"});
    M.push_back({"dbds.accept_ratio." + C, Ratio(Dups, Evaluated), "ratio"});
    M.push_back({"dbds.stale_ratio." + C, Ratio(Stale, Evaluated), "ratio"});
    M.push_back({"dbds.phis_per_dup." + C, Ratio(Phis, Dups), "ratio"});
  }
  M.push_back({"trace.overhead_pct",
               (TracedCompileMs / UntracedCompileMs - 1.0) * 100.0, "%"});
  M.push_back({"env.calib_ms", CalibMs, "ms"});
  return M;
}

//===----------------------------------------------------------------------===//
// Reporting and gates
//===----------------------------------------------------------------------===//

std::string formatNumber(double V) {
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string renderMetricsJson(const std::vector<Metric> &Metrics) {
  std::string Out = "{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Out += ", ";
    Out += jsonString(Metrics[I].Name) +
           ": {\"value\": " + formatNumber(Metrics[I].Value) +
           ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  }
  return Out + "}";
}

/// The paper's baseline-relative geomeans, computed as bench_headline
/// computes them. Printed, never gated: a change that speeds up or
/// improves the shared pipeline would make these ratios look worse.
std::string paperGeomeans(const std::vector<BenchmarkMeasurement> &Rows) {
  std::vector<double> Peak[2], Size[2], Compile[2];
  for (const BenchmarkMeasurement &M : Rows)
    for (size_t D = 0; D != 2; ++D) {
      const ConfigMeasurement &C = D == 0 ? M.DBDS : M.DupALot;
      Peak[D].push_back(1.0 + M.peakImprovementPercent(C) / 100.0);
      Size[D].push_back(1.0 + M.codeSizeIncreasePercent(C) / 100.0);
      Compile[D].push_back(1.0 + M.compileTimeIncreasePercent(C) / 100.0);
    }
  auto Geo = [](std::vector<double> &V) {
    return (geometricMean(ArrayRef<double>(V)) - 1.0) * 100.0;
  };
  char Buf[512];
  snprintf(Buf, sizeof(Buf),
           "paper geomeans vs baseline over %zu programs (printed, not "
           "gated):\n"
           "  dbds    peak %+.2f%%, code size %+.2f%%, compile time %+.2f%%\n"
           "  dupalot peak %+.2f%%, code size %+.2f%%, compile time %+.2f%%\n",
           Rows.size(), Geo(Peak[0]), Geo(Size[0]), Geo(Compile[0]),
           Geo(Peak[1]), Geo(Size[1]), Geo(Compile[1]));
  return Buf;
}

/// Writes the --json-out report: the result line's fields plus one row per
/// program (compile time summed over passes).
bool writeReport(const std::string &Path, const Options &O, size_t PassCount,
                 const std::string &Result,
                 const std::vector<BenchmarkMeasurement> &Rows) {
  std::string Doc = "{\"workload\": " + jsonString(O.Workload->Name) +
                    ", \"seed\": " + std::to_string(O.Seed) +
                    ", \"trace\": " + jsonBool(O.Trace) +
                    ", \"passes\": " + std::to_string(PassCount) +
                    ",\n \"result\": " + Result + ",\n \"programs\": [";
  for (size_t I = 0; I != Rows.size(); ++I) {
    Doc += I ? ",\n  {" : "\n  {";
    Doc += "\"name\": " + jsonString(Rows[I].Name);
    for (size_t CI = 0; CI != NumConfigs; ++CI) {
      const ConfigMeasurement &C = configOf(Rows[I], CI);
      Doc += std::string(", ") + jsonString(runConfigName(Configs[CI])) +
             ": {\"cycles\": " + std::to_string(C.DynamicCycles) +
             ", \"code_size\": " + std::to_string(C.CodeSize) +
             ", \"compile_ms\": " + formatNumber(C.CompileTimeMs) +
             ", \"duplications\": " + std::to_string(C.Duplications) + "}";
    }
    Doc += "}";
  }
  Doc += "\n]}\n";
  FILE *File = fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  bool Ok = fwrite(Doc.data(), 1, Doc.size(), File) == Doc.size();
  return fclose(File) == 0 && Ok;
}

/// Compares one pass's paper-suites rows with measureSuite's, the path the
/// figure drivers take. Returns the number of differing (program, config)
/// pairs.
unsigned
compareWithMeasureSuite(const std::vector<BenchmarkMeasurement> &Rows) {
  unsigned Mismatches = 0;
  size_t Index = 0;
  for (const SuiteSpec &Suite : allSuites())
    for (const BenchmarkMeasurement &M : measureSuite(Suite, RunnerOptions())) {
      const BenchmarkMeasurement &Mine = Rows[Index++];
      for (size_t CI = 0; CI != NumConfigs; ++CI) {
        const ConfigMeasurement &A = configOf(M, CI), &B = configOf(Mine, CI);
        if (A.DynamicCycles != B.DynamicCycles || A.CodeSize != B.CodeSize ||
            A.ResultHash != B.ResultHash ||
            A.Duplications != B.Duplications) {
          fprintf(stderr, "equivalence: %s/%s differs from measureSuite\n",
                  Mine.Name.c_str(), runConfigName(Configs[CI]));
          ++Mismatches;
        }
      }
    }
  return Mismatches;
}

/// Tasks of \p A whose cycles, size or result hash differ from \p B's.
unsigned countMismatches(const PassResult &A, const PassResult &B) {
  unsigned N = 0;
  for (size_t I = 0; I != A.Tasks.size(); ++I)
    N += !A.Tasks[I].sameResult(B.Tasks[I]);
  return N;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Error = parseOptions(Argc, Argv, O);
  if (!Error.empty()) {
    fprintf(stderr, "dbds_bench: %s\n%s", Error.c_str(), Usage);
    return 2;
  }
  const std::vector<Program> Programs = O.Workload->Make(O.Seed);
  // Failures not tied to one task: a nondeterministic pass, an equivalence
  // mismatch, an unstable or non-terminating reference.
  std::vector<std::string> GateFailures;

  SpeedGauge Gauge;
  TraceSession Session;
  TraceSession *TS = O.Trace ? &Session : nullptr;
  // Set-up is repeated so setup_s can be a median; the traced and smoke
  // runs need only the reference.
  Setup S = runSetup(Programs, O.Trace || O.Smoke ? 1 : 5, Gauge, TS);
  if (!S.Stable)
    GateFailures.push_back("set-up repetitions disagree");
  if (S.ReferenceRunFailures != 0)
    GateFailures.push_back(std::to_string(S.ReferenceRunFailures) +
                           " reference run(s) did not terminate");

  // The first pass goes through the compile service, as the figure drivers
  // run it: it warms up, and it is what every later pass must reproduce bit
  // for bit. The timed passes run the same task body directly, so the
  // compile can be timed on the CPU clock and converted to reference time.
  // They repeat until --seconds have passed since the service pass began;
  // the last is never cut short (--smoke takes one, the traced run none).
  CompileService Service(1);
  const CompileProgramFn ViaService = [&Service](GeneratedWorkload &W,
                                                 size_t CI, const Program &P) {
    return compileWithService(Service, W, CI, P);
  };
  const CompileProgramFn Direct = [](GeneratedWorkload &W, size_t CI,
                                     const Program &) {
    return compileDirect(W, CI, nullptr, nullptr);
  };
  const uint64_t LoopT0 = Timer::nowNs();
  const PassResult ServicePass =
      runPass(Programs, S, ViaService, /*Gauge=*/nullptr, nullptr);
  unsigned Attempted = static_cast<unsigned>(ServicePass.Tasks.size()),
           Failed = ServicePass.Failed;
  // Per-program rows: the service pass's, with compile time summed over
  // the timed passes (the other fields are the same in every pass).
  std::vector<BenchmarkMeasurement> Rows = ServicePass.Rows;
  if (!O.Trace)
    for (BenchmarkMeasurement &Row : Rows)
      for (size_t CI = 0; CI != NumConfigs; ++CI)
        configOf(Row, CI).CompileTimeMs = 0.0;
  std::vector<PassTimes> Timed;
  bool Diverged = false;
  auto WantPass = [&]() {
    if (O.Trace)
      return false;
    if (Timed.empty())
      return true;
    return !O.Smoke &&
           static_cast<double>(Timer::nowNs() - LoopT0) / 1e9 < O.Seconds;
  };
  while (WantPass()) {
    PassResult P = runPass(Programs, S, Direct, &Gauge, nullptr);
    Attempted += static_cast<unsigned>(P.Tasks.size());
    Failed += P.Failed;
    Diverged |= countMismatches(P, ServicePass) != 0;
    for (size_t I = 0; I != Rows.size(); ++I)
      for (size_t CI = 0; CI != NumConfigs; ++CI)
        configOf(Rows[I], CI).CompileTimeMs +=
            configOf(P.Rows[I], CI).CompileTimeMs;
    PassTimes T;
    for (const TaskOutcome &Task : P.Tasks)
      T.CompileMs.push_back(Task.CompileMs);
    T.BatchSeconds = std::move(P.BatchSeconds);
    Timed.push_back(std::move(T));
  }
  if (Diverged)
    GateFailures.push_back("timed passes differ from compileFunctionsParallel");

  if (O.Smoke && !O.Trace && O.Seed == 0 &&
      std::string(O.Workload->Name) == "paper-suites") {
    unsigned Mismatches = compareWithMeasureSuite(ServicePass.Rows);
    printf("equivalence: paper-suites rows vs measureSuite: %u mismatch(es)\n",
           Mismatches);
    if (Mismatches)
      GateFailures.push_back("paper-suites rows differ from measureSuite");
  }

  std::vector<Metric> Metrics;
  if (!O.Trace) {
    Metrics = endToEndMetrics(ServicePass, Timed, S);
  } else {
    Layers L[NumConfigs];
    PassResult Traced = runTracedPass(Programs, S, Session, L);
    Attempted += static_cast<unsigned>(Traced.Tasks.size());
    Failed += Traced.Failed;
    unsigned Mismatches = countMismatches(Traced, ServicePass);
    printf("equivalence: traced task body vs compileFunctionsParallel: %u "
           "mismatch(es) over %zu task(s)\n",
           Mismatches, Traced.Tasks.size());
    if (Mismatches)
      GateFailures.push_back("traced task body differs from the service");

    // The service's compile times are wall-clock, like the traced layers'.
    double UntracedMs = 0.0;
    for (const TaskOutcome &T : ServicePass.Tasks)
      UntracedMs += T.CompileMs;
    Metrics = layerMetrics(L, S, UntracedMs, Gauge.medianMs());

    if (!O.TraceDir.empty()) {
      const std::string Stem = O.TraceDir + "/" + O.Workload->Name + "-seed" +
                               std::to_string(O.Seed);
      std::string TraceError;
      if (!Session.writeJson(Stem + ".trace.json", &TraceError) ||
          !Session.writeFolded(Stem + ".folded", &TraceError)) {
        fprintf(stderr, "dbds_bench: cannot write trace: %s\n",
                TraceError.c_str());
        GateFailures.push_back("trace files not written");
      } else {
        printf("trace: %s.trace.json, %s.folded\n", Stem.c_str(),
               Stem.c_str());
      }
    }
  }

  if (!Gauge.consistent())
    GateFailures.push_back("speed gauge kernel result changed");
  const bool Correct = Failed == 0 && GateFailures.empty();
  printf("workload %s, seed %llu, %zu program(s), %zu function(s), 1 "
         "service pass + %zu timed pass(es)%s\n",
         O.Workload->Name, static_cast<unsigned long long>(O.Seed),
         Programs.size(), S.Functions, Timed.size(),
         O.Trace ? " + 1 traced pass" : "");
  printf("%s", formatSuiteReport(O.Workload->Name, Rows).c_str());
  printf("%s", paperGeomeans(Rows).c_str());
  for (const Metric &M : Metrics)
    printf("  %-46s %18.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  printf("env.calib_ms (speed gauge, raw CPU time): %.3f ms, median; "
         "reference %.3f ms\n",
         Gauge.medianMs(), SpeedGauge::ReferenceMs);
  printf("correctness: %u task(s), %u failed (failed_frac %.6f)\n", Attempted,
         Failed, static_cast<double>(Failed) / Attempted);
  for (const std::string &G : GateFailures)
    printf("correctness: FAILED: %s\n", G.c_str());

  const std::string Result =
      std::string("{\"correct\": ") + jsonBool(Correct) +
      ", \"attempted\": " + std::to_string(Attempted) +
      ", \"failed\": " + std::to_string(Failed) +
      ", \"metrics\": " + renderMetricsJson(Metrics) + "}";
  if (!O.JsonOut.empty() &&
      !writeReport(O.JsonOut, O, 1 + Timed.size() + O.Trace, Result,
                   Rows)) {
    fprintf(stderr, "dbds_bench: cannot write %s\n", O.JsonOut.c_str());
    return 1;
  }
  printf("%s\n", Result.c_str());
  return Correct ? 0 : 1;
}
