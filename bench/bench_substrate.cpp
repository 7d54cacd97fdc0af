//===- bench/bench_substrate.cpp - Substrate micro-benchmarks -------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark micro-benchmarks of the compiler substrate itself:
// dominator tree construction, the DBDS simulation tier, the duplication
// transformation, the cleanup pipeline, IR cloning (the backtracking
// cost), parsing/printing, and the interpreter. These back the §3.1
// argument quantitatively: simulation must be much cheaper than cloning
// the IR per candidate.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"
#include "analysis/Loops.h"
#include "dbds/Duplicator.h"
#include "dbds/Simulator.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Phase.h"
#include "vm/Interpreter.h"
#include "workloads/ProgramGenerator.h"

#include <benchmark/benchmark.h>

using namespace dbds;

namespace {

GeneratedWorkload makeUnit(int Segments) {
  GeneratorConfig Config;
  Config.Seed = 0x5B;
  Config.NumFunctions = 1;
  Config.SegmentsPerFunction = static_cast<unsigned>(Segments);
  Config.ColdSegments = static_cast<unsigned>(Segments);
  return generateWorkload(Config);
}

void BM_DominatorTreeConstruction(benchmark::State &State) {
  GeneratedWorkload W = makeUnit(static_cast<int>(State.range(0)));
  Function &F = *W.Mod->functions()[0];
  for (auto _ : State) {
    DominatorTree DT(F);
    benchmark::DoNotOptimize(DT.rpo().size());
  }
  State.counters["blocks"] = static_cast<double>(F.getNumBlocks());
}
BENCHMARK(BM_DominatorTreeConstruction)->Arg(4)->Arg(16)->Arg(64);

void BM_SimulationTier(benchmark::State &State) {
  GeneratedWorkload W = makeUnit(static_cast<int>(State.range(0)));
  Function &F = *W.Mod->functions()[0];
  for (auto _ : State) {
    auto Candidates = simulateDuplications(F, W.Mod.get());
    benchmark::DoNotOptimize(Candidates.size());
  }
  State.counters["insts"] = static_cast<double>(F.instructionCount());
}
BENCHMARK(BM_SimulationTier)->Arg(4)->Arg(16)->Arg(64);

void BM_FunctionClone(benchmark::State &State) {
  // The whole-IR snapshot the backtracking baseline takes per candidate.
  GeneratedWorkload W = makeUnit(static_cast<int>(State.range(0)));
  Function &F = *W.Mod->functions()[0];
  for (auto _ : State) {
    auto Copy = F.clone();
    benchmark::DoNotOptimize(Copy->instructionCount());
  }
  State.counters["insts"] = static_cast<double>(F.instructionCount());
}
BENCHMARK(BM_FunctionClone)->Arg(4)->Arg(16)->Arg(64);

void BM_DuplicateOnePair(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    GeneratedWorkload W = makeUnit(8);
    Function &F = *W.Mod->functions()[0];
    Block *Merge = nullptr, *Pred = nullptr;
    DominatorTree DT(F);
    for (Block *B : F.blocks()) {
      if (!B->isMerge() || LoopInfo::isHeader(B, DT))
        continue;
      for (Block *P : B->preds())
        if (canDuplicateInto(B, P)) {
          Merge = B;
          Pred = P;
          break;
        }
      if (Merge)
        break;
    }
    State.ResumeTiming();
    if (Merge)
      duplicateIntoPredecessor(F, Merge, Pred);
  }
}
BENCHMARK(BM_DuplicateOnePair);

void BM_CleanupPipeline(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    GeneratedWorkload W = makeUnit(8);
    Function &F = *W.Mod->functions()[0];
    State.ResumeTiming();
    PhaseManager PM = PhaseManager::standardPipeline(false, W.Mod.get());
    PM.run(F);
  }
}
BENCHMARK(BM_CleanupPipeline);

void BM_PrintParseRoundTrip(benchmark::State &State) {
  GeneratedWorkload W = makeUnit(8);
  for (auto _ : State) {
    std::string Text = printModule(W.Mod.get());
    ParseResult R = parseModule(Text);
    benchmark::DoNotOptimize(R.Mod->functions().size());
  }
}
BENCHMARK(BM_PrintParseRoundTrip);

void BM_Interpreter(benchmark::State &State) {
  GeneratedWorkload W = makeUnit(8);
  Function &F = *W.Mod->functions()[0];
  Interpreter Interp(*W.Mod);
  uint64_t Steps = 0;
  for (auto _ : State) {
    Interp.reset();
    ExecutionResult R =
        Interp.run(F, ArrayRef<int64_t>(W.EvalInputs[0][0]), 1u << 24);
    Steps += R.Steps;
    benchmark::DoNotOptimize(R.DynamicCycles);
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Interpreter);

} // namespace

BENCHMARK_MAIN();
