//===- tests/property_test.cpp - Parameterized invariant sweeps ------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property-based testing over the program generator: for a sweep of seeds
// and program shapes, every optimization configuration must
//
//   P1 keep the IR verifier-clean after every phase,
//   P2 preserve the observable result on every input,
//   P3 never increase dynamic cost-model cycles (monotone improvement),
//   P4 respect the code-size budget when the trade-off tier is on,
//   P5 simulate without mutating the IR.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "dbds/DBDSPhase.h"
#include "dbds/Simulator.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Phase.h"
#include "vm/Interpreter.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

struct SweepParam {
  uint64_t Seed;
  bool WrapInLoop;
  double Skew;
  double CallRate;

  friend std::ostream &operator<<(std::ostream &OS, const SweepParam &P) {
    return OS << "seed" << P.Seed << (P.WrapInLoop ? "_loop" : "_straight")
              << "_skew" << static_cast<int>(P.Skew * 100) << "_call"
              << static_cast<int>(P.CallRate * 100);
  }
};

class OptimizationProperties : public ::testing::TestWithParam<SweepParam> {
protected:
  GeneratorConfig makeConfig() const {
    const SweepParam &P = GetParam();
    GeneratorConfig Config;
    Config.Seed = P.Seed;
    Config.NumFunctions = 3;
    Config.SegmentsPerFunction = 5;
    Config.WrapInLoop = P.WrapInLoop;
    Config.BranchSkew = P.Skew;
    Config.CallRate = P.CallRate;
    return Config;
  }
};

/// Runs all eval inputs and returns (result vector, total cycles).
std::pair<std::vector<int64_t>, uint64_t>
evaluate(GeneratedWorkload &W, unsigned FIdx, Function &F) {
  std::vector<int64_t> Results;
  uint64_t Cycles = 0;
  Interpreter Interp(*W.Mod);
  for (const auto &Args : W.EvalInputs[FIdx]) {
    Interp.reset();
    ExecutionResult R = Interp.run(F, ArrayRef<int64_t>(Args), 1u << 24);
    EXPECT_TRUE(R.Ok) << "program did not terminate";
    Results.push_back(R.HasResult ? R.Result.Scalar : 0);
    Cycles += R.DynamicCycles;
  }
  return {Results, Cycles};
}

void profileFunction(GeneratedWorkload &W, unsigned FIdx, Function &F) {
  Interpreter Interp(*W.Mod);
  ProfileSummary Profile;
  for (const auto &Args : W.TrainInputs[FIdx]) {
    Interp.reset();
    Interp.run(F, ArrayRef<int64_t>(Args), 1u << 24, &Profile);
  }
  applyProfile(F, Profile);
}

TEST_P(OptimizationProperties, StandardPipelinePreservesSemantics) {
  GeneratedWorkload W = generateWorkload(makeConfig());
  auto Functions = W.Mod->functions();
  for (unsigned FIdx = 0; FIdx != Functions.size(); ++FIdx) {
    Function &F = *Functions[FIdx];
    auto [Before, CyclesBefore] = evaluate(W, FIdx, F);
    profileFunction(W, FIdx, F);
    PhaseManager PM = PhaseManager::standardPipeline(true, W.Mod.get());
    PM.run(F);
    ASSERT_EQ(verifyFunction(F), ""); // P1
    auto [After, CyclesAfter] = evaluate(W, FIdx, F);
    EXPECT_EQ(Before, After);              // P2
    EXPECT_LE(CyclesAfter, CyclesBefore);  // P3
  }
}

TEST_P(OptimizationProperties, DBDSPreservesSemanticsAndImproves) {
  GeneratedWorkload W = generateWorkload(makeConfig());
  auto Functions = W.Mod->functions();
  for (unsigned FIdx = 0; FIdx != Functions.size(); ++FIdx) {
    Function &F = *Functions[FIdx];
    profileFunction(W, FIdx, F);
    PhaseManager PM = PhaseManager::standardPipeline(true, W.Mod.get());
    PM.run(F);
    auto [Before, CyclesBefore] = evaluate(W, FIdx, F);
    uint64_t SizeBefore = F.estimatedCodeSize();

    DBDSConfig Config;
    Config.ClassTable = W.Mod.get();
    runDBDS(F, Config);
    ASSERT_EQ(verifyFunction(F), ""); // P1
    auto [After, CyclesAfter] = evaluate(W, FIdx, F);
    EXPECT_EQ(Before, After);             // P2
    EXPECT_LE(CyclesAfter, CyclesBefore); // P3
    // P4: cleanup may shrink below the formal bound, but the post-DBDS
    // size must stay within the §5.4 budget of the pre-DBDS unit.
    EXPECT_LE(F.estimatedCodeSize(),
              static_cast<uint64_t>(static_cast<double>(SizeBefore) *
                                    Config.IncreaseBudget) +
                  64);
  }
}

TEST_P(OptimizationProperties, DupalotPreservesSemantics) {
  GeneratedWorkload W = generateWorkload(makeConfig());
  auto Functions = W.Mod->functions();
  for (unsigned FIdx = 0; FIdx != Functions.size(); ++FIdx) {
    Function &F = *Functions[FIdx];
    profileFunction(W, FIdx, F);
    PhaseManager PM = PhaseManager::standardPipeline(true, W.Mod.get());
    PM.run(F);
    auto [Before, CyclesBefore] = evaluate(W, FIdx, F);
    DBDSConfig Config;
    Config.ClassTable = W.Mod.get();
    Config.UseTradeoff = false;
    runDBDS(F, Config);
    ASSERT_EQ(verifyFunction(F), "");
    auto [After, CyclesAfter] = evaluate(W, FIdx, F);
    EXPECT_EQ(Before, After);
    EXPECT_LE(CyclesAfter, CyclesBefore);
  }
}

TEST_P(OptimizationProperties, SimulationDoesNotMutate) {
  GeneratedWorkload W = generateWorkload(makeConfig());
  for (Function *F : W.Mod->functions()) {
    std::string Before = printFunction(F);
    simulateDuplications(*F, W.Mod.get());
    EXPECT_EQ(printFunction(F), Before); // P5 (modulo revived constants,
                                         // which print canonically)
    EXPECT_EQ(verifyFunction(*F), "");
  }
}

TEST_P(OptimizationProperties, PrintParsePrintIsAFixedPoint) {
  // P6: the canonical printing is a parse fixed point — print(parse(T))
  // == T for both pristine and fully optimized modules. The optimized
  // case is the hard one: duplication appends and redirects predecessor
  // edges, so phi-input ordering only round-trips because the printer
  // emits a text-derivable canonical order.
  GeneratedWorkload W = generateWorkload(makeConfig());
  const std::string Pristine = printModule(W.Mod.get());
  ParseResult R = parseModule(Pristine);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(printModule(R.Mod.get()), Pristine);

  auto Functions = W.Mod->functions();
  for (unsigned FIdx = 0; FIdx != Functions.size(); ++FIdx) {
    Function &F = *Functions[FIdx];
    profileFunction(W, FIdx, F);
    PhaseManager PM = PhaseManager::standardPipeline(true, W.Mod.get());
    PM.run(F);
    DBDSConfig Config;
    Config.ClassTable = W.Mod.get();
    runDBDS(F, Config);
  }
  const std::string Optimized = printModule(W.Mod.get());
  ParseResult R2 = parseModule(Optimized);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(printModule(R2.Mod.get()), Optimized);
}

TEST_P(OptimizationProperties, BacktrackingAgreesWithInterpreter) {
  GeneratedWorkload W = generateWorkload(makeConfig());
  auto Functions = W.Mod->functions();
  // Backtracking is slow by design; exercise the first function only.
  unsigned FIdx = 0;
  profileFunction(W, FIdx, *Functions[FIdx]);
  auto [Before, CyclesBefore] = evaluate(W, FIdx, *Functions[FIdx]);
  std::unique_ptr<Function> F = Functions[FIdx]->clone();
  runBacktrackingDuplication(F, W.Mod.get());
  ASSERT_EQ(verifyFunction(*F), "");
  auto [After, CyclesAfter] = evaluate(W, FIdx, *F);
  EXPECT_EQ(Before, After);
  EXPECT_LE(CyclesAfter, CyclesBefore);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizationProperties,
    ::testing::ValuesIn([] {
      std::vector<SweepParam> Params;
      for (uint64_t Seed : {11ull, 22ull, 33ull, 44ull, 55ull, 66ull, 77ull,
                            88ull})
        for (bool Loop : {true, false})
          Params.push_back({Seed, Loop, Loop ? 0.8 : 0.5, 0.1});
      // Extremes: always/never-taken branches, call-heavy code.
      Params.push_back({101, true, 0.05, 0.0});
      Params.push_back({102, true, 0.95, 0.0});
      Params.push_back({103, false, 0.5, 0.6});
      Params.push_back({104, true, 0.5, 0.6});
      return Params;
    }()),
    [](const ::testing::TestParamInfo<SweepParam> &Info) {
      std::ostringstream OS;
      OS << Info.param;
      return OS.str();
    });

} // namespace
