//===- tests/workloads_test.cpp - Generator + harness integration ----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "dbds/DBDSPhase.h"
#include "ir/Printer.h"
#include "opts/Phase.h"
#include "vm/Interpreter.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

TEST(GeneratorTest, IsDeterministic) {
  GeneratorConfig Config;
  Config.Seed = 1234;
  Config.NumFunctions = 3;
  GeneratedWorkload A = generateWorkload(Config);
  GeneratedWorkload B = generateWorkload(Config);
  ASSERT_EQ(A.Mod->functions().size(), B.Mod->functions().size());
  EXPECT_EQ(printModule(A.Mod.get()), printModule(B.Mod.get()));
  EXPECT_EQ(A.TrainInputs, B.TrainInputs);
  EXPECT_EQ(A.EvalInputs, B.EvalInputs);
  Interpreter IA(*A.Mod), IB(*B.Mod);
  for (unsigned F = 0; F != 3; ++F) {
    for (const auto &Args : A.EvalInputs[F]) {
      IA.reset();
      IB.reset();
      auto RA = IA.run(*A.Mod->functions()[F], ArrayRef<int64_t>(Args));
      auto RB = IB.run(*B.Mod->functions()[F], ArrayRef<int64_t>(Args));
      ASSERT_TRUE(RA.Ok);
      ASSERT_TRUE(RB.Ok);
      EXPECT_EQ(RA.Result.Scalar, RB.Result.Scalar);
      EXPECT_EQ(RA.DynamicCycles, RB.DynamicCycles);
    }
  }
}

TEST(GeneratorTest, ProducesVerifiableFunctionsAcrossSeeds) {
  for (uint64_t Seed : {1ull, 7ull, 42ull, 1000ull, 31337ull}) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    Config.NumFunctions = 4;
    GeneratedWorkload W = generateWorkload(Config);
    for (Function *F : W.Mod->functions())
      EXPECT_EQ(verifyFunction(*F), "") << "seed " << Seed;
  }
}

TEST(GeneratorTest, AllProgramsTerminate) {
  GeneratorConfig Config;
  Config.Seed = 99;
  Config.NumFunctions = 4;
  GeneratedWorkload W = generateWorkload(Config);
  Interpreter Interp(*W.Mod);
  auto Functions = W.Mod->functions();
  for (unsigned F = 0; F != Functions.size(); ++F) {
    for (const auto &Args : W.EvalInputs[F]) {
      Interp.reset();
      EXPECT_TRUE(
          Interp.run(*Functions[F], ArrayRef<int64_t>(Args), 1u << 22).Ok);
    }
  }
}

TEST(GeneratorTest, MixKnobsChangeOpportunityProfile) {
  GeneratorConfig Alloc;
  Alloc.Seed = 5;
  Alloc.Mix = {};
  Alloc.Mix.PartialEscape = 10.0;
  Alloc.Mix.ConstantFold = Alloc.Mix.ConditionalElim = Alloc.Mix.ReadElim =
      Alloc.Mix.StrengthReduction = Alloc.Mix.Noise = 0.0;
  GeneratedWorkload WAlloc = generateWorkload(Alloc);

  GeneratorConfig Div = Alloc;
  Div.Mix = {};
  Div.Mix.StrengthReduction = 10.0;
  Div.Mix.ConstantFold = Div.Mix.ConditionalElim = Div.Mix.PartialEscape =
      Div.Mix.ReadElim = Div.Mix.Noise = 0.0;
  GeneratedWorkload WDiv = generateWorkload(Div);

  auto countOp = [](Module &M, Opcode Op) {
    unsigned N = 0;
    for (Function *F : M.functions())
      for (Block *B : F->blocks())
        for (Instruction *I : *B)
          N += I->getOpcode() == Op ? 1 : 0;
    return N;
  };
  EXPECT_GT(countOp(*WAlloc.Mod, Opcode::New),
            countOp(*WDiv.Mod, Opcode::New));
  EXPECT_GT(countOp(*WDiv.Mod, Opcode::Div),
            countOp(*WAlloc.Mod, Opcode::Div));
}

TEST(RunnerTest, MeasuresABenchmarkWithConsistentResults) {
  GeneratorConfig Config;
  Config.Seed = 2024;
  Config.NumFunctions = 4;
  BenchmarkSpec Spec{"smoke", Config};
  BenchmarkMeasurement M = measureBenchmark(Spec);
  // A result divergence across configurations is recorded, not fatal —
  // this is the end-to-end correctness assertion.
  EXPECT_TRUE(M.ResultsAgree);
  EXPECT_EQ(M.Baseline.RunFailures, 0u);
  EXPECT_GT(M.Baseline.DynamicCycles, 0u);
  EXPECT_GT(M.DBDS.CodeSize, 0u);
  // DBDS must never be slower than baseline on the cost-model metric.
  EXPECT_LE(M.DBDS.DynamicCycles, M.Baseline.DynamicCycles);
  // The trade-off keeps DBDS's code size at or below dupalot's.
  EXPECT_LE(M.DBDS.CodeSize, M.DupALot.CodeSize);
}

TEST(SuitesTest, AllSuitesAreFullyNamed) {
  auto Suites = allSuites();
  ASSERT_EQ(Suites.size(), 4u);
  EXPECT_EQ(Suites[0].Benchmarks.size(), 10u); // Java DaCapo, Figure 5
  EXPECT_EQ(Suites[1].Benchmarks.size(), 12u); // Scala DaCapo, Figure 6
  EXPECT_EQ(Suites[2].Benchmarks.size(), 9u);  // Micro, Figure 7
  EXPECT_EQ(Suites[3].Benchmarks.size(), 14u); // Octane, Figure 8
  // §6.2 calls these out by name.
  auto hasBench = [](const SuiteSpec &S, const char *Name) {
    for (const auto &B : S.Benchmarks)
      if (B.Name == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(hasBench(Suites[0], "jython"));
  EXPECT_TRUE(hasBench(Suites[0], "luindex"));
  EXPECT_TRUE(hasBench(Suites[2], "akkaPP"));
  EXPECT_TRUE(hasBench(Suites[3], "raytrace"));
}

TEST(SuitesTest, SeedsAreStablePerName) {
  auto A = javaDaCapoSuite();
  auto B = javaDaCapoSuite();
  for (unsigned I = 0; I != A.Benchmarks.size(); ++I)
    EXPECT_EQ(A.Benchmarks[I].Config.Seed, B.Benchmarks[I].Config.Seed);
}

} // namespace
