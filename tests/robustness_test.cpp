//===- tests/robustness_test.cpp - Fault tolerance and reduction -----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the failure-handling machinery: transactional phase execution
// (snapshot, rollback, quarantine), compile budgets with stepwise
// degradation, deterministic fault injection, the delta-debugging reducer,
// and the zero-baseline guards in the benchmark metrics.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "dbds/DBDSPhase.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Phase.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/ErrorHandling.h"
#include "support/FaultInjector.h"
#include "tooling/Reducer.h"
#include "tooling/Sabotage.h"
#include "vm/Interpreter.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

/// f(a, b): a diamond over a comparison with a foldable constant add on
/// one arm, then a short chain of follow-up arithmetic.
std::unique_ptr<Function> makeDiamond() {
  auto F = std::make_unique<Function>("f", 2);
  IRBuilder B(*F);
  Block *Entry = B.createBlock();
  Block *Then = B.createBlock();
  Block *Else = B.createBlock();
  Block *Merge = B.createBlock();

  B.setBlock(Entry);
  auto *A = B.param(0);
  auto *Bp = B.param(1);
  auto *C = B.cmp(Predicate::LT, A, Bp);
  B.branch(C, Then, Else, 0.5);

  B.setBlock(Then);
  auto *T = B.add(A, B.constInt(1));
  B.jump(Merge);

  B.setBlock(Else);
  auto *E = B.mul(Bp, B.constInt(2));
  B.jump(Merge);

  B.setBlock(Merge);
  auto *Phi = B.phi(Type::Int);
  Phi->appendInput(T);
  Phi->appendInput(E);
  auto *X = B.add(Phi, B.constInt(3));
  // Constant-foldable on purpose: guarantees the cleanup pipeline changes
  // something in its first round (the budget tests rely on round 0 making
  // progress so the round-1 budget gate is actually evaluated).
  auto *Folded = B.add(B.constInt(2), B.constInt(3));
  auto *Y = B.add(X, Folded);
  B.ret(Y);
  EXPECT_EQ(verifyFunction(*F), "");
  return F;
}

/// A phase that always corrupts the IR: it strips the entry terminator.
class TerminatorStripper : public Phase {
public:
  const char *name() const override { return "terminator-stripper"; }
  bool run(Function &F) override {
    if (Instruction *T = F.getEntry()->getTerminator()) {
      F.getEntry()->remove(T);
      return true;
    }
    return false;
  }
};

int64_t runOn(Function &F, int64_t A, int64_t B) {
  Module M;
  Interpreter Interp(M);
  std::vector<int64_t> Args{A, B};
  ExecutionResult R = Interp.run(F, ArrayRef<int64_t>(Args));
  EXPECT_TRUE(R.Ok);
  return R.Result.Scalar;
}

} // namespace

//===----------------------------------------------------------------------===//
// Function::restoreFrom
//===----------------------------------------------------------------------===//

TEST(RestoreFromTest, RestoresSnapshotSemantics) {
  std::unique_ptr<Function> F = makeDiamond();
  int64_t Before = runOn(*F, 3, 10);

  std::unique_ptr<Function> Snapshot = F->clone();
  SabotagePhase Saboteur;
  ASSERT_TRUE(Saboteur.run(*F));
  ASSERT_NE(runOn(*F, 3, 10), Before) << "sabotage must be observable";

  F->restoreFrom(*Snapshot);
  EXPECT_EQ(verifyFunction(*F), "");
  EXPECT_EQ(runOn(*F, 3, 10), Before);
  EXPECT_EQ(runOn(*F, 10, 3), runOn(*Snapshot, 10, 3));
}

TEST(RestoreFromTest, RestoresFromCorruptedState) {
  std::unique_ptr<Function> F = makeDiamond();
  std::unique_ptr<Function> Snapshot = F->clone();
  // Corrupt hard enough that the verifier rejects the function outright.
  ASSERT_TRUE(corruptFunctionIR(*F, /*Entropy=*/0));
  ASSERT_NE(verifyFunction(*F), "");
  F->restoreFrom(*Snapshot);
  EXPECT_EQ(verifyFunction(*F), "");
  EXPECT_EQ(runOn(*F, 5, 6), runOn(*Snapshot, 5, 6));
}

//===----------------------------------------------------------------------===//
// Transactional PhaseManager
//===----------------------------------------------------------------------===//

TEST(TransactionalPhaseTest, RollbackAndQuarantine) {
  std::unique_ptr<Function> F = makeDiamond();
  int64_t Before = runOn(*F, 3, 10);

  DiagnosticEngine Diags;
  PhaseManager PM(/*VerifyAfterEachPhase=*/true);
  PM.setDiagnostics(&Diags);
  PM.add(std::make_unique<TerminatorStripper>());

  PM.run(*F);
  EXPECT_EQ(PM.rollbackCount(), 1u);
  EXPECT_TRUE(PM.isQuarantined("f", 0));
  EXPECT_EQ(verifyFunction(*F), "");
  EXPECT_EQ(runOn(*F, 3, 10), Before);
  EXPECT_EQ(Diags.count(DiagKind::Warning), 1u);

  // Quarantined: the phase must be skipped on the next run.
  PM.run(*F);
  EXPECT_EQ(PM.rollbackCount(), 1u);
  EXPECT_EQ(verifyFunction(*F), "");

  // A different function is unaffected by f's quarantine list.
  EXPECT_FALSE(PM.isQuarantined("g", 0));
}

TEST(TransactionalPhaseTest, FailFastStillAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::unique_ptr<Function> F = makeDiamond();
  PhaseManager PM(/*VerifyAfterEachPhase=*/true);
  PM.setFailFast(true);
  PM.add(std::make_unique<TerminatorStripper>());
  EXPECT_DEATH(PM.run(*F), "verifier failed");
}

//===----------------------------------------------------------------------===//
// Compile budgets
//===----------------------------------------------------------------------===//

TEST(BudgetTest, DefaultIsUnlimited) {
  CompileBudget B;
  B.arm();
  EXPECT_FALSE(B.limited());
  EXPECT_FALSE(B.expired());
  EXPECT_EQ(B.level(), DegradationLevel::None);
}

TEST(BudgetTest, LevelsOnlyRatchetUp) {
  CompileBudget B(1.0);
  B.degradeTo(DegradationLevel::NoFixpoint);
  B.degradeTo(DegradationLevel::NoDBDS); // lower level: no effect
  EXPECT_EQ(B.level(), DegradationLevel::NoFixpoint);
}

TEST(BudgetTest, PipelineDegradesToNoFixpoint) {
  std::unique_ptr<Function> F = makeDiamond();
  CompileBudget B(1e-6); // expires immediately once armed
  B.arm();
  while (!B.expired()) {
  }
  DiagnosticEngine Diags;
  PhaseManager PM = PhaseManager::standardPipeline(/*Verify=*/true);
  PM.setBudget(&B);
  PM.setDiagnostics(&Diags);
  PM.run(*F);
  // Round 0 (the baseline floor) ran; fixpoint re-iteration was shed.
  EXPECT_EQ(B.level(), DegradationLevel::NoFixpoint);
  EXPECT_EQ(verifyFunction(*F), "");
  EXPECT_GE(Diags.count(DiagKind::Note), 1u);
}

TEST(BudgetTest, DBDSDegradesToNoDBDS) {
  std::unique_ptr<Function> F = makeDiamond();
  CompileBudget B(1e-6);
  B.arm();
  while (!B.expired()) {
  }
  DBDSConfig Config;
  Config.Budget = &B;
  DBDSResult R = runDBDS(*F, Config);
  EXPECT_TRUE(R.BudgetExpired);
  EXPECT_EQ(R.IterationsRun, 0u);
  EXPECT_EQ(R.DuplicationsPerformed, 0u);
  EXPECT_EQ(B.level(), DegradationLevel::NoDBDS);
  EXPECT_EQ(verifyFunction(*F), "");
}

TEST(BudgetTest, RunnerSurfacesDegradation) {
  GeneratorConfig Config;
  Config.Seed = 5;
  Config.NumFunctions = 2;
  BenchmarkSpec Spec{"budgeted", Config};
  RunnerOptions Opts;
  Opts.CompileBudgetMs = 1e-6; // every function overruns immediately
  BenchmarkMeasurement M = measureBenchmark(Spec, Opts);
  EXPECT_TRUE(M.ResultsAgree);
  EXPECT_EQ(M.DBDS.FunctionsDegraded, 2u);
  EXPECT_NE(M.DBDS.MaxDegradation, DegradationLevel::None);
  // The degraded pipeline still compiles and measures every function.
  EXPECT_GT(M.DBDS.DynamicCycles, 0u);
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, DeterministicInSeed) {
  FaultInjector A(123), B(123);
  for (int I = 0; I != 200; ++I)
    EXPECT_EQ(A.at("site"), B.at("site"));
  EXPECT_EQ(A.faultsInjected(), B.faultsInjected());
  EXPECT_GT(A.faultsInjected(), 0u);
  EXPECT_EQ(A.sitesVisited(), 200u);
}

// The tentpole acceptance test: with fault injection enabled at a fixed
// seed, the whole pipeline (cleanup + DBDS) completes every function of a
// generated workload without abort(), every injected fault is rolled back
// to verifier-clean IR, and the optimized code still computes the same
// results as the unoptimized reference.
TEST(FaultInjectorTest, PipelineSurvivesInjectedFaults) {
  GeneratorConfig GC;
  GC.Seed = 17;
  GC.NumFunctions = 3;
  GeneratedWorkload Ref = generateWorkload(GC);
  GeneratedWorkload Opt = generateWorkload(GC);

  DiagnosticEngine Diags;
  FaultInjector Injector(/*Seed=*/99, /*Rate=*/0.5);
  unsigned Rollbacks = 0;

  auto OptFns = Opt.Mod->functions();
  for (unsigned FIdx = 0; FIdx != OptFns.size(); ++FIdx) {
    Function &F = *OptFns[FIdx];
    PhaseManager PM =
        PhaseManager::standardPipeline(/*Verify=*/true, Opt.Mod.get());
    PM.setDiagnostics(&Diags);
    PM.setFaultInjector(&Injector);
    PM.run(F);
    Rollbacks += PM.rollbackCount();

    DBDSConfig DC;
    DC.ClassTable = Opt.Mod.get();
    DC.Diags = &Diags;
    DC.Injector = &Injector;
    DBDSResult R = runDBDS(F, DC);
    Rollbacks += R.RollbacksPerformed;

    EXPECT_EQ(verifyFunction(F), "") << "@" << F.getName();
  }
  EXPECT_GT(Injector.faultsInjected(), 0u);
  EXPECT_GT(Rollbacks, 0u);

  // Rolled-back faults must leave no semantic trace.
  Interpreter RefInterp(*Ref.Mod), OptInterp(*Opt.Mod);
  auto RefFns = Ref.Mod->functions();
  for (unsigned FIdx = 0; FIdx != OptFns.size(); ++FIdx) {
    for (const auto &Args : Ref.EvalInputs[FIdx]) {
      RefInterp.reset();
      OptInterp.reset();
      ExecutionResult RA =
          RefInterp.run(*RefFns[FIdx], ArrayRef<int64_t>(Args));
      ExecutionResult RB =
          OptInterp.run(*OptFns[FIdx], ArrayRef<int64_t>(Args));
      ASSERT_TRUE(RA.Ok);
      ASSERT_TRUE(RB.Ok);
      if (RA.HasResult && !RA.Result.IsObject) {
        EXPECT_EQ(RA.Result.Scalar, RB.Result.Scalar);
      }
    }
  }
}

TEST(FaultInjectorTest, DBDSRoundRollsBackInjectedCorruption) {
  std::unique_ptr<Function> F = makeDiamond();
  int64_t Before = runOn(*F, 3, 10);
  DiagnosticEngine Diags;
  FaultInjector Injector(/*Seed=*/1, /*Rate=*/1.0); // first fault: CorruptIR
  DBDSConfig Config;
  Config.Diags = &Diags;
  Config.Injector = &Injector;
  DBDSResult R = runDBDS(*F, Config);
  EXPECT_EQ(verifyFunction(*F), "");
  EXPECT_EQ(runOn(*F, 3, 10), Before);
  if (R.RollbacksPerformed != 0) {
    EXPECT_GE(Diags.count(DiagKind::Warning), 1u);
  }
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

TEST(ReducerTest, ShrinksSeededDivergenceBelowQuarter) {
  GeneratorConfig GC;
  GC.Seed = 7;
  GC.NumFunctions = 1;
  GC.SegmentsPerFunction = 4;
  GeneratedWorkload W = generateWorkload(GC);
  const auto &Eval = W.EvalInputs[0];
  const std::string Focus = W.Mod->functions()[0]->getName();

  // Oracle: does a sabotaged (add -> sub) copy still diverge from the
  // candidate on any evaluation input?
  ReductionOracle Oracle = [&Eval](Module &M, Function &F) {
    ParseResult Copy = parseModule(printModule(&M));
    if (!Copy)
      return false;
    Function *CF = Copy.Mod->getFunction(F.getName());
    if (!CF)
      return false;
    SabotagePhase Saboteur;
    Saboteur.run(*CF);
    Interpreter RefInterp(M), OptInterp(*Copy.Mod);
    for (const auto &Args : Eval) {
      RefInterp.reset();
      OptInterp.reset();
      ExecutionResult RA = RefInterp.run(F, ArrayRef<int64_t>(Args));
      if (!RA.Ok)
        return false; // never reduce toward a non-terminating reference
      ExecutionResult RB = OptInterp.run(*CF, ArrayRef<int64_t>(Args));
      if (!RB.Ok)
        return true;
      if (RA.HasResult && RB.HasResult && !RA.Result.IsObject &&
          !RB.Result.IsObject && RA.Result.Scalar != RB.Result.Scalar)
        return true;
    }
    return false;
  };

  ReductionResult R = reduceFunction(*W.Mod, Focus, Oracle);
  ASSERT_TRUE(R.Reproduced) << "seeded divergence must reproduce";
  EXPECT_TRUE(R.Reduced);
  EXPECT_GT(R.OriginalInstructions, 0u);
  // Acceptance bar: minimal reproducer at most 25% of the original.
  EXPECT_LE(R.ReducedInstructions * 4, R.OriginalInstructions);
  // The reduced module is a well-formed, round-trippable artifact whose
  // divergence still reproduces.
  Function *RF = R.Mod->getFunction(Focus);
  ASSERT_NE(RF, nullptr);
  EXPECT_EQ(verifyFunction(*RF), "");
  EXPECT_TRUE(Oracle(*R.Mod, *RF));
}

TEST(ReducerTest, NonReproducingInputIsReturnedUntouched) {
  std::unique_ptr<Function> F = makeDiamond();
  Module M;
  unsigned Original = F->instructionCount();
  M.addFunction(std::move(F));
  ReductionResult R = reduceFunction(
      M, "f", [](Module &, Function &) { return false; });
  EXPECT_FALSE(R.Reproduced);
  EXPECT_FALSE(R.Reduced);
  EXPECT_EQ(R.OracleQueries, 1u);
  EXPECT_EQ(R.ReducedInstructions, Original);
}

//===----------------------------------------------------------------------===//
// Satellites: metric guards, dbds_unreachable, diagnostics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, ZeroBaselinePercentagesAreFinite) {
  BenchmarkMeasurement M;
  // All-zero measurements: every ratio would divide by zero.
  EXPECT_EQ(M.peakImprovementPercent(M.DBDS), 0.0);
  EXPECT_EQ(M.compileTimeIncreasePercent(M.DBDS), 0.0);
  EXPECT_EQ(M.codeSizeIncreasePercent(M.DBDS), 0.0);
  // Zero baseline with nonzero config measurements.
  M.DBDS.DynamicCycles = 100;
  M.DBDS.CompileTimeMs = 5.0;
  M.DBDS.CodeSize = 64;
  EXPECT_EQ(M.peakImprovementPercent(M.DBDS), 0.0);
  EXPECT_EQ(M.compileTimeIncreasePercent(M.DBDS), 0.0);
  EXPECT_EQ(M.codeSizeIncreasePercent(M.DBDS), 0.0);
  // Sane baseline: ratios come back.
  M.Baseline.DynamicCycles = 200;
  M.Baseline.CompileTimeMs = 5.0;
  M.Baseline.CodeSize = 32;
  EXPECT_DOUBLE_EQ(M.peakImprovementPercent(M.DBDS), 100.0);
  EXPECT_DOUBLE_EQ(M.compileTimeIncreasePercent(M.DBDS), 0.0);
  EXPECT_DOUBLE_EQ(M.codeSizeIncreasePercent(M.DBDS), 100.0);
}

TEST(UnreachableTest, AbortsInAllBuildTypes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(dbds_unreachable("robustness-test message"),
               "executed unreachable code: robustness-test message");
}

TEST(DiagnosticsTest, RendersStructuredRecords) {
  DiagnosticEngine Diags;
  Diags.note("tier", "f", "message one");
  Diags.warning("phase", "g", "message two");
  Diags.error("runner", "", "message three");
  EXPECT_EQ(Diags.all().size(), 3u);
  EXPECT_EQ(Diags.count(DiagKind::Note), 1u);
  EXPECT_EQ(Diags.count(DiagKind::Warning), 1u);
  EXPECT_EQ(Diags.count(DiagKind::Error), 1u);
  std::string Rendered = Diags.render();
  EXPECT_NE(Rendered.find("warning [phase] @g: message two"),
            std::string::npos);
  Diags.clear();
  EXPECT_TRUE(Diags.empty());
}

//===----------------------------------------------------------------------===//
// Budget edges and the fault-injector stream
//===----------------------------------------------------------------------===//

TEST(BudgetTest, ZeroAndNegativeLimitsAreUnlimited) {
  // The service passes RunnerOptions::CompileBudgetMs straight through;
  // "no budget" must be expressible as 0 (the default) or any negative
  // value without a special case at the call site.
  for (double Limit : {0.0, -1.0, -1e9}) {
    CompileBudget B(Limit);
    B.arm();
    EXPECT_FALSE(B.limited()) << "limit " << Limit;
    EXPECT_FALSE(B.expired()) << "limit " << Limit;
  }
}

TEST(BudgetTest, RearmResetsLevel) {
  // A re-armed budget starts over; a level reached under the previous
  // arming must not leak into the next one.
  CompileBudget B(1e-6);
  B.arm();
  B.degradeTo(DegradationLevel::NoFixpoint);
  EXPECT_EQ(B.level(), DegradationLevel::NoFixpoint);
  B.arm();
  EXPECT_EQ(B.level(), DegradationLevel::None);
}

TEST(FaultInjectorTest, LegacyMaskReproducesHistoricalAlternation) {
  // Fired faults keep the historical stream bit-identical: fault #1 is
  // CorruptIR, #2 PhaseFailure, alternating.
  FaultInjector Inj(5, 1.0);
  EXPECT_EQ(Inj.at("s"), FaultKind::CorruptIR);
  EXPECT_EQ(Inj.at("s"), FaultKind::PhaseFailure);
  EXPECT_EQ(Inj.at("s"), FaultKind::CorruptIR);
}

TEST(FaultInjectorTest, StreamsArePinned) {
  // Golden values of the derived task seeds and of the first 64 decisions
  // at rate 0.25: the fuzzdiff_inject and fault-wall streams depend on
  // these staying bit-identical across refactors of the injector.
  const FaultInjector Base(0xDB05, 0.25);
  const uint64_t TaskSeeds[] = {0xfb32183a381d57baULL, 0x8d05a7b4759c3b8aULL,
                                0x39d1d483e518582bULL, 0x04e0f25fc72578c7ULL};
  for (unsigned I = 0; I != 4; ++I)
    EXPECT_EQ(Base.forTask(I).seed(), TaskSeeds[I]) << "task " << I;

  // One digit per decision: 0 = none, 1 = corrupt-ir, 2 = phase-failure.
  auto Decisions = [](FaultInjector Inj) {
    std::string S;
    for (unsigned I = 0; I != 64; ++I)
      S += static_cast<char>('0' + static_cast<int>(Inj.at("s")));
    return S;
  };
  EXPECT_EQ(Decisions(FaultInjector(0xDB05, 0.25)),
            "0120010000000000000200012100000020012000001020100000201020102001");
  EXPECT_EQ(Decisions(Base.forTask(2)),
            "1020000000100000210002120001000000000020010201000201200000100002");
}
