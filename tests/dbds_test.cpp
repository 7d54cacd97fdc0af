//===- tests/dbds_test.cpp - Simulation, trade-off, duplication ------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "dbds/CostModel.h"
#include "dbds/DBDSPhase.h"
#include "dbds/Duplicator.h"
#include "dbds/Simulator.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "vm/Interpreter.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

/// Parses, returns (module, function) for single-function sources.
struct Parsed {
  std::unique_ptr<Module> Mod;
  Function *F;
};

Parsed parse(const char *Source) {
  ParseResult R = parseModule(Source);
  EXPECT_TRUE(R) << R.Error;
  Parsed P;
  P.F = R.Mod->functions()[0];
  P.Mod = std::move(R.Mod);
  return P;
}

unsigned countOpcode(Function &F, Opcode Op) {
  unsigned Count = 0;
  for (Block *B : F.blocks())
    for (Instruction *I : *B)
      Count += I->getOpcode() == Op ? 1 : 0;
  return Count;
}

// ---- Simulation tier ----------------------------------------------------

TEST(SimulatorTest, Figure1FindsConstantFoldOnTheConstantPredecessor) {
  Parsed P = parse(paper::Figure1);
  SimulationStats Stats;
  auto Candidates = simulateDuplications(*P.F, P.Mod.get(), &Stats);
  EXPECT_EQ(Stats.PairsSimulated, 2u);
  // Every pair saves at least the predecessor's jump; exactly one (the
  // x<=0 predecessor, where phi == 0) additionally folds 2 + phi.
  ASSERT_EQ(Candidates.size(), 2u);
  unsigned WithFold = 0;
  for (const auto &C : Candidates)
    WithFold += C.CyclesSaved > opcodeCycles(Opcode::Jump) ? 1 : 0;
  EXPECT_EQ(WithFold, 1u);
  EXPECT_GE(Stats.Opportunities.ConstantFolds, 1u);
}

TEST(SimulatorTest, Listing1FindsConditionalEliminationOnBothPredecessors) {
  Parsed P = parse(paper::Listing1);
  SimulationStats Stats;
  auto Candidates = simulateDuplications(*P.F, P.Mod.get(), &Stats);
  // Else predecessor: p == 13 -> 13 > 12 folds. True predecessor: p == i
  // with i > 0 known — not decisive, so exactly one candidate beyond the
  // universal jump saving.
  unsigned WithCE = 0;
  for (const auto &C : Candidates)
    WithCE += C.CyclesSaved > opcodeCycles(Opcode::Jump) ? 1 : 0;
  EXPECT_EQ(WithCE, 1u);
  EXPECT_GE(Stats.Opportunities.ConditionalEliminations, 1u);
}

TEST(SimulatorTest, Listing3FindsEscapeAnalysisOpportunity) {
  Parsed P = parse(paper::Listing3);
  SimulationStats Stats;
  auto Candidates = simulateDuplications(*P.F, P.Mod.get(), &Stats);
  EXPECT_GE(Stats.Opportunities.AllocationSinks, 1u);
  // load(new, 0) forwards the store.
  EXPECT_GE(Stats.Opportunities.ReadEliminations, 1u);
  // The allocation predecessor must be a candidate with the allocation's
  // cost (8) plus its store and the load in its benefit.
  bool FoundBig = false;
  for (const auto &C : Candidates)
    FoundBig |= C.CyclesSaved >= 8.0;
  EXPECT_TRUE(FoundBig);
}

TEST(SimulatorTest, Listing5FindsReadElimination) {
  Parsed P = parse(paper::Listing5);
  SimulationStats Stats;
  auto Candidates = simulateDuplications(*P.F, P.Mod.get(), &Stats);
  // Read2 becomes fully redundant on the Read1 predecessor only.
  unsigned WithRE = 0;
  for (const auto &C : Candidates)
    WithRE += C.CyclesSaved > opcodeCycles(Opcode::Jump) ? 1 : 0;
  EXPECT_EQ(WithRE, 1u);
  EXPECT_GE(Stats.Opportunities.ReadEliminations, 1u);
}

// Resolving a phi to its input rewrites `add %phi, %p` into another add:
// a synonym with a size cost, not a strength reduction.
TEST(SimulatorTest, OperandRewriteIsNotAStrengthReduction) {
  Parsed P = parse(R"(
func @f(int, int) {
b0:
  %p = param 0
  %q = param 1
  %zero = const 0
  %c = cmp gt %p, %zero
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%p, b1], [%q, b2]
  %s = add %phi, %p
  ret %s
}
)");
  SimulationStats Stats;
  auto Candidates = simulateDuplications(*P.F, P.Mod.get(), &Stats);
  EXPECT_EQ(Stats.PairsSimulated, 2u);
  EXPECT_EQ(Candidates.size(), 2u); // the removed jump still pays
  for (const auto &C : Candidates) {
    EXPECT_EQ(C.Opportunities.StrengthReductions, 0u);
    EXPECT_DOUBLE_EQ(C.CyclesSaved, opcodeCycles(Opcode::Jump));
    // The copied block keeps its rewritten add and its return.
    EXPECT_EQ(C.SizeCost, static_cast<int64_t>(opcodeSize(Opcode::Add) +
                                               opcodeSize(Opcode::Return)));
  }
  EXPECT_EQ(Stats.Opportunities.total(), 0u);
}

TEST(SimulatorTest, Figure3FindsStrengthReductionWorth31Cycles) {
  Parsed P = parse(paper::Figure3);
  SimulationStats Stats;
  auto Candidates = simulateDuplications(*P.F, P.Mod.get(), &Stats);
  EXPECT_GE(Stats.Opportunities.StrengthReductions, 1u);
  // §4.1: "the original division needs 32 cycles ... the shift only takes
  // 1 ... CS is computed as 32 - 1 = 31".
  bool Found31 = false;
  for (const auto &C : Candidates)
    Found31 |= C.CyclesSaved >= 31.0 && C.CyclesSaved <= 33.0;
  EXPECT_TRUE(Found31);
}

TEST(SimulatorTest, DoesNotMutateTheFunction) {
  Parsed P = parse(paper::Figure3);
  std::string Before = printFunction(P.F);
  simulateDuplications(*P.F, P.Mod.get());
  EXPECT_EQ(printFunction(P.F), Before);
  EXPECT_EQ(verifyFunction(*P.F), "");
}

TEST(SimulatorTest, LoopHeadersAreNotCandidates) {
  Parsed P = parse(R"(
func @f(int) {
b0:
  %p = param 0
  %zero = const 0
  jump b1
b1:
  %i = phi int [%zero, b0], [%inext, b1]
  %one = const 1
  %inext = add %i, %one
  %c = cmp lt %inext, %p
  if %c, b1, b2 !0.9
b2:
  ret %i
}
)");
  auto Candidates = simulateDuplications(*P.F, P.Mod.get());
  EXPECT_TRUE(Candidates.empty());
}

// ---- Trade-off tier -----------------------------------------------------

TEST(TradeoffTest, ImplementsThePaperFormula) {
  DBDSConfig Config; // BS = 256, IB = 1.5, MS = 65536
  // (b * p * 256) > c.
  EXPECT_TRUE(shouldDuplicate(31.0, 1.0, 20, 100, 100, Config));
  EXPECT_FALSE(shouldDuplicate(0.0, 1.0, 1, 100, 100, Config));
  // Cold block: probability scales the benefit away.
  EXPECT_FALSE(shouldDuplicate(31.0, 0.000001, 20, 100, 100, Config));
  // Unit at the VM size limit.
  EXPECT_FALSE(
      shouldDuplicate(31.0, 1.0, 20, Config.MaxUnitSize, 100, Config));
  // Budget: current + cost must stay below initial * 1.5.
  EXPECT_FALSE(shouldDuplicate(31.0, 1.0, 60, 100, 100, Config));
  EXPECT_TRUE(shouldDuplicate(31.0, 1.0, 49, 100, 100, Config));
}

TEST(TradeoffTest, BenefitScaleIsTunable) {
  DBDSConfig Config;
  Config.BenefitScale = 1.0;
  EXPECT_FALSE(shouldDuplicate(10.0, 1.0, 20, 100, 1000, Config));
  Config.BenefitScale = 256.0;
  EXPECT_TRUE(shouldDuplicate(10.0, 1.0, 20, 100, 1000, Config));
}

// ---- Duplication transformation ------------------------------------------

TEST(DuplicatorTest, Figure1DuplicationPreservesSemanticsAndVerifies) {
  Parsed P = parse(paper::Figure1);
  Interpreter Interp(*P.Mod);
  int64_t Before5 = Interp.run(*P.F, ArrayRef<int64_t>({5})).Result.Scalar;
  int64_t BeforeM3 = Interp.run(*P.F, ArrayRef<int64_t>({-3})).Result.Scalar;

  Block *Merge = nullptr;
  for (Block *B : P.F->blocks())
    if (B->isMerge())
      Merge = B;
  ASSERT_NE(Merge, nullptr);
  Block *Pred = Merge->preds()[0];
  ASSERT_TRUE(canDuplicateInto(Merge, Pred));
  duplicateIntoPredecessor(*P.F, Merge, Pred);

  EXPECT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({5})).Result.Scalar, Before5);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({-3})).Result.Scalar,
            BeforeM3);
  // The merge lost one predecessor.
  EXPECT_EQ(Merge->getNumPreds(), 1u);
}

TEST(DuplicatorTest, DuplicatingAllPredecessorsRemovesTheMergePhi) {
  Parsed P = parse(paper::Figure1);
  Block *Merge = nullptr;
  for (Block *B : P.F->blocks())
    if (B->isMerge())
      Merge = B;
  ASSERT_NE(Merge, nullptr);
  // Duplicate into both predecessors.
  while (Merge->isMerge()) {
    Block *Pred = Merge->preds()[0];
    ASSERT_TRUE(canDuplicateInto(Merge, Pred));
    duplicateIntoPredecessor(*P.F, Merge, Pred);
    ASSERT_EQ(verifyFunction(*P.F), "");
  }
  EXPECT_EQ(Merge->getNumPreds(), 1u);
}

TEST(DuplicatorTest, SSARepairInsertsPhisForDominatedUses) {
  // A value computed in the merge block is used further down, past another
  // join — duplication must reroute that use through new phis.
  Parsed P = parse(R"(
func @f(int, int) {
b0:
  %a = param 0
  %b = param 1
  %zero = const 0
  %c = cmp gt %a, %zero
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%a, b1], [%zero, b2]
  %v = add %phi, %b
  %c2 = cmp gt %v, %b
  if %c2, b4, b5 !0.5
b4:
  jump b6
b5:
  jump b6
b6:
  %r = mul %v, %v
  ret %r
}
)");
  Interpreter Interp(*P.Mod);
  auto Run = [&](int64_t A, int64_t B) {
    return Interp.run(*P.F, ArrayRef<int64_t>({A, B})).Result.Scalar;
  };
  int64_t R1 = Run(3, 4), R2 = Run(-3, 4);

  Block *Merge = P.F->getBlockById(3);
  ASSERT_NE(Merge, nullptr);
  ASSERT_TRUE(Merge->isMerge());
  duplicateIntoPredecessor(*P.F, Merge, Merge->preds()[0]);
  ASSERT_EQ(verifyFunction(*P.F), "");

  EXPECT_EQ(Run(3, 4), R1);
  EXPECT_EQ(Run(-3, 4), R2);
  // %v now has two definitions; a repair phi must exist in b6 or b3's
  // replacement region (at least one extra phi somewhere).
  EXPECT_GE(countOpcode(*P.F, Opcode::Phi), 2u);
}

// ---- Full three-tier runs -------------------------------------------------

TEST(DBDSPhaseTest, Figure1BecomesFigure1c) {
  Parsed P = parse(paper::Figure1);
  Interpreter Interp(*P.Mod);
  uint64_t CyclesBefore =
      Interp.run(*P.F, ArrayRef<int64_t>({-3})).DynamicCycles;

  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  DBDSResult R = runDBDS(*P.F, Config);
  EXPECT_EQ(verifyFunction(*P.F), "");
  EXPECT_GE(R.DuplicationsPerformed, 1u);

  // Semantics preserved.
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({5})).Result.Scalar, 7);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({-3})).Result.Scalar, 2);
  // The x<=0 path is now cheaper (the add folded away, Figure 1c).
  EXPECT_LT(Interp.run(*P.F, ArrayRef<int64_t>({-3})).DynamicCycles,
            CyclesBefore);
}

TEST(DBDSPhaseTest, Listing1BecomesListing2) {
  Parsed P = parse(paper::Listing1);
  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  runDBDS(*P.F, Config);
  EXPECT_EQ(verifyFunction(*P.F), "");

  Interpreter Interp(*P.Mod);
  auto foo = [&](int64_t I) {
    return Interp.run(*P.F, ArrayRef<int64_t>({I})).Result.Scalar;
  };
  EXPECT_EQ(foo(20), 12);
  EXPECT_EQ(foo(5), 5);
  EXPECT_EQ(foo(-7), 12);
  // Listing 2: the else path no longer evaluates p > 12 — at most one
  // comparison remains (the duplicated one in the then path).
  EXPECT_LE(countOpcode(*P.F, Opcode::Cmp), 2u);
}

TEST(DBDSPhaseTest, Listing3BecomesListing4_AllocationDisappears) {
  Parsed P = parse(paper::Listing3);
  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  runDBDS(*P.F, Config);
  EXPECT_EQ(verifyFunction(*P.F), "");

  // Listing 4: no allocation remains on the null path.
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 0u);

  Interpreter Interp(*P.Mod);
  RuntimeValue Args[2] = {RuntimeValue::null(), RuntimeValue::ofInt(42)};
  EXPECT_EQ(
      Interp.run(*P.F, ArrayRef<RuntimeValue>(Args, 2)).Result.Scalar, 42);
  Interp.reset();
  RuntimeValue Obj = Interp.allocate(0);
  Interp.writeField(Obj, 0, 99);
  RuntimeValue Args2[2] = {Obj, RuntimeValue::ofInt(1)};
  EXPECT_EQ(
      Interp.run(*P.F, ArrayRef<RuntimeValue>(Args2, 2)).Result.Scalar, 99);
}

TEST(DBDSPhaseTest, Listing5BecomesListing6_ReadBecomesRedundant) {
  Parsed P = parse(paper::Listing5);
  unsigned LoadsBefore = countOpcode(*P.F, Opcode::LoadField);
  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  runDBDS(*P.F, Config);
  EXPECT_EQ(verifyFunction(*P.F), "");
  // Listing 6: the true path reuses Read1's value — total loads do not
  // grow, and the hot path executes one load instead of two.
  EXPECT_LE(countOpcode(*P.F, Opcode::LoadField), LoadsBefore);

  Interpreter Interp(*P.Mod);
  RuntimeValue Obj = Interp.allocate(0);
  Interp.writeField(Obj, 0, 7);
  RuntimeValue Args[2] = {Obj, RuntimeValue::ofInt(5)};
  ExecutionResult E = Interp.run(*P.F, ArrayRef<RuntimeValue>(Args, 2));
  ASSERT_TRUE(E.Ok);
  EXPECT_EQ(E.Result.Scalar, 7);
  EXPECT_EQ(Interp.readField(Obj, 1), 7); // the store happened
}

TEST(DBDSPhaseTest, Figure3DivisionBecomesShift) {
  Parsed P = parse(paper::Figure3);
  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  runDBDS(*P.F, Config);
  EXPECT_EQ(verifyFunction(*P.F), "");
  // Figure 3e: the constant-divisor path uses a right shift.
  EXPECT_GE(countOpcode(*P.F, Opcode::Shr), 1u);

  Interpreter Interp(*P.Mod);
  auto f = [&](int64_t A, int64_t B, int64_t X) {
    return Interp.run(*P.F, ArrayRef<int64_t>({A, B, X})).Result.Scalar;
  };
  EXPECT_EQ(f(1, 2, 100), 100 / 2);        // a <= b: divide by 2
  EXPECT_EQ(f(5, 2, 100), 100 / (100 + 1)); // a > b: divide by x+1
}

TEST(DBDSPhaseTest, DupalotIgnoresTheTradeoff) {
  // A merge whose benefit is tiny and cold: DBDS declines, dupalot takes.
  Parsed P = parse(R"(
func @f(int) {
b0:
  %p = param 0
  %zero = const 0
  %c = cmp gt %p, %zero
  if %c, b1, b2 !0.999
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%p, b1], [%zero, b2]
  %one = const 1
  %r = add %phi, %one
  %r2 = mul %r, %r
  %r3 = xor %r2, %p
  %r4 = add %r3, %r2
  %r5 = mul %r4, %r3
  %r6 = add %r5, %r4
  %r7 = mul %r6, %r5
  %r8 = add %r7, %r6
  ret %r8
}
)");
  DBDSConfig Tight;
  Tight.ClassTable = P.Mod.get();
  Tight.BenefitScale = 0.05; // force the trade-off to reject
  DBDSResult R1 = runDBDS(*P.F, Tight);
  EXPECT_EQ(R1.DuplicationsPerformed, 0u);

  Parsed P2 = parse(R"(
func @f(int) {
b0:
  %p = param 0
  %zero = const 0
  %c = cmp gt %p, %zero
  if %c, b1, b2 !0.999
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%p, b1], [%zero, b2]
  %one = const 1
  %r = add %phi, %one
  %r2 = mul %r, %r
  %r3 = xor %r2, %p
  %r4 = add %r3, %r2
  %r5 = mul %r4, %r3
  %r6 = add %r5, %r4
  %r7 = mul %r6, %r5
  %r8 = add %r7, %r6
  ret %r8
}
)");
  DBDSConfig Dupalot;
  Dupalot.ClassTable = P2.Mod.get();
  Dupalot.UseTradeoff = false;
  Dupalot.BenefitScale = 0.05;
  DBDSResult R2 = runDBDS(*P2.F, Dupalot);
  EXPECT_GE(R2.DuplicationsPerformed, 1u);
}

TEST(DBDSPhaseTest, RespectsTheCodeSizeBudget) {
  Parsed P = parse(paper::Figure1);
  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  Config.IncreaseBudget = 1.0; // no growth allowed at all
  DBDSResult R = runDBDS(*P.F, Config);
  EXPECT_EQ(R.DuplicationsPerformed, 0u);
}

TEST(DBDSPhaseTest, IterationCountIsBounded) {
  Parsed P = parse(paper::Listing1);
  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  Config.MaxIterations = 3;
  DBDSResult R = runDBDS(*P.F, Config);
  EXPECT_LE(R.IterationsRun, 3u);
  EXPECT_GE(R.IterationsRun, 1u);
}

// ---- Backtracking baseline -------------------------------------------------

TEST(BacktrackingTest, OptimizesFigure1ButCopiesTheGraph) {
  ParseResult R = parseModule(paper::Figure1);
  ASSERT_TRUE(R) << R.Error;
  std::unique_ptr<Module> Mod = std::move(R.Mod);
  std::unique_ptr<Function> F = Mod->functions()[0]->clone();

  double Before = expectedCycles(*F);
  BacktrackingResult BR = runBacktrackingDuplication(F, Mod.get());
  EXPECT_EQ(verifyFunction(*F), "");
  EXPECT_GE(BR.GraphCopies, 1u); // the cost §3.1 complains about
  EXPECT_LE(expectedCycles(*F), Before);

  Interpreter Interp(*Mod);
  EXPECT_EQ(Interp.run(*F, ArrayRef<int64_t>({5})).Result.Scalar, 7);
  EXPECT_EQ(Interp.run(*F, ArrayRef<int64_t>({-3})).Result.Scalar, 2);
}

TEST(CostModelTest, Figure4StyleAccounting) {
  // Figure 4: duplicating a merge with a 90/10 split turns
  // 0.1*(10+2+2) + 0.9*(10+2+2) = 14 into 0.1*14 + 0.9*12 = 12.2 when the
  // hot path's 2-cycle op folds away. Reproduce the arithmetic with the
  // cost model utilities on a hand-built pair of functions.
  Parsed NotDup = parse(R"(
func @f(int) {
b0:
  %p = param 0
  %zero = const 0
  %c = cmp gt %p, %zero
  if %c, b1, b2 !0.9
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%p, b1], [%zero, b2]
  %three = const 3
  %m = mul %phi, %three
  ret %m
}
)");
  double Cycles = expectedCycles(*NotDup.F);
  DBDSConfig Config;
  Config.ClassTable = NotDup.Mod.get();
  runDBDS(*NotDup.F, Config);
  // The cold path's multiply folded to a constant: expected cycles drop.
  EXPECT_LT(expectedCycles(*NotDup.F), Cycles);
}

} // namespace
