//===- tests/ir_test.cpp - IR construction, printing, parsing --------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Semantics.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

TEST(InstructionTest, OpcodeTableMatchesPaperCosts) {
  // §4.1: division 32 cycles, shift 1 cycle -> CS = 31.
  EXPECT_EQ(opcodeCycles(Opcode::Div), 32u);
  EXPECT_EQ(opcodeCycles(Opcode::Shr), 1u);
  // Listing 7: AbstractNewObjectNode is CYCLES_8 / SIZE_8.
  EXPECT_EQ(opcodeCycles(Opcode::New), 8u);
  EXPECT_EQ(opcodeSize(Opcode::New), 8u);
  // Phis cost nothing in the static model.
  EXPECT_EQ(opcodeCycles(Opcode::Phi), 0u);
}

TEST(InstructionTest, PredicateHelpers) {
  EXPECT_EQ(negatePredicate(Predicate::LT), Predicate::GE);
  EXPECT_EQ(negatePredicate(Predicate::EQ), Predicate::NE);
  EXPECT_EQ(swapPredicate(Predicate::LT), Predicate::GT);
  EXPECT_EQ(swapPredicate(Predicate::EQ), Predicate::EQ);
  for (Predicate P : {Predicate::EQ, Predicate::NE, Predicate::LT,
                      Predicate::LE, Predicate::GT, Predicate::GE}) {
    EXPECT_EQ(negatePredicate(negatePredicate(P)), P);
    EXPECT_EQ(swapPredicate(swapPredicate(P)), P);
  }
}

TEST(InstructionTest, UseListsTrackOperands) {
  Function F("t", 2);
  Block *B = F.createBlock();
  IRBuilder Builder(F);
  Builder.setBlock(B);
  auto *P0 = Builder.param(0);
  auto *P1 = Builder.param(1);
  auto *Sum = Builder.add(P0, P1);
  EXPECT_EQ(P0->users().size(), 1u);
  EXPECT_EQ(P0->users()[0], Sum);
  Sum->setOperand(0, P1);
  EXPECT_EQ(P0->users().size(), 0u);
  EXPECT_EQ(P1->users().size(), 2u);
}

TEST(InstructionTest, ReplaceAllUsesWithHandlesMultiplicity) {
  Function F("t", 1);
  Block *B = F.createBlock();
  IRBuilder Builder(F);
  Builder.setBlock(B);
  auto *P0 = Builder.param(0);
  auto *Doubled = Builder.add(P0, P0); // uses P0 twice
  auto *C = Builder.constInt(7);
  P0->replaceAllUsesWith(C);
  EXPECT_EQ(Doubled->getOperand(0), C);
  EXPECT_EQ(Doubled->getOperand(1), C);
  EXPECT_FALSE(P0->hasUsers());
}

TEST(InstructionTest, ConstantsAreUniqued) {
  Function F("t", 0);
  F.createBlock();
  EXPECT_EQ(F.constant(42), F.constant(42));
  EXPECT_NE(F.constant(42), F.constant(43));
  EXPECT_EQ(F.nullConstant(), F.nullConstant());
}

TEST(InstructionTest, IsPureClassification) {
  Function F("t", 1);
  Block *B = F.createBlock();
  IRBuilder Builder(F);
  Builder.setBlock(B);
  auto *P = Builder.param(0);
  EXPECT_TRUE(Builder.add(P, P)->isPure());
  EXPECT_TRUE(Builder.div(P, P)->isPure()); // x/0 == 0: no trap state
  EXPECT_FALSE(Builder.call(0, {P})->isPure());
  auto *Obj = Builder.newObject(0);
  EXPECT_FALSE(Builder.store(Obj, 0, P)->isPure());
  EXPECT_TRUE(Obj->isPure());
}

TEST(SemanticsTest, DivisionByZeroIsZero) {
  EXPECT_EQ(evalBinary(Opcode::Div, 100, 0), 0);
  EXPECT_EQ(evalBinary(Opcode::Rem, 100, 0), 0);
  EXPECT_EQ(evalBinary(Opcode::Div, INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(evalBinary(Opcode::Rem, INT64_MIN, -1), 0);
}

TEST(SemanticsTest, WrappingArithmetic) {
  EXPECT_EQ(evalBinary(Opcode::Add, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(evalBinary(Opcode::Mul, INT64_MAX, 2), -2);
  EXPECT_EQ(evalUnary(Opcode::Neg, INT64_MIN), INT64_MIN);
}

TEST(SemanticsTest, ShiftsMaskTheirAmount) {
  EXPECT_EQ(evalBinary(Opcode::Shl, 1, 64), 1);
  EXPECT_EQ(evalBinary(Opcode::Shr, -8, 1), -4); // arithmetic
}

TEST(SemanticsTest, OpaqueCallIsDeterministic) {
  int64_t Args[2] = {1, 2};
  EXPECT_EQ(evalOpaqueCall(3, Args, 2), evalOpaqueCall(3, Args, 2));
  int64_t Args2[2] = {2, 1};
  EXPECT_NE(evalOpaqueCall(3, Args, 2), evalOpaqueCall(3, Args2, 2));
}

TEST(BlockTest, PhiPredAlignmentMaintainedByRemovePred) {
  ParseResult R = parseModule(paper::Figure1);
  ASSERT_TRUE(R) << R.Error;
  Function *F = R.Mod->functions()[0];
  Block *Merge = nullptr;
  for (Block *B : F->blocks())
    if (B->isMerge())
      Merge = B;
  ASSERT_NE(Merge, nullptr);
  auto Phis = Merge->phis();
  ASSERT_EQ(Phis.size(), 1u);
  ASSERT_EQ(Phis[0]->getNumInputs(), 2u);
  Instruction *SecondInput = Phis[0]->getInput(1);
  Merge->removePred(0);
  EXPECT_EQ(Phis[0]->getNumInputs(), 1u);
  EXPECT_EQ(Phis[0]->getInput(0), SecondInput);
}

TEST(FunctionTest, CloneProducesEqualPrintout) {
  for (const char *Source : {paper::Figure1, paper::Listing1, paper::Listing3,
                             paper::Listing5, paper::Figure3}) {
    ParseResult R = parseModule(Source);
    ASSERT_TRUE(R) << R.Error;
    Function *F = R.Mod->functions()[0];
    std::unique_ptr<Function> Clone = F->clone();
    EXPECT_EQ(verifyFunction(*Clone), "");
    // Ids restart per function, so a fresh parse of the original prints
    // identically to the clone.
    EXPECT_EQ(printFunction(F), printFunction(Clone.get()));
  }
}

TEST(ParserTest, RoundTripsAllPaperExamples) {
  for (const char *Source : {paper::Figure1, paper::Listing1, paper::Listing3,
                             paper::Listing5, paper::Figure3}) {
    ParseResult First = parseModule(Source);
    ASSERT_TRUE(First) << First.Error;
    ASSERT_EQ(verifyFunction(*First.Mod->functions()[0]), "");
    std::string Printed = printModule(First.Mod.get());
    ParseResult Second = parseModule(Printed);
    ASSERT_TRUE(Second) << Second.Error << "\nsource was:\n" << Printed;
    EXPECT_EQ(Printed, printModule(Second.Mod.get()));
  }
}

TEST(ParserTest, ReportsUsefulErrors) {
  EXPECT_NE(parseModule("func @f() {\nb0:\n  ret\n").Error, ""); // missing }
  EXPECT_NE(parseModule("func @f() {\nb0:\n  %x = bogus\n}\n").Error, "");
  EXPECT_NE(parseModule("func @f() {\nb0:\n  ret %nope\n}\n").Error, "");
  EXPECT_NE(parseModule("func @f() {\nb0:\n  jump b9\n}\n").Error, "");
  // Phi input count mismatch.
  ParseResult R = parseModule(R"(
func @f(int) {
b0:
  %p = param 0
  jump b1
b1:
  %x = phi int [%p, b0], [%p, b0]
  ret %x
}
)");
  EXPECT_FALSE(R);
}

TEST(ParserTest, ParsesProbabilities) {
  ParseResult R = parseModule(R"(
func @f(int) {
b0:
  %p = param 0
  %z = const 0
  %c = cmp gt %p, %z
  if %c, b1, b2 !0.9
b1:
  ret %p
b2:
  ret %z
}
)");
  ASSERT_TRUE(R) << R.Error;
  auto *If =
      cast<IfInst>(R.Mod->functions()[0]->getEntry()->getTerminator());
  EXPECT_DOUBLE_EQ(If->getTrueProbability(), 0.9);
}

TEST(VerifierTest, AcceptsAllPaperExamples) {
  for (const char *Source : {paper::Figure1, paper::Listing1, paper::Listing3,
                             paper::Listing5, paper::Figure3}) {
    ParseResult R = parseModule(Source);
    ASSERT_TRUE(R) << R.Error;
    for (Function *F : R.Mod->functions())
      EXPECT_EQ(verifyFunction(*F), "");
  }
}

TEST(VerifierTest, DetectsBrokenPhi) {
  ParseResult R = parseModule(paper::Figure1);
  ASSERT_TRUE(R) << R.Error;
  Function *F = R.Mod->functions()[0];
  for (Block *B : F->blocks()) {
    if (!B->isMerge())
      continue;
    B->phis()[0]->removeInput(0); // now misaligned with preds
    EXPECT_NE(verifyFunction(*F), "");
    return;
  }
  FAIL() << "no merge found";
}

TEST(VerifierTest, DetectsUseNotDominatedByDef) {
  ParseResult R = parseModule(R"(
func @f(int) {
b0:
  %p = param 0
  %z = const 0
  %c = cmp gt %p, %z
  if %c, b1, b2 !0.5
b1:
  %v = add %p, %p
  jump b3
b2:
  jump b3
b3:
  ret %p
}
)");
  ASSERT_TRUE(R) << R.Error;
  Function *F = R.Mod->functions()[0];
  // Rewire the return to use %v, which does not dominate b3.
  Block *RetBlock = nullptr;
  Instruction *V = nullptr;
  for (Block *B : F->blocks()) {
    for (Instruction *I : *B)
      if (I->getOpcode() == Opcode::Add)
        V = I;
    if (isa<ReturnInst>(B->getTerminator()) )
      RetBlock = B;
  }
  ASSERT_NE(V, nullptr);
  ASSERT_NE(RetBlock, nullptr);
  RetBlock->getTerminator()->setOperand(0, V);
  EXPECT_NE(verifyFunction(*F), "");
}

TEST(PrinterTest, InstructionFormats) {
  ParseResult R = parseModule(paper::Listing3);
  ASSERT_TRUE(R) << R.Error;
  std::string Text = printModule(R.Mod.get());
  EXPECT_NE(Text.find("class A 1"), std::string::npos);
  EXPECT_NE(Text.find("new 0"), std::string::npos);
  EXPECT_NE(Text.find("phi obj"), std::string::npos);
  EXPECT_NE(Text.find("cmp eq"), std::string::npos);
  EXPECT_NE(Text.find("const null"), std::string::npos);
}

TEST(PrinterTest, NamesAreSequentialInPrintOrder) {
  // Figure 1 with every value and block label renamed. The printer numbers
  // values and blocks in print order, so structurally identical functions
  // print identically whatever their source called them.
  const char *Renamed = R"(
func @foo(int) {
b0:
  %x = param 0
  %k0 = const 0
  %t = cmp gt %x, %k0
  if %t, b7, b4 !0.5
b7:
  jump b9
b4:
  jump b9
b9:
  %m = phi int [%x, b7], [%k0, b4]
  %k2 = const 2
  %r = add %k2, %m
  ret %r
}
)";
  ParseResult A = parseModule(paper::Figure1);
  ParseResult B = parseModule(Renamed);
  ASSERT_TRUE(A) << A.Error;
  ASSERT_TRUE(B) << B.Error;
  const std::string Printed = printFunction(A.Mod->functions()[0]);
  EXPECT_EQ(printFunction(B.Mod->functions()[0]), Printed);
  EXPECT_NE(Printed.find("b3:\n  %4 = phi int [%2, b1], [%0, b2]"),
            std::string::npos)
      << Printed;
}

} // namespace
