//===- tests/opts_test.cpp - Optimization phase unit tests ------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Canonicalize.h"
#include "opts/Phase.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

struct Parsed {
  std::unique_ptr<Module> Mod;
  Function *F;
};

Parsed parse(const std::string &Source) {
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

/// Wraps a straight-line expression body into a function returning it.
Parsed parseBody(const std::string &Body) {
  return parse("func @f(int, int) {\nb0:\n  %a = param 0\n  %b = param 1\n" +
               Body + "\n}\n");
}

// ---- Canonicalizer: constant folding + algebraic identities ---------------

struct FoldCase {
  const char *Name;
  const char *Body;        ///< defines %r from %a, %b
  const char *SurvivorOp;  ///< mnemonic expected to remain, or "" if folded
  int64_t A, B, Expected;  ///< runtime check
};

class CanonicalizerFolds : public ::testing::TestWithParam<FoldCase> {};

TEST_P(CanonicalizerFolds, FoldsAndPreservesSemantics) {
  const FoldCase &C = GetParam();
  Parsed P = parseBody(std::string("  ") + C.Body + "\n  ret %r");
  Interpreter Interp(*P.Mod);
  int64_t Before =
      Interp.run(*P.F, ArrayRef<int64_t>({C.A, C.B})).Result.Scalar;
  EXPECT_EQ(Before, C.Expected);

  Canonicalizer Canon;
  Canon.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({C.A, C.B})).Result.Scalar,
            C.Expected);
  if (std::string(C.SurvivorOp).empty()) {
    // Everything arithmetic folded away.
    for (Opcode Op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
                      Opcode::Rem, Opcode::And, Opcode::Or, Opcode::Xor,
                      Opcode::Shl, Opcode::Shr})
      EXPECT_EQ(countOpcode(*P.F, Op), 0u) << opcodeMnemonic(Op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Identities, CanonicalizerFolds,
    ::testing::Values(
        FoldCase{"AddZero", "%z = const 0\n  %r = add %a, %z", "", 7, 0, 7},
        FoldCase{"SubZero", "%z = const 0\n  %r = sub %a, %z", "", 7, 0, 7},
        FoldCase{"MulOne", "%o = const 1\n  %r = mul %a, %o", "", 9, 0, 9},
        FoldCase{"MulZero", "%z = const 0\n  %r = mul %a, %z", "", 9, 0, 0},
        FoldCase{"DivOne", "%o = const 1\n  %r = div %a, %o", "", 9, 0, 9},
        FoldCase{"RemOne", "%o = const 1\n  %r = rem %a, %o", "", 9, 0, 0},
        FoldCase{"AndZero", "%z = const 0\n  %r = and %a, %z", "", 9, 0, 0},
        FoldCase{"AndAllOnes", "%m = const -1\n  %r = and %a, %m", "", 9, 0,
                 9},
        FoldCase{"OrZero", "%z = const 0\n  %r = or %a, %z", "", 9, 0, 9},
        FoldCase{"XorSelf", "%r = xor %a, %a", "", 9, 0, 0},
        FoldCase{"SubSelf", "%r = sub %a, %a", "", 9, 0, 0},
        FoldCase{"AndSelf", "%r = and %a, %a", "", 9, 0, 9},
        FoldCase{"OrSelf", "%r = or %a, %a", "", 9, 0, 9},
        FoldCase{"ShlZero", "%z = const 0\n  %r = shl %a, %z", "", 9, 0, 9},
        FoldCase{"BothConst", "%x = const 6\n  %y = const 7\n  %r = mul "
                              "%x, %y",
                 "", 0, 0, 42},
        FoldCase{"ConstChain",
                 "%x = const 10\n  %y = const 3\n  %t = div %x, %y\n  %r = "
                 "add %t, %t",
                 "", 0, 0, 6},
        FoldCase{"NegConst", "%x = const 5\n  %r = neg %x", "", 0, 0, -5},
        FoldCase{"NotConst", "%x = const 0\n  %r = not %x", "", 0, 0, -1},
        FoldCase{"CmpSelfEq", "%c = cmp eq %a, %a\n  %r = add %c, %c", "", 3,
                 0, 2},
        FoldCase{"CmpSelfLt", "%c = cmp lt %a, %a\n  %r = add %c, %c", "", 3,
                 0, 0},
        FoldCase{"CmpConst",
                 "%x = const 3\n  %y = const 5\n  %c = cmp le %x, %y\n  %r "
                 "= add %c, %c",
                 "", 0, 0, 2}),
    [](const ::testing::TestParamInfo<FoldCase> &Info) {
      return Info.param.Name;
    });

TEST(CanonicalizerTest, MulByPowerOfTwoBecomesShift) {
  Parsed P = parseBody("  %c = const 8\n  %r = mul %a, %c\n  ret %r");
  Canonicalizer Canon;
  Canon.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::Mul), 0u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::Shl), 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({-7, 0})).Result.Scalar,
            -56);
}

TEST(CanonicalizerTest, SignedDivisionNotReducedWithoutRangeProof) {
  // x / 8 != x >> 3 for negative x; without a non-negative stamp the
  // canonicalizer must keep the division.
  Parsed P = parseBody("  %c = const 8\n  %r = div %a, %c\n  ret %r");
  Canonicalizer Canon;
  Canon.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::Div), 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({-15, 0})).Result.Scalar,
            -1); // C semantics: trunc toward zero
}

TEST(CanonicalizerTest, MaskedDivisionIsReduced) {
  // (x & 255) / 8 is provably non-negative: strength reduction fires.
  Parsed P = parseBody(
      "  %m = const 255\n  %x = and %a, %m\n  %c = const 8\n  %r = div "
      "%x, %c\n  ret %r");
  Canonicalizer Canon;
  Canon.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::Div), 0u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::Shr), 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({77, 0})).Result.Scalar,
            77 / 8);
}

TEST(CanonicalizerTest, MaskedRemBecomesAnd) {
  Parsed P = parseBody(
      "  %m = const 255\n  %x = and %a, %m\n  %c = const 16\n  %r = rem "
      "%x, %c\n  ret %r");
  Canonicalizer Canon;
  Canon.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::Rem), 0u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({77, 0})).Result.Scalar,
            77 % 16);
}

TEST(CanonicalizerTest, PhiCopyPropagation) {
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%a, b1], [%a, b2]
  ret %phi
}
)");
  Canonicalizer Canon;
  Canon.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::Phi), 0u);
}

// ---- Conditional elimination ------------------------------------------------

TEST(ConditionalEliminationTest, DominatingConditionFoldsRetest) {
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.5
b1:
  %c2 = cmp gt %a, %z
  %t = add %c2, %c2
  ret %t
b2:
  ret %z
}
)");
  ConditionalElimination CE;
  CE.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  // The re-test %c2 folds to 1 in the dominated true branch.
  EXPECT_EQ(countOpcode(*P.F, Opcode::Cmp), 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({5})).Result.Scalar, 2);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({-5})).Result.Scalar, 0);
}

TEST(ConditionalEliminationTest, RangeImplicationFolds) {
  // x > 10 implies x > 5.
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %ten = const 10
  %five = const 5
  %c = cmp gt %a, %ten
  if %c, b1, b2 !0.5
b1:
  %c2 = cmp gt %a, %five
  ret %c2
b2:
  %z = const 0
  ret %z
}
)");
  ConditionalElimination CE;
  CE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::Cmp), 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({11})).Result.Scalar, 1);
}

TEST(ConditionalEliminationTest, RefinementDoesNotLeakToSiblings) {
  // x > 10 in the true branch must not fold x > 5 in the FALSE branch.
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %ten = const 10
  %five = const 5
  %c = cmp gt %a, %ten
  if %c, b1, b2 !0.5
b1:
  %one = const 1
  ret %one
b2:
  %c2 = cmp gt %a, %five
  ret %c2
}
)");
  ConditionalElimination CE;
  CE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::Cmp), 2u); // both tests survive
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({7})).Result.Scalar, 1);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({3})).Result.Scalar, 0);
}

TEST(ConditionalEliminationTest, NullCheckRefinement) {
  Parsed P = parse(R"(
class A 1

func @f(obj) {
b0:
  %a = param 0
  %null = const null
  %c = cmp eq %a, %null
  if %c, b1, b2 !0.5
b1:
  %z = const 0
  ret %z
b2:
  %c2 = cmp ne %a, %null
  ret %c2
}
)");
  ConditionalElimination CE;
  CE.run(*P.F);
  // In the false branch a is non-null: %c2 folds to 1.
  EXPECT_EQ(countOpcode(*P.F, Opcode::Cmp), 1u);
}

TEST(ConditionalEliminationTest, BranchOnKnownConditionGetsConstant) {
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b3 !0.5
b1:
  if %c, b2, b3 !0.5
b2:
  %one = const 1
  ret %one
b3:
  ret %z
}
)");
  ConditionalElimination CE;
  CE.run(*P.F);
  SimplifyCFG SC;
  SC.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  // The inner branch re-testing %c folded away entirely.
  EXPECT_EQ(countOpcode(*P.F, Opcode::If), 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({4})).Result.Scalar, 1);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({-4})).Result.Scalar, 0);
}

// ---- Read elimination --------------------------------------------------------

TEST(ReadEliminationTest, StoreToLoadForwardingInBlock) {
  Parsed P = parse(R"(
class A 2

func @f(obj, int) {
b0:
  %a = param 0
  %v = param 1
  store %a, 0, %v
  %l = load %a, 0
  ret %l
}
)");
  ReadElimination RE(P.Mod.get());
  RE.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 0u);
}

TEST(ReadEliminationTest, LoadToLoadForwarding) {
  Parsed P = parse(R"(
class A 2

func @f(obj) {
b0:
  %a = param 0
  %l1 = load %a, 0
  %l2 = load %a, 0
  %r = add %l1, %l2
  ret %r
}
)");
  ReadElimination RE(P.Mod.get());
  RE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 1u);
}

TEST(ReadEliminationTest, AliasingStoreKillsForwarding) {
  // A store through a *different* object may alias: the load survives.
  Parsed P = parse(R"(
class A 2

func @f(obj, obj, int) {
b0:
  %a = param 0
  %b = param 1
  %v = param 2
  store %a, 0, %v
  store %b, 0, %v
  %l = load %a, 0
  ret %l
}
)");
  ReadElimination RE(P.Mod.get());
  RE.run(*P.F);
  // (a,0) was killed by the maybe-aliasing store to (b,0).
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 1u);
}

TEST(ReadEliminationTest, DifferentFieldDoesNotKill) {
  Parsed P = parse(R"(
class A 2

func @f(obj, obj, int) {
b0:
  %a = param 0
  %b = param 1
  %v = param 2
  store %a, 0, %v
  store %b, 1, %v
  %l = load %a, 0
  ret %l
}
)");
  ReadElimination RE(P.Mod.get());
  RE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 0u);
}

TEST(ReadEliminationTest, CallKillsEscapedKnowledge) {
  Parsed P = parse(R"(
class A 2

func @f(obj, int) {
b0:
  %a = param 0
  %v = param 1
  store %a, 0, %v
  %x = call 1(%v)
  %l = load %a, 0
  %r = add %l, %x
  ret %r
}
)");
  ReadElimination RE(P.Mod.get());
  RE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 1u); // call clobbered it
}

TEST(ReadEliminationTest, FreshAllocationSurvivesCalls) {
  // A never-escaping allocation cannot be touched by an opaque call.
  Parsed P = parse(R"(
class A 2

func @f(int) {
b0:
  %v = param 0
  %o = new 0
  store %o, 0, %v
  %x = call 1(%v)
  %l = load %o, 0
  %r = add %l, %x
  ret %r
}
)");
  ReadElimination RE(P.Mod.get());
  RE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 0u);
}

TEST(ReadEliminationTest, FreshAllocationFieldsAreZero) {
  Parsed P = parse(R"(
class A 2

func @f() {
b0:
  %o = new 0
  %l = load %o, 1
  ret %l
}
)");
  ReadElimination RE(P.Mod.get());
  RE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 0u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>()).Result.Scalar, 0);
}

TEST(ReadEliminationTest, MergeResetsKnowledge) {
  // The paper's whole point: the load after the merge is only PARTIALLY
  // redundant, so plain read elimination must keep it.
  Parsed P = parse(R"(
class A 2

func @f(obj, int) {
b0:
  %a = param 0
  %i = param 1
  %z = const 0
  %c = cmp gt %i, %z
  if %c, b1, b2 !0.5
b1:
  %l1 = load %a, 0
  store %a, 1, %l1
  jump b3
b2:
  jump b3
b3:
  %l2 = load %a, 0
  ret %l2
}
)");
  ReadElimination RE(P.Mod.get());
  RE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 2u); // both survive
}

TEST(ReadEliminationTest, RedundantStoreRemoved) {
  Parsed P = parse(R"(
class A 2

func @f(obj, int) {
b0:
  %a = param 0
  %v = param 1
  store %a, 0, %v
  store %a, 0, %v
  %l = load %a, 0
  ret %l
}
)");
  ReadElimination RE(P.Mod.get());
  RE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::StoreField), 1u);
}

// ---- DCE -----------------------------------------------------------------------

TEST(DCETest, RemovesDeadArithmeticChains) {
  Parsed P = parseBody(
      "  %d1 = add %a, %b\n  %d2 = mul %d1, %d1\n  %d3 = xor %d2, %a\n  "
      "ret %a");
  DeadCodeElimination DCE;
  DCE.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::Add), 0u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::Mul), 0u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::Xor), 0u);
}

TEST(DCETest, KeepsSideEffects) {
  Parsed P = parse(R"(
class A 1

func @f(obj, int) {
b0:
  %a = param 0
  %v = param 1
  %x = call 3(%v)
  store %a, 0, %v
  ret %v
}
)");
  DeadCodeElimination DCE;
  DCE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::Call), 1u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::StoreField), 1u);
}

TEST(DCETest, RemovesDeadPhiCycles) {
  // Two loop phis that only feed each other.
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %z = const 0
  jump b1
b1:
  %i = phi int [%z, b0], [%inext, b1]
  %dead = phi int [%a, b0], [%dead2, b1]
  %dead2 = add %dead, %i
  %one = const 1
  %inext = add %i, %one
  %c = cmp lt %inext, %a
  if %c, b1, b2 !0.9
b2:
  ret %i
}
)");
  DeadCodeElimination DCE;
  DCE.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::Phi), 1u); // only %i survives
}

TEST(DCETest, EscapingAllocationIsNotSunk) {
  Parsed P = parse(R"(
class A 2

func @f(int) {
b0:
  %v = param 0
  %o = new 0
  store %o, 0, %v
  %x = call 1(%o)
  ret %x
}
)");
  DeadCodeElimination DCE;
  DCE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 1u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::StoreField), 1u);
}

TEST(DCETest, LoadKeepsAllocationAlive) {
  Parsed P = parse(R"(
class A 2

func @f(int) {
b0:
  %v = param 0
  %o = new 0
  store %o, 0, %v
  %l = load %o, 0
  ret %l
}
)");
  DeadCodeElimination DCE;
  DCE.run(*P.F);
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 1u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 1u);
}

// ---- SimplifyCFG ---------------------------------------------------------------

TEST(SimplifyCFGTest, FoldsConstantBranchAndPrunes) {
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %one = const 1
  if %one, b1, b2 !0.5
b1:
  ret %a
b2:
  %z = const 0
  ret %z
}
)");
  SimplifyCFG SC;
  SC.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::If), 0u);
  // b2 is unreachable and pruned; b1 merged into b0.
  EXPECT_EQ(P.F->getNumBlocks(), 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({9})).Result.Scalar, 9);
}

TEST(SimplifyCFGTest, MergesStraightLineChains) {
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  jump b1
b1:
  %one = const 1
  %x = add %a, %one
  jump b2
b2:
  %y = mul %x, %x
  ret %y
}
)");
  SimplifyCFG SC;
  SC.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(P.F->getNumBlocks(), 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({3})).Result.Scalar, 16);
}

TEST(SimplifyCFGTest, KeepsEmptyBeginBlocksBeforeMerges) {
  // The begin blocks before a merge are duplication sites; SimplifyCFG
  // must not thread them away (DESIGN.md / SimplifyCFG.cpp note).
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%a, b1], [%z, b2]
  ret %phi
}
)");
  SimplifyCFG SC;
  SC.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(P.F->getNumBlocks(), 4u); // b1/b2 survive as begin blocks
}

TEST(SimplifyCFGTest, PhaseManagerReachesFixpoint) {
  // CE makes a branch constant; SimplifyCFG folds it; canonicalizer
  // cleans the phi; DCE sweeps — requires multiple pipeline rounds.
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %ten = const 10
  %c = cmp gt %a, %ten
  if %c, b1, b2 !0.5
b1:
  %c2 = cmp gt %a, %ten
  if %c2, b3, b4 !0.5
b2:
  %z = const 0
  ret %z
b3:
  %one = const 1
  ret %one
b4:
  %two = const 2
  ret %two
}
)");
  PhaseManager PM = PhaseManager::standardPipeline(true, P.Mod.get());
  PM.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  // The nested re-test is gone; b4 unreachable.
  EXPECT_EQ(countOpcode(*P.F, Opcode::If), 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({11})).Result.Scalar, 1);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({2})).Result.Scalar, 0);
}

} // namespace
