//===- tests/duplicator_test.cpp - Duplication edge cases -------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The tail-duplication transformation under every merge shape it can
// encounter: merges ending in returns, branches, and jumps; values live
// across later joins (SSA reconstruction); memory operations; chains of
// merges; and interactions with subsequent cleanup. Every case checks the
// verifier and interpreter-observable semantics on both paths. SSA repair
// builds only the phis some use needs, and hands back the dominator tree
// of the CFG it leaves behind.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "analysis/Loops.h"
#include "analysis/Verifier.h"
#include "dbds/DBDSPhase.h"
#include "dbds/Duplicator.h"
#include "ir/Parser.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

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

Block *mergeBlock(Function &F) {
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  for (Block *B : F.blocks())
    if (B->isMerge() && !LI.isLoopHeader(B))
      return B;
  return nullptr;
}

/// Duplicates \p M into every eligible predecessor, verifying after each.
void duplicateAll(Function &F, Block *M) {
  bool Progress = true;
  while (Progress && M->isMerge()) {
    Progress = false;
    for (Block *P : SmallVector<Block *, 4>(M->preds().begin(),
                                            M->preds().end())) {
      if (!canDuplicateInto(M, P))
        continue;
      duplicateIntoPredecessor(F, M, P);
      ASSERT_EQ(verifyFunction(F), "");
      Progress = true;
      break;
    }
  }
}

TEST(DuplicatorEdgeTest, MergeEndingInBranch) {
  // The merge's terminator is an If: both successors gain predecessors.
  Parsed P = parse(R"(
func @f(int, int) {
b0:
  %a = param 0
  %b = param 1
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%a, b1], [%b, b2]
  %c2 = cmp gt %phi, %b
  if %c2, b4, b5 !0.5
b4:
  %one = const 1
  ret %one
b5:
  ret %z
}
)");
  Interpreter Interp(*P.Mod);
  auto Run = [&](int64_t A, int64_t B) {
    return Interp.run(*P.F, ArrayRef<int64_t>({A, B})).Result.Scalar;
  };
  int64_t R1 = Run(5, 2), R2 = Run(-5, 2), R3 = Run(5, 9);
  Block *M = P.F->getBlockById(3);
  duplicateAll(*P.F, M);
  EXPECT_EQ(Run(5, 2), R1);
  EXPECT_EQ(Run(-5, 2), R2);
  EXPECT_EQ(Run(5, 9), R3);
}

TEST(DuplicatorEdgeTest, MergeEndingInReturn) {
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
  Block *M = P.F->getBlockById(3);
  duplicateAll(*P.F, M);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({4})).Result.Scalar, 4);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({-4})).Result.Scalar, 0);
}

TEST(DuplicatorEdgeTest, ThreeWayMerge) {
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %z = const 0
  %ten = const 10
  %c = cmp gt %a, %ten
  if %c, b1, b2 !0.5
b1:
  jump b5
b2:
  %c2 = cmp gt %a, %z
  if %c2, b3, b4 !0.5
b3:
  jump b5
b4:
  jump b5
b5:
  %phi = phi int [%ten, b1], [%a, b3], [%z, b4]
  %one = const 1
  %r = add %phi, %one
  ret %r
}
)");
  Interpreter Interp(*P.Mod);
  auto Run = [&](int64_t A) {
    return Interp.run(*P.F, ArrayRef<int64_t>({A})).Result.Scalar;
  };
  int64_t R1 = Run(20), R2 = Run(5), R3 = Run(-5);
  Block *M = P.F->getBlockById(5);
  ASSERT_EQ(M->getNumPreds(), 3u);
  duplicateAll(*P.F, M);
  EXPECT_EQ(Run(20), R1);
  EXPECT_EQ(Run(5), R2);
  EXPECT_EQ(Run(-5), R3);
}

TEST(DuplicatorEdgeTest, MemoryOperationsInMerge) {
  Parsed P = parse(R"(
class A 2

func @f(obj, int) {
b0:
  %a = param 0
  %v = param 1
  %z = const 0
  %c = cmp gt %v, %z
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%v, b1], [%z, b2]
  store %a, 0, %phi
  %l = load %a, 1
  %r = add %l, %phi
  ret %r
}
)");
  Interpreter Interp(*P.Mod);
  RuntimeValue Obj = Interp.allocate(0);
  Interp.writeField(Obj, 1, 100);
  RuntimeValue Args[2] = {Obj, RuntimeValue::ofInt(5)};
  int64_t Before =
      Interp.run(*P.F, ArrayRef<RuntimeValue>(Args, 2)).Result.Scalar;
  int64_t Field0 = Interp.readField(Obj, 0);

  Block *M = P.F->getBlockById(3);
  duplicateAll(*P.F, M);

  Interp.reset();
  Obj = Interp.allocate(0);
  Interp.writeField(Obj, 1, 100);
  RuntimeValue Args2[2] = {Obj, RuntimeValue::ofInt(5)};
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<RuntimeValue>(Args2, 2)).Result.Scalar,
            Before);
  EXPECT_EQ(Interp.readField(Obj, 0), Field0); // store still happens once
}

TEST(DuplicatorEdgeTest, CallInMergeExecutesOncePerPath) {
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
  %x = call 7(%phi)
  ret %x
}
)");
  Interpreter Interp(*P.Mod);
  int64_t R1 = Interp.run(*P.F, ArrayRef<int64_t>({3})).Result.Scalar;
  int64_t R2 = Interp.run(*P.F, ArrayRef<int64_t>({-3})).Result.Scalar;
  Block *M = P.F->getBlockById(3);
  duplicateAll(*P.F, M);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({3})).Result.Scalar, R1);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({-3})).Result.Scalar, R2);
}

TEST(DuplicatorEdgeTest, ValueLiveAcrossTwoJoins) {
  // %v defined in the first merge is used past a second join: SSA
  // reconstruction must chain phis through both.
  Parsed P = parse(R"(
func @f(int, int) {
b0:
  %a = param 0
  %b = param 1
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%a, b1], [%z, b2]
  %v = mul %phi, %b
  %c2 = cmp gt %v, %b
  if %c2, b4, b5 !0.5
b4:
  jump b6
b5:
  jump b6
b6:
  %c3 = cmp gt %v, %a
  if %c3, b7, b8 !0.5
b7:
  ret %v
b8:
  %r = add %v, %b
  ret %r
}
)");
  Interpreter Interp(*P.Mod);
  auto Run = [&](int64_t A, int64_t B) {
    return Interp.run(*P.F, ArrayRef<int64_t>({A, B})).Result.Scalar;
  };
  int64_t Cases[4][2] = {{3, 4}, {-3, 4}, {3, -4}, {-3, -4}};
  int64_t Before[4];
  for (int I = 0; I != 4; ++I)
    Before[I] = Run(Cases[I][0], Cases[I][1]);

  Block *M = P.F->getBlockById(3);
  duplicateAll(*P.F, M);
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(Run(Cases[I][0], Cases[I][1]), Before[I]) << "case " << I;
}

TEST(DuplicatorEdgeTest, ChainedMergesDuplicatedInSequence) {
  Parsed P = parse(R"(
func @f(int, int) {
b0:
  %a = param 0
  %b = param 1
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %p1 = phi int [%a, b1], [%z, b2]
  %c2 = cmp gt %b, %z
  if %c2, b4, b5 !0.5
b4:
  jump b6
b5:
  jump b6
b6:
  %p2 = phi int [%b, b4], [%p1, b5]
  %r = add %p1, %p2
  ret %r
}
)");
  Interpreter Interp(*P.Mod);
  auto Run = [&](int64_t A, int64_t B) {
    return Interp.run(*P.F, ArrayRef<int64_t>({A, B})).Result.Scalar;
  };
  int64_t Cases[4][2] = {{3, 4}, {-3, 4}, {3, -4}, {-3, -4}};
  int64_t Before[4];
  for (int I = 0; I != 4; ++I)
    Before[I] = Run(Cases[I][0], Cases[I][1]);

  // Duplicate the first merge fully, then whatever merge remains.
  duplicateAll(*P.F, P.F->getBlockById(3));
  if (Block *M = mergeBlock(*P.F))
    duplicateAll(*P.F, M);
  ASSERT_EQ(verifyFunction(*P.F), "");
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(Run(Cases[I][0], Cases[I][1]), Before[I]) << "case " << I;
}

TEST(DuplicatorEdgeTest, StructuralPreconditions) {
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
  Block *B0 = P.F->getBlockById(0);
  Block *B1 = P.F->getBlockById(1);
  Block *B3 = P.F->getBlockById(3);
  EXPECT_TRUE(canDuplicateInto(B3, B1));
  EXPECT_FALSE(canDuplicateInto(B3, B0)); // b0 ends in If, not Jump to b3
  EXPECT_FALSE(canDuplicateInto(B1, B0)); // b1 is not a merge
  EXPECT_FALSE(canDuplicateInto(B3, B3)); // self
}

TEST(DuplicatorEdgeTest, LoopCarriedValuesSurviveDuplicationInsideLoop) {
  // A merge inside a loop body; loop-carried phis must stay intact.
  Parsed P = parse(R"(
func @f(int) {
b0:
  %n = param 0
  %z = const 0
  jump b1
b1:
  %i = phi int [%z, b0], [%inext, b5]
  %acc = phi int [%z, b0], [%accnext, b5]
  %c = cmp lt %i, %n
  if %c, b2, b6 !0.9
b2:
  %two = const 2
  %m = rem %i, %two
  %cz = cmp eq %m, %z
  if %cz, b3, b4 !0.5
b3:
  jump b5
b4:
  jump b5
b5:
  %delta = phi int [%i, b3], [%two, b4]
  %accnext = add %acc, %delta
  %one = const 1
  %inext = add %i, %one
  jump b1
b6:
  ret %acc
}
)");
  Interpreter Interp(*P.Mod);
  auto Run = [&](int64_t N) {
    return Interp.run(*P.F, ArrayRef<int64_t>({N})).Result.Scalar;
  };
  int64_t R10 = Run(10), R7 = Run(7);

  Block *M = P.F->getBlockById(5);
  duplicateAll(*P.F, M);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(Run(10), R10);
  EXPECT_EQ(Run(7), R7);
}

TEST(DuplicatorEdgeTest, DBDSAfterManualDuplicationStillWorks) {
  // Interleaving manual duplications with a full DBDS run must compose.
  Parsed P = parse(R"(
func @f(int, int) {
b0:
  %a = param 0
  %b = param 1
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%a, b1], [%z, b2]
  %one = const 1
  %r = add %phi, %one
  %c2 = cmp gt %r, %b
  if %c2, b4, b5 !0.5
b4:
  ret %r
b5:
  ret %b
}
)");
  Interpreter Interp(*P.Mod);
  auto Run = [&](int64_t A, int64_t B) {
    return Interp.run(*P.F, ArrayRef<int64_t>({A, B})).Result.Scalar;
  };
  int64_t R1 = Run(4, 2), R2 = Run(-4, 2), R3 = Run(4, 99);

  Block *M = P.F->getBlockById(3);
  duplicateIntoPredecessor(*P.F, M, M->preds()[0]);
  ASSERT_EQ(verifyFunction(*P.F), "");

  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  runDBDS(*P.F, Config);
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(Run(4, 2), R1);
  EXPECT_EQ(Run(-4, 2), R2);
  EXPECT_EQ(Run(4, 99), R3);
}

TEST(DuplicatorEdgeTest, RepairBuildsOnlyPhisThatAreUsed) {
  // b3 defines five values (its phi and four instructions); only %x is
  // used past the diamond b4/b5 that the duplication turns into two joins. The iterated dominance frontier
  // {b4, b5, b6} is shared by every value, but only %x needs phis there.
  Parsed P = parse(R"(
func @f(int, int) {
b0:
  %a = param 0
  %b = param 1
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.5
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%a, b1], [%b, b2]
  %x = add %phi, %b
  %y = mul %phi, %a
  %w = sub %phi, %b
  %c2 = cmp gt %y, %w
  if %c2, b4, b5 !0.5
b4:
  jump b6
b5:
  jump b6
b6:
  %r = add %x, %b
  ret %r
}
)");
  Interpreter Interp(*P.Mod);
  auto Run = [&](int64_t A, int64_t B) {
    return Interp.run(*P.F, ArrayRef<int64_t>({A, B})).Result.Scalar;
  };
  const int64_t Grid[] = {-7, -1, 0, 1, 3, 9};
  std::vector<int64_t> Before;
  for (int64_t A : Grid)
    for (int64_t B : Grid)
      Before.push_back(Run(A, B));

  Block *M = P.F->getBlockById(3);
  duplicateIntoPredecessor(*P.F, M, P.F->getBlockById(1));
  ASSERT_EQ(verifyFunction(*P.F), "");

  // No cleanup ran: every phi repair built has a user.
  unsigned DeadPhis = 0;
  for (const LintFinding &Finding :
       Linter::standard(P.Mod.get()).lint(*P.F).Findings)
    DeadPhis += Finding.RuleId == "dead-phi";
  EXPECT_EQ(DeadPhis, 0u);
  // %x reaches b6 through one phi on each of b4, b5 and b6.
  unsigned Phis = 0;
  for (unsigned Id : {4u, 5u, 6u})
    Phis += P.F->getBlockById(Id)->phis().size();
  EXPECT_EQ(Phis, 3u);

  size_t Idx = 0;
  for (int64_t A : Grid)
    for (int64_t B : Grid)
      EXPECT_EQ(Run(A, B), Before[Idx++]) << "a=" << A << " b=" << B;
}

/// Expects \p Handed, the tree duplicateIntoPredecessor handed back, to
/// agree with a tree built from scratch on reachability and every idom.
void expectSameTree(Function &F, const DominatorTree &Handed) {
  DominatorTree Fresh(F);
  for (Block *B : F.blocks()) {
    ASSERT_EQ(Handed.isReachable(B), Fresh.isReachable(B))
        << "b" << B->getId();
    if (Fresh.isReachable(B)) {
      EXPECT_EQ(Handed.getIdom(B), Fresh.getIdom(B)) << "b" << B->getId();
    }
  }
}

TEST(DuplicatorEdgeTest, HandedBackTreeMatchesAFreshOne) {
  // b4 is a merge ending in a jump into the merge b5: duplicating b4 into
  // b2 and then b5 into b2 is the §8 path duplication.
  Parsed P = parse(R"(
func @f(int, int) {
b0:
  %a = param 0
  %b = param 1
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b6 !0.5
b1:
  %c1 = cmp gt %b, %z
  if %c1, b2, b3 !0.5
b2:
  jump b4
b3:
  jump b4
b4:
  %p = phi int [%a, b2], [%b, b3]
  %x = add %p, %b
  jump b5
b5:
  %q = phi int [%x, b4], [%z, b6]
  %r = add %q, %a
  ret %r
b6:
  jump b5
}
)");
  Interpreter Interp(*P.Mod);
  auto Run = [&](int64_t A, int64_t B) {
    return Interp.run(*P.F, ArrayRef<int64_t>({A, B})).Result.Scalar;
  };
  int64_t Cases[4][2] = {{3, 4}, {-3, 4}, {3, -4}, {-3, -4}};
  int64_t Before[4];
  for (int I = 0; I != 4; ++I)
    Before[I] = Run(Cases[I][0], Cases[I][1]);

  Block *B2 = P.F->getBlockById(2);
  std::optional<DominatorTree> DT;
  duplicateIntoPredecessor(*P.F, P.F->getBlockById(4), B2, &DT);
  ASSERT_TRUE(DT.has_value());
  expectSameTree(*P.F, *DT);

  Block *M2 = P.F->getBlockById(5);
  ASSERT_TRUE(canDuplicateInto(M2, B2));
  duplicateIntoPredecessor(*P.F, M2, B2, &DT);
  ASSERT_EQ(verifyFunction(*P.F), "");
  expectSameTree(*P.F, *DT);
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(Run(Cases[I][0], Cases[I][1]), Before[I]) << "case " << I;
}

} // namespace
