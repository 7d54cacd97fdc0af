//===- tests/analysis_test.cpp - Dominance, loops, frequencies --------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/BlockFrequency.h"
#include "analysis/DominatorTree.h"
#include "analysis/Loops.h"
#include "ir/Parser.h"
#include "opts/Phase.h"

#include <gtest/gtest.h>

#include <algorithm>

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

/// Diamond: b0 -> {b1, b2} -> b3.
const char *Diamond = R"(
func @f(int) {
b0:
  %a = param 0
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.75
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%a, b1], [%z, b2]
  ret %phi
}
)";

/// Loop: b0 -> b1 (header) -> {b2 (latch) -> b1, b3 (exit)}.
const char *Loop = R"(
func @f(int) {
b0:
  %n = param 0
  %z = const 0
  jump b1
b1:
  %i = phi int [%z, b0], [%inext, b2]
  %c = cmp lt %i, %n
  if %c, b2, b3 !0.9
b2:
  %one = const 1
  %inext = add %i, %one
  jump b1
b3:
  ret %i
}
)";

/// Nested loops: outer header b1, inner header b2.
const char *NestedLoop = R"(
func @f(int) {
b0:
  %n = param 0
  %z = const 0
  jump b1
b1:
  %i = phi int [%z, b0], [%inext, b4]
  %ci = cmp lt %i, %n
  if %ci, b2, b5 !0.9
b2:
  %j = phi int [%z, b1], [%jnext, b3]
  %cj = cmp lt %j, %n
  if %cj, b3, b4 !0.9
b3:
  %one = const 1
  %jnext = add %j, %one
  jump b2
b4:
  %one2 = const 1
  %inext = add %i, %one2
  jump b1
b5:
  ret %i
}
)";

Block *blockByName(Function &F, const std::string &Name) {
  for (Block *B : F.blocks())
    if (B->getName() == Name)
      return B;
  return nullptr;
}

// ---- RPO ---------------------------------------------------------------------

TEST(RPOTest, EntryFirstDominatorsBeforeDominated) {
  Parsed P = parse(Diamond);
  auto RPO = computeRPO(*P.F);
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO.front(), P.F->getEntry());
  // The merge comes after both branch blocks.
  auto Pos = [&](Block *B) {
    return std::find(RPO.begin(), RPO.end(), B) - RPO.begin();
  };
  Block *Merge = blockByName(*P.F, "b3");
  for (Block *Pred : Merge->preds())
    EXPECT_LT(Pos(Pred), Pos(Merge));
}

TEST(RPOTest, OmitsUnreachableBlocks) {
  Parsed P = parse(Diamond);
  Block *Orphan = P.F->createBlock();
  auto *Ret = P.F->create<ReturnInst>(nullptr);
  Orphan->append(Ret);
  EXPECT_EQ(computeRPO(*P.F).size(), 4u);
}

// ---- DominatorTree --------------------------------------------------------------

TEST(DominatorTreeTest, DiamondStructure) {
  Parsed P = parse(Diamond);
  DominatorTree DT(*P.F);
  Block *B0 = blockByName(*P.F, "b0"), *B1 = blockByName(*P.F, "b1");
  Block *B2 = blockByName(*P.F, "b2"), *B3 = blockByName(*P.F, "b3");
  EXPECT_EQ(DT.getIdom(B0), nullptr);
  EXPECT_EQ(DT.getIdom(B1), B0);
  EXPECT_EQ(DT.getIdom(B2), B0);
  EXPECT_EQ(DT.getIdom(B3), B0); // join: neither branch dominates it
  EXPECT_TRUE(DT.dominates(B0, B3));
  EXPECT_TRUE(DT.dominates(B3, B3)); // reflexive
  EXPECT_FALSE(DT.dominates(B1, B3));
  EXPECT_FALSE(DT.strictlyDominates(B3, B3));
  EXPECT_EQ(DT.children(B0).size(), 3u);
}

TEST(DominatorTreeTest, LoopStructure) {
  Parsed P = parse(Loop);
  DominatorTree DT(*P.F);
  Block *B1 = blockByName(*P.F, "b1"), *B2 = blockByName(*P.F, "b2");
  Block *B3 = blockByName(*P.F, "b3");
  EXPECT_TRUE(DT.dominates(B1, B2));
  EXPECT_TRUE(DT.dominates(B1, B3));
  EXPECT_FALSE(DT.dominates(B2, B1));
}

TEST(DominatorTreeTest, DominanceFrontierOfDiamond) {
  Parsed P = parse(Diamond);
  DominatorTree DT(*P.F);
  Block *B1 = blockByName(*P.F, "b1"), *B3 = blockByName(*P.F, "b3");
  // DF(b1) = {b3}: b1 reaches the merge it does not dominate.
  ASSERT_EQ(DT.frontier(B1).size(), 1u);
  EXPECT_EQ(DT.frontier(B1)[0], B3);
  // DF(b0) is empty: b0 dominates everything.
  EXPECT_TRUE(DT.frontier(P.F->getEntry()).empty());
}

TEST(DominatorTreeTest, LoopHeaderIsItsOwnFrontier) {
  Parsed P = parse(Loop);
  DominatorTree DT(*P.F);
  Block *B1 = blockByName(*P.F, "b1");
  auto &DF = DT.frontier(B1);
  EXPECT_NE(std::find(DF.begin(), DF.end(), B1), DF.end());
}

TEST(DominatorTreeTest, IteratedFrontier) {
  Parsed P = parse(Diamond);
  DominatorTree DT(*P.F);
  Block *B1 = blockByName(*P.F, "b1"), *B2 = blockByName(*P.F, "b2");
  Block *B3 = blockByName(*P.F, "b3");
  auto IDF = DT.iteratedFrontier({B1, B2});
  ASSERT_EQ(IDF.size(), 1u);
  EXPECT_EQ(IDF[0], B3);
}

TEST(DominatorTreeTest, DominatesUseOrdersWithinBlock) {
  Parsed P = parse(Diamond);
  DominatorTree DT(*P.F);
  Block *B0 = P.F->getEntry();
  // In b0: the compare uses the param; the param does not use the compare.
  Instruction *Param = nullptr, *Cmp = nullptr;
  for (Instruction *I : *B0) {
    if (isa<ParamInst>(I))
      Param = I;
    if (isa<CompareInst>(I))
      Cmp = I;
  }
  ASSERT_TRUE(Param && Cmp);
  EXPECT_TRUE(DT.dominatesUse(Param, Cmp));
  EXPECT_FALSE(DT.dominatesUse(Cmp, Param));
}

TEST(DominatorTreeTest, PhiUseCountsAtPredecessor) {
  Parsed P = parse(Diamond);
  DominatorTree DT(*P.F);
  Block *B3 = blockByName(*P.F, "b3");
  PhiInst *Phi = B3->phis()[0];
  // Both inputs are defined in b0, which dominates both predecessors.
  for (Instruction *In : Phi->operands())
    EXPECT_TRUE(DT.dominatesUse(In, Phi));
}

TEST(DominatorTreeTest, BlockCreatedAfterBuildIsUnreachable) {
  Parsed P = parse(Loop);
  DominatorTree DT(*P.F);
  LoopInfo LI(*P.F, DT);
  // Its id lies past the tables sized when the tree was built.
  Block *Late = P.F->createBlock();
  Late->append(P.F->create<ReturnInst>(nullptr));
  EXPECT_FALSE(DT.isReachable(Late));
  EXPECT_FALSE(LI.isLoopHeader(Late));
  EXPECT_EQ(LI.loopDepth(Late), 0u);
  EXPECT_FALSE(LoopInfo::isHeader(Late, DT));
}

/// A loop whose body holds forwarding blocks (b2, b4, b5, b6) for
/// SimplifyCFG to erase, which leaves holes in the block ids.
const char *LoopWithForwarders = R"(
func @f(int) {
b0:
  %n = param 0
  %z = const 0
  jump b1
b1:
  %i = phi int [%z, b0], [%inext, b7]
  %ci = cmp lt %i, %n
  if %ci, b2, b8 !0.9
b2:
  jump b3
b3:
  %cj = cmp gt %i, %z
  if %cj, b4, b6 !0.5
b4:
  jump b5
b5:
  jump b7
b6:
  jump b7
b7:
  %one = const 1
  %inext = add %i, %one
  jump b1
b8:
  ret %i
}
)";

TEST(DominatorTreeTest, SparseIdsMatchAFreshClone) {
  Parsed P = parse(LoopWithForwarders);
  SimplifyCFG().run(*P.F);
  ASSERT_LT(P.F->getNumBlocks(), P.F->getMaxBlockId()) << "no block erased";
  std::unique_ptr<Function> Clone = P.F->clone();
  ASSERT_EQ(Clone->getMaxBlockId(), Clone->getNumBlocks()); // dense ids

  DominatorTree Sparse(*P.F), Dense(*Clone);
  std::vector<Block *> SB = P.F->blocks(), DB = Clone->blocks();
  ASSERT_EQ(SB.size(), DB.size());
  auto toClone = [&](Block *B) -> Block * {
    if (!B)
      return nullptr;
    return DB[std::find(SB.begin(), SB.end(), B) - SB.begin()];
  };
  for (size_t I = 0; I != SB.size(); ++I) {
    ASSERT_TRUE(Sparse.isReachable(SB[I]));
    ASSERT_TRUE(Dense.isReachable(DB[I]));
    EXPECT_EQ(toClone(Sparse.getIdom(SB[I])), Dense.getIdom(DB[I]))
        << SB[I]->getName();
    for (size_t J = 0; J != SB.size(); ++J)
      EXPECT_EQ(Sparse.dominates(SB[I], SB[J]), Dense.dominates(DB[I], DB[J]))
          << SB[I]->getName() << " / " << SB[J]->getName();
  }
  LoopInfo SparseLI(*P.F, Sparse), DenseLI(*Clone, Dense);
  unsigned Headers = 0;
  for (size_t I = 0; I != SB.size(); ++I) {
    EXPECT_EQ(SparseLI.isLoopHeader(SB[I]), DenseLI.isLoopHeader(DB[I]));
    EXPECT_EQ(SparseLI.loopDepth(SB[I]), DenseLI.loopDepth(DB[I]));
    Headers += SparseLI.isLoopHeader(SB[I]);
  }
  EXPECT_EQ(Headers, 1u);
}

// ---- Loops --------------------------------------------------------------------

TEST(LoopInfoTest, DetectsSingleLoop) {
  Parsed P = parse(Loop);
  DominatorTree DT(*P.F);
  LoopInfo LI(*P.F, DT);
  Block *B1 = blockByName(*P.F, "b1"), *B2 = blockByName(*P.F, "b2");
  Block *B3 = blockByName(*P.F, "b3");
  EXPECT_TRUE(LI.isLoopHeader(B1));
  EXPECT_FALSE(LI.isLoopHeader(B2));
  EXPECT_EQ(LI.loopDepth(B1), 1u);
  EXPECT_EQ(LI.loopDepth(B2), 1u);
  EXPECT_EQ(LI.loopDepth(B3), 0u);
  EXPECT_EQ(LI.loopDepth(P.F->getEntry()), 0u);
  EXPECT_TRUE(LoopInfo::isBackEdge(B2, B1, DT));
  EXPECT_FALSE(LoopInfo::isBackEdge(B1, B2, DT));
  EXPECT_TRUE(LoopInfo::isHeader(B1, DT));
  EXPECT_FALSE(LoopInfo::isHeader(B2, DT));
  EXPECT_FALSE(LoopInfo::isHeader(B3, DT));
}

TEST(LoopInfoTest, NestedLoopDepths) {
  Parsed P = parse(NestedLoop);
  DominatorTree DT(*P.F);
  LoopInfo LI(*P.F, DT);
  EXPECT_EQ(LI.loopDepth(blockByName(*P.F, "b1")), 1u);
  EXPECT_EQ(LI.loopDepth(blockByName(*P.F, "b2")), 2u);
  EXPECT_EQ(LI.loopDepth(blockByName(*P.F, "b3")), 2u);
  EXPECT_EQ(LI.loopDepth(blockByName(*P.F, "b4")), 1u);
  EXPECT_EQ(LI.loopDepth(blockByName(*P.F, "b5")), 0u);
  EXPECT_TRUE(LI.isLoopHeader(blockByName(*P.F, "b1")));
  EXPECT_TRUE(LI.isLoopHeader(blockByName(*P.F, "b2")));
}

TEST(LoopInfoTest, DiamondHasNoLoops) {
  Parsed P = parse(Diamond);
  DominatorTree DT(*P.F);
  LoopInfo LI(*P.F, DT);
  for (Block *B : P.F->blocks()) {
    EXPECT_FALSE(LI.isLoopHeader(B));
    EXPECT_EQ(LI.loopDepth(B), 0u);
  }
}

// ---- BlockFrequency -------------------------------------------------------------

TEST(BlockFrequencyTest, DiamondSplitsByProbability) {
  Parsed P = parse(Diamond); // 0.75 true probability
  DominatorTree DT(*P.F);
  LoopInfo LI(*P.F, DT);
  BlockFrequency BF = BlockFrequency::computeStatic(*P.F, DT, LI);
  EXPECT_DOUBLE_EQ(BF.frequency(P.F->getEntry()), 1.0);
  EXPECT_DOUBLE_EQ(BF.frequency(blockByName(*P.F, "b1")), 0.75);
  EXPECT_DOUBLE_EQ(BF.frequency(blockByName(*P.F, "b2")), 0.25);
  EXPECT_DOUBLE_EQ(BF.frequency(blockByName(*P.F, "b3")), 1.0);
  EXPECT_DOUBLE_EQ(BF.relativeFrequency(blockByName(*P.F, "b2")), 0.25);
}

TEST(BlockFrequencyTest, LoopMultiplierFromStayProbability) {
  Parsed P = parse(Loop); // stay probability 0.9 => ~10 iterations
  DominatorTree DT(*P.F);
  LoopInfo LI(*P.F, DT);
  BlockFrequency BF = BlockFrequency::computeStatic(*P.F, DT, LI);
  EXPECT_NEAR(BF.frequency(blockByName(*P.F, "b1")), 10.0, 1e-9);
  EXPECT_NEAR(BF.frequency(blockByName(*P.F, "b2")), 9.0, 1e-9);
  // Cold exit code is much rarer than the loop body.
  EXPECT_LT(BF.relativeFrequency(blockByName(*P.F, "b3")), 0.2);
}

TEST(BlockFrequencyTest, FromProfileUsesRawCounts) {
  Parsed P = parse(Diamond);
  std::unordered_map<Block *, uint64_t> Counts;
  Counts[P.F->getEntry()] = 100;
  Counts[blockByName(*P.F, "b1")] = 90;
  Counts[blockByName(*P.F, "b2")] = 10;
  BlockFrequency BF = BlockFrequency::fromProfile(Counts);
  EXPECT_DOUBLE_EQ(BF.relativeFrequency(blockByName(*P.F, "b1")), 0.9);
  EXPECT_DOUBLE_EQ(BF.frequency(blockByName(*P.F, "b3")), 0.0); // unseen
}

} // namespace
