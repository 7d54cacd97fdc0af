//===- tests/tooling_test.cpp - DotExport, MemoryState, penalty, splitting -===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/DotExport.h"
#include "analysis/Verifier.h"
#include "dbds/FrequencySplitting.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "opts/MemoryState.h"
#include "opts/PartialEscape.h"
#include "vm/Interpreter.h"
#include "workloads/ProgramGenerator.h"

#include "PaperExamples.h"

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

// ---- DotExport -------------------------------------------------------------

TEST(DotExportTest, EmitsAllBlocksAndEdges) {
  Parsed P = parse(paper::Figure1);
  std::string Dot = exportDot(*P.F);
  EXPECT_NE(Dot.find("digraph \"foo\""), std::string::npos);
  for (Block *B : P.F->blocks())
    EXPECT_NE(Dot.find(B->getName() + " ["), std::string::npos);
  EXPECT_NE(Dot.find("b0 -> b1 [label=\"T 0.50\"]"), std::string::npos);
  EXPECT_NE(Dot.find("b1 -> b3"), std::string::npos);
}

TEST(DotExportTest, HighlightsMergesAndOverlaysDomTree) {
  Parsed P = parse(paper::Figure1);
  DotOptions Options;
  Options.ShowDominatorTree = true;
  std::string Dot = exportDot(*P.F, Options);
  EXPECT_NE(Dot.find("fillcolor"), std::string::npos); // the merge
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
}

TEST(DotExportTest, EscapesRecordCharacters) {
  Parsed P = parse(paper::Figure1);
  std::string Dot = exportDot(*P.F);
  // The phi instruction prints '[...]' pairs that need no escaping, but
  // record braces must never appear unescaped inside labels.
  size_t Pos = Dot.find("label=\"");
  ASSERT_NE(Pos, std::string::npos);
  // No raw '{' inside any label (would break record shape).
  for (size_t I = Dot.find("label=\""); I != std::string::npos;
       I = Dot.find("label=\"", I + 1)) {
    size_t End = Dot.find("\"]", I + 7);
    std::string Label = Dot.substr(I + 7, End - I - 7);
    for (size_t C = 0; C != Label.size(); ++C) {
      if (Label[C] == '{' || Label[C] == '}') {
        EXPECT_EQ(Label[C - 1], '\\') << Label;
      }
    }
  }
}

// ---- MemoryState ------------------------------------------------------------

class MemoryStateTest : public ::testing::Test {
protected:
  MemoryStateTest() : F("t", 2, {Type::Obj, Type::Obj}), B(F.createBlock()) {
    IRBuilder Builder(F);
    Builder.setBlock(B);
    A1 = Builder.param(0);
    A2 = Builder.param(1);
    V = F.constant(7);
  }

  Function F;
  Block *B;
  Instruction *A1, *A2, *V;
};

TEST_F(MemoryStateTest, StoreThenLookup) {
  MemoryState S;
  S.recordStore(A1, 0, V);
  EXPECT_EQ(S.lookup(A1, 0), V);
  EXPECT_EQ(S.lookup(A1, 1), nullptr);
  EXPECT_EQ(S.lookup(A2, 0), nullptr);
}

TEST_F(MemoryStateTest, AliasingStoreKillsSameFieldOnly) {
  MemoryState S;
  S.recordStore(A1, 0, V);
  S.recordStore(A1, 1, V);
  S.recordStore(A2, 0, V); // may alias A1 field 0
  EXPECT_EQ(S.lookup(A1, 0), nullptr);
  EXPECT_EQ(S.lookup(A1, 1), V); // different field untouched
  EXPECT_EQ(S.lookup(A2, 0), V);
}

TEST_F(MemoryStateTest, CallKillsNonFresh) {
  MemoryState S;
  S.recordStore(A1, 0, V);
  S.killForCall();
  EXPECT_EQ(S.lookup(A1, 0), nullptr);
}

TEST_F(MemoryStateTest, FreshAllocationIsImmuneToAliasAndCalls) {
  IRBuilder Builder(F);
  Builder.setBlock(B);
  NewInst *Fresh = Builder.newObject(0);
  StoreFieldInst *Init = Builder.store(Fresh, 0, V); // not an escape
  MemoryState S;
  S.recordAllocation(Fresh, 2);
  S.recordEscapes(Init);
  EXPECT_TRUE(S.isFresh(Fresh));
  // Zero-initialized fields are known.
  EXPECT_NE(S.lookup(Fresh, 0), nullptr);
  EXPECT_NE(S.lookup(Fresh, 1), nullptr);
  // A store through a maybe-aliasing object cannot touch it...
  S.recordStore(A1, 0, V);
  EXPECT_NE(S.lookup(Fresh, 0), nullptr);
  // ...nor can an opaque call.
  S.killForCall();
  EXPECT_NE(S.lookup(Fresh, 0), nullptr);
}

// Freshness is path-local: an allocation is fresh from its definition
// until its first escaping use is recorded, not never-fresh because an
// escape exists somewhere in the function.
TEST_F(MemoryStateTest, EscapingAllocationIsNotFresh) {
  IRBuilder Builder(F);
  Builder.setBlock(B);
  NewInst *Escaping = Builder.newObject(0);
  StoreFieldInst *Publish = Builder.store(A1, 0, Escaping); // stored AS VALUE
  EXPECT_TRUE(useEscapesAllocation(Escaping, Publish));
  MemoryState S;
  S.recordAllocation(Escaping, 2);
  EXPECT_TRUE(S.isFresh(Escaping));
  EXPECT_NE(S.lookup(Escaping, 0), nullptr); // zero-init knowledge
  S.recordEscapes(Publish);
  EXPECT_FALSE(S.isFresh(Escaping));
  // The fields are still known at the escape, but an opaque call may now
  // write them.
  EXPECT_NE(S.lookup(Escaping, 0), nullptr);
  S.killForCall();
  EXPECT_EQ(S.lookup(Escaping, 0), nullptr);
}

TEST_F(MemoryStateTest, ClearForgetsEverything) {
  MemoryState S;
  S.recordStore(A1, 0, V);
  S.clear();
  EXPECT_EQ(S.lookup(A1, 0), nullptr);
}

// ---- Interpreter code-size penalty -------------------------------------------

TEST(PenaltyTest, PenaltyScalesWithCodeSize) {
  Parsed P = parse(paper::Figure1);
  Interpreter Plain(*P.Mod);
  Interpreter Penalized(*P.Mod);
  // Figure 1's function is tiny; use a threshold of 0 so every block
  // transition is charged.
  Penalized.enableCodeSizePenalty(/*Threshold=*/0, /*Step=*/1, /*Cap=*/3);
  uint64_t PlainCycles =
      Plain.run(*P.F, ArrayRef<int64_t>({5})).DynamicCycles;
  uint64_t PenalizedCycles =
      Penalized.run(*P.F, ArrayRef<int64_t>({5})).DynamicCycles;
  // 3 blocks executed (entry, branch, merge) at cap 3 each.
  EXPECT_EQ(PenalizedCycles, PlainCycles + 3 * 3);
}

TEST(PenaltyTest, BelowThresholdIsFree) {
  Parsed P = parse(paper::Figure1);
  Interpreter Penalized(*P.Mod);
  Penalized.enableCodeSizePenalty(/*Threshold=*/1u << 20, /*Step=*/64,
                                  /*Cap=*/6);
  Interpreter Plain(*P.Mod);
  EXPECT_EQ(Penalized.run(*P.F, ArrayRef<int64_t>({5})).DynamicCycles,
            Plain.run(*P.F, ArrayRef<int64_t>({5})).DynamicCycles);
}

// ---- Frequency splitting baseline ----------------------------------------------

TEST(FrequencySplittingTest, DuplicatesHotMergesOnly) {
  Parsed P = parse(R"(
func @f(int) {
b0:
  %a = param 0
  %z = const 0
  %c = cmp gt %a, %z
  if %c, b1, b2 !0.95
b1:
  jump b3
b2:
  jump b3
b3:
  %phi = phi int [%a, b1], [%z, b2]
  %one = const 1
  %r = add %phi, %one
  ret %r
}
)");
  SplittingConfig Config;
  Config.ClassTable = P.Mod.get();
  Config.HotThreshold = 0.5;
  SplittingResult R = runFrequencySplitting(*P.F, Config);
  ASSERT_EQ(verifyFunction(*P.F), "");
  // Only the 95% predecessor qualifies.
  EXPECT_EQ(R.Duplications, 1u);
  Interpreter Interp(*P.Mod);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({4})).Result.Scalar, 5);
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<int64_t>({-4})).Result.Scalar, 1);
}

TEST(FrequencySplittingTest, RespectsBudget) {
  Parsed P = parse(paper::Listing1);
  SplittingConfig Config;
  Config.ClassTable = P.Mod.get();
  Config.IncreaseBudget = 1.0; // no growth permitted
  SplittingResult R = runFrequencySplitting(*P.F, Config);
  EXPECT_EQ(R.Duplications, 0u);
}

TEST(FrequencySplittingTest, PreservesSemanticsOnGeneratedPrograms) {
  GeneratorConfig GC;
  GC.Seed = 0x517;
  GC.NumFunctions = 3;
  GeneratedWorkload W = generateWorkload(GC);
  auto Functions = W.Mod->functions();
  for (unsigned FIdx = 0; FIdx != Functions.size(); ++FIdx) {
    Function &F = *Functions[FIdx];
    Interpreter Interp(*W.Mod);
    std::vector<int64_t> Before;
    for (const auto &Args : W.EvalInputs[FIdx]) {
      Interp.reset();
      Before.push_back(Interp.run(F, ArrayRef<int64_t>(Args)).Result.Scalar);
    }
    SplittingConfig Config;
    Config.ClassTable = W.Mod.get();
    runFrequencySplitting(F, Config);
    ASSERT_EQ(verifyFunction(F), "");
    for (unsigned AI = 0; AI != W.EvalInputs[FIdx].size(); ++AI) {
      Interp.reset();
      EXPECT_EQ(Interp.run(F, ArrayRef<int64_t>(W.EvalInputs[FIdx][AI]))
                    .Result.Scalar,
                Before[AI]);
    }
  }
}

} // namespace
