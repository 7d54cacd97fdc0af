//===- tests/frontend_test.cpp - Bytecode assembler and translator ----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "dbds/DBDSPhase.h"
#include "frontend/Translator.h"
#include "opts/Phase.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

/// Assembles + translates, expecting success; returns the IR module.
std::unique_ptr<Module> compile(const std::string &Source) {
  BcParseResult BC = assembleBytecode(Source);
  EXPECT_TRUE(BC) << BC.Error;
  if (!BC)
    return nullptr;
  TranslationResult IR = translateBytecode(*BC.Mod);
  EXPECT_TRUE(IR) << IR.Error;
  if (!IR)
    return nullptr;
  for (Function *F : IR.Mod->functions())
    EXPECT_EQ(verifyFunction(*F), "");
  return std::move(IR.Mod);
}

int64_t runInt(Module &M, const char *Name, ArrayRef<int64_t> Args) {
  Interpreter Interp(M);
  ExecutionResult R = Interp.run(*M.getFunction(Name), Args);
  EXPECT_TRUE(R.Ok);
  return R.Result.Scalar;
}

TEST(BytecodeAssemblerTest, RoundTripsThroughDisassembler) {
  const char *Source = R"(
bcfunc @abs(1) {
  load 0
  iconst 0
  cmp lt
  brtrue Lneg
  load 0
  ret
Lneg:
  iconst 0
  load 0
  sub
  ret
}
)";
  BcParseResult BC = assembleBytecode(Source);
  ASSERT_TRUE(BC) << BC.Error;
  ASSERT_EQ(BC.Mod->Functions.size(), 1u);
  std::string Text = disassemble(BC.Mod->Functions[0]);
  BcParseResult Again = assembleBytecode(Text);
  ASSERT_TRUE(Again) << Again.Error << "\nfrom:\n" << Text;
  EXPECT_EQ(disassemble(Again.Mod->Functions[0]), Text);
}

TEST(BytecodeAssemblerTest, ReportsErrors) {
  EXPECT_FALSE(assembleBytecode("bcfunc @f(0) {\n  bogus\n}\n"));
  EXPECT_FALSE(assembleBytecode("bcfunc @f(0) {\n  goto Nowhere\n}\n"));
  EXPECT_FALSE(assembleBytecode("bcfunc @f(0) {\n  ret\n")); // missing }
  EXPECT_FALSE(assembleBytecode("bcfunc @f(2) locals=1 {\n  ret\n}\n"));
  EXPECT_FALSE(assembleBytecode("bcfunc @f(0) {\n  cmp zz\n}\n"));
  EXPECT_FALSE(
      assembleBytecode("bcfunc @f(0) {\nL:\nL:\n  retvoid\n}\n")); // dup label
}

TEST(TranslatorTest, StraightLineArithmetic) {
  auto M = compile(R"(
bcfunc @f(2) {
  load 0
  load 1
  add
  iconst 3
  mul
  ret
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runInt(*M, "f", {4, 5}), 27);
}

TEST(TranslatorTest, AbsWithBranches) {
  auto M = compile(R"(
bcfunc @abs(1) {
  load 0
  iconst 0
  cmp lt
  brtrue Lneg
  load 0
  ret
Lneg:
  iconst 0
  load 0
  sub
  ret
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runInt(*M, "abs", {7}), 7);
  EXPECT_EQ(runInt(*M, "abs", {-7}), 7);
  EXPECT_EQ(runInt(*M, "abs", {0}), 0);
}

TEST(TranslatorTest, LoopWithLocals) {
  // sum of 0..n-1 via a counting loop: exercises loop phis for locals.
  auto M = compile(R"(
bcfunc @sum(1) locals=3 {
  iconst 0
  store 1
  iconst 0
  store 2
Lhead:
  load 1
  load 0
  cmp lt
  brfalse Ldone
  load 2
  load 1
  add
  store 2
  load 1
  iconst 1
  add
  store 1
  goto Lhead
Ldone:
  load 2
  ret
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runInt(*M, "sum", {10}), 45);
  EXPECT_EQ(runInt(*M, "sum", {0}), 0);
  EXPECT_EQ(runInt(*M, "sum", {1}), 0);
}

TEST(TranslatorTest, StackValuesFlowAcrossBranches) {
  // A value left on the stack across a join becomes a stack phi.
  auto M = compile(R"(
bcfunc @pick(2) {
  load 0
  load 1
  load 0
  iconst 0
  cmp gt
  brtrue Lkeep
  swap
Lkeep:
  pop
  ret
}
)");
  ASSERT_TRUE(M);
  // a > 0: stack (a, b) -> pop b -> return a... after swap logic:
  // a > 0 keeps (a, b), pops b, returns a. a <= 0 swaps to (b, a), pops
  // a, returns b.
  EXPECT_EQ(runInt(*M, "pick", {5, 9}), 5);
  EXPECT_EQ(runInt(*M, "pick", {-5, 9}), 9);
}

TEST(TranslatorTest, ObjectsAndFields) {
  auto M = compile(R"(
class 2

bcfunc @boxed(1) locals=2 {
  new 0
  store 1
  load 1
  load 0
  putfield 0
  load 1
  getfield 0
  iconst 1
  add
  ret
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runInt(*M, "boxed", {41}), 42);
}

TEST(TranslatorTest, DupPopSwapAndCalls) {
  auto M = compile(R"(
bcfunc @f(1) {
  load 0
  dup
  mul
  load 0
  call 3 2
  ret
}
)");
  ASSERT_TRUE(M);
  // call 3 with (x*x, x): just check determinism and success.
  int64_t R1 = runInt(*M, "f", {6});
  auto M2 = compile(R"(
bcfunc @f(1) {
  load 0
  dup
  mul
  load 0
  call 3 2
  ret
}
)");
  EXPECT_EQ(runInt(*M2, "f", {6}), R1);
}

TEST(TranslatorTest, RejectsMalformedBytecode) {
  auto expectError = [](const char *Source) {
    BcParseResult BC = assembleBytecode(Source);
    ASSERT_TRUE(BC) << BC.Error;
    TranslationResult IR = translateBytecode(*BC.Mod);
    EXPECT_FALSE(IR) << "expected a translation error";
  };
  // Stack underflow.
  expectError("bcfunc @f(0) {\n  add\n  retvoid\n}\n");
  // Falls off the end.
  expectError("bcfunc @f(1) {\n  load 0\n  pop\n}\n");
  // Inconsistent stack depth at a join.
  expectError(R"(
bcfunc @f(1) {
  load 0
  brtrue Ldeep
  goto Ljoin
Ldeep:
  iconst 1
  iconst 2
Ljoin:
  retvoid
}
)");
  // Arithmetic on a reference.
  expectError("class 1\nbcfunc @f(0) {\n  new 0\n  iconst 1\n  add\n  "
              "retvoid\n}\n");
}

TEST(TranslatorTest, FullJitPipelineBytecodeToOptimizedIR) {
  // The paper's Figure 1 written as bytecode, through the whole "JIT":
  // assemble -> translate -> profile -> DBDS -> execute.
  auto M = compile(R"(
bcfunc @foo(1) locals=2 {
  load 0
  iconst 0
  cmp gt
  brfalse Lelse
  load 0
  store 1
  goto Lmerge
Lelse:
  iconst 0
  store 1
Lmerge:
  iconst 2
  load 1
  add
  ret
}
)");
  ASSERT_TRUE(M);
  Function *F = M->getFunction("foo");
  ASSERT_NE(F, nullptr);

  Interpreter Interp(*M);
  ProfileSummary Profile;
  for (int64_t X : {5, -3, 8, -1})
    Interp.run(*F, ArrayRef<int64_t>({X}), 1u << 20, &Profile);
  applyProfile(*F, Profile);

  PhaseManager PM = PhaseManager::standardPipeline(true, M.get());
  PM.run(*F);
  DBDSConfig Config;
  Config.ClassTable = M.get();
  DBDSResult R = runDBDS(*F, Config);
  EXPECT_GE(R.DuplicationsPerformed, 1u);
  ASSERT_EQ(verifyFunction(*F), "");

  EXPECT_EQ(runInt(*M, "foo", {5}), 7);
  EXPECT_EQ(runInt(*M, "foo", {-3}), 2);
}

TEST(BytecodeAssemblerTest, InvokeRoundTrips) {
  const char *Source = "bcfunc @f(1) {\n  load 0\n  invoke @g 1\n  ret\n}\n";
  BcParseResult BC = assembleBytecode(Source);
  ASSERT_TRUE(BC) << BC.Error;
  std::string Text = disassemble(BC.Mod->Functions[0]);
  EXPECT_NE(Text.find("invoke @g 1"), std::string::npos);
  BcParseResult Again = assembleBytecode(Text);
  ASSERT_TRUE(Again) << Again.Error;
  EXPECT_EQ(disassemble(Again.Mod->Functions[0]), Text);
}

} // namespace
