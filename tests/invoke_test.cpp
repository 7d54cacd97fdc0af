//===- tests/invoke_test.cpp - Direct calls between module functions ------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

std::unique_ptr<Module> parseOk(const char *Source) {
  ParseResult R = parseModule(Source);
  EXPECT_TRUE(R) << R.Error;
  if (R) {
    for (Function *F : R.Mod->functions())
      EXPECT_EQ(verifyFunction(*F), "");
  }
  return std::move(R.Mod);
}

unsigned countOpcode(Function &F, Opcode Op) {
  unsigned Count = 0;
  for (Block *B : F.blocks())
    for (Instruction *I : *B)
      Count += I->getOpcode() == Op ? 1 : 0;
  return Count;
}

const char *TwoFunctions = R"(
func @double(int) {
b0:
  %x = param 0
  %two = const 2
  %r = mul %x, %two
  ret %r
}

func @main(int) {
b0:
  %a = param 0
  %d = invoke @double(%a)
  %one = const 1
  %r = add %d, %one
  ret %r
}
)";

TEST(InvokeTest, ParsesPrintsAndInterprets) {
  auto M = parseOk(TwoFunctions);
  ASSERT_TRUE(M);
  std::string Printed = printModule(M.get());
  EXPECT_NE(Printed.find("invoke @double("), std::string::npos);

  ParseResult Again = parseModule(Printed);
  ASSERT_TRUE(Again) << Again.Error;

  Interpreter Interp(*M);
  ExecutionResult R =
      Interp.run(*M->getFunction("main"), ArrayRef<int64_t>({10}));
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Result.Scalar, 21);
}

TEST(InvokeTest, RecursionIsBoundedByFuel) {
  auto M = parseOk(R"(
func @loop(int) {
b0:
  %x = param 0
  %r = invoke @loop(%x)
  ret %r
}
)");
  ASSERT_TRUE(M);
  Interpreter Interp(*M);
  ExecutionResult R =
      Interp.run(*M->getFunction("loop"), ArrayRef<int64_t>({1}), 100000);
  EXPECT_FALSE(R.Ok); // depth limit / fuel, not a crash
}

TEST(InvokeTest, CloneAndDuplicationPreserveInvokes) {
  auto M = parseOk(TwoFunctions);
  ASSERT_TRUE(M);
  Function *Main = M->getFunction("main");
  auto Clone = Main->clone();
  EXPECT_EQ(verifyFunction(*Clone), "");
  EXPECT_EQ(countOpcode(*Clone, Opcode::Invoke), 1u);
}

} // namespace
