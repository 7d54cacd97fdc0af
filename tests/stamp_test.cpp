//===- tests/stamp_test.cpp - Stamp lattice correctness ---------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit tests plus a sampling-based soundness sweep: for random operand
// ranges, every concrete evaluation must land inside the transfer
// function's result range, every foldCompare verdict must match concrete
// evaluation, and every refineByCompare result must still contain all
// values satisfying the assumed condition. This ties the stamp lattice to
// ir/Semantics.h, the single source of evaluation truth.
//
//===----------------------------------------------------------------------===//

#include "ir/Semantics.h"
#include "analysis/Stamp.h"
#include "analysis/StampMap.h"
#include "ir/Function.h"
#include "ir/Parser.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace dbds;

namespace {

// ---- Unit tests -----------------------------------------------------------

TEST(StampTest, MeetIntersectsRanges) {
  Stamp A = Stamp::range(0, 10);
  Stamp B = Stamp::range(5, 20);
  auto M = A.meet(B);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->lo(), 5);
  EXPECT_EQ(M->hi(), 10);
  EXPECT_FALSE(Stamp::range(0, 3).meet(Stamp::range(5, 9)));
}

TEST(StampTest, JoinUnionsRanges) {
  Stamp J = Stamp::range(0, 3).join(Stamp::range(10, 12));
  EXPECT_EQ(J.lo(), 0);
  EXPECT_EQ(J.hi(), 12);
}

TEST(StampTest, ObjectNullness) {
  EXPECT_TRUE(Stamp::definitelyNull().isNull());
  EXPECT_TRUE(Stamp::nonNull().isNonNull());
  EXPECT_FALSE(Stamp::maybeNull().isNull());
  EXPECT_FALSE(Stamp::definitelyNull().meet(Stamp::nonNull()));
  auto M = Stamp::maybeNull().meet(Stamp::nonNull());
  ASSERT_TRUE(M);
  EXPECT_TRUE(M->isNonNull());
  EXPECT_TRUE(
      Stamp::definitelyNull().join(Stamp::nonNull()) == Stamp::maybeNull());
}

TEST(StampMapTest, InstructionsCreatedAfterFirstQuery) {
  ParseResult R = parseModule(R"(
func @f(int) {
b0:
  %a = param 0
  %three = const 3
  %four = const 4
  %seven = add %three, %four
  ret %seven
}
)");
  ASSERT_TRUE(R) << R.Error;
  Function &F = *R.Mod->functions()[0];
  Instruction *Seven = F.getEntry()->getTerminator()->getOperand(0);
  Instruction *Four = Seven->getOperand(1);

  StampMap SM;
  EXPECT_EQ(*SM.get(Seven).asConstant(), 7);
  // Grow the function well past the ids the first query sized for: a chain
  // of adds, each one's stamp derived from the previous (memoized) one.
  Instruction *Prev = Seven;
  for (int64_t K = 1; K <= 200; ++K) {
    Prev = F.create<BinaryInst>(Opcode::Add, Prev, Four);
    ASSERT_TRUE(SM.get(Prev).asConstant());
    EXPECT_EQ(*SM.get(Prev).asConstant(), 7 + 4 * K);
  }
  Instruction *Hundred = F.constant(100);
  EXPECT_EQ(*SM.get(Hundred).asConstant(), 100);
  Instruction *Late = F.create<BinaryInst>(Opcode::Mul, Hundred, Prev);
  EXPECT_EQ(*SM.get(Late).asConstant(), 100 * (7 + 4 * 200));
  // Entries memoized before the growth are unchanged.
  EXPECT_EQ(*SM.get(Seven).asConstant(), 7);
  for (Instruction *I : *F.getEntry()) {
    if (isa<ParamInst>(I)) {
      EXPECT_TRUE(SM.get(I) == Stamp::top(Type::Int));
    }
  }
}

TEST(StampTest, ExactConstants) {
  EXPECT_EQ(*Stamp::exact(7).asConstant(), 7);
  EXPECT_FALSE(Stamp::range(1, 2).asConstant());
}

TEST(StampTest, AndWithNonNegativeMaskBoundsResult) {
  // The Figure 3 enabling fact: (anything & 1023) is in [0, 1023].
  Stamp Masked =
      binaryStamp(Opcode::And, Stamp::top(Type::Int), Stamp::exact(1023));
  EXPECT_EQ(Masked.lo(), 0);
  EXPECT_EQ(Masked.hi(), 1023);
}

TEST(StampTest, AddSaturatesToTopOnOverflow) {
  Stamp S = binaryStamp(Opcode::Add, Stamp::exact(INT64_MAX),
                        Stamp::exact(INT64_MAX));
  EXPECT_EQ(S.lo(), INT64_MIN);
  EXPECT_EQ(S.hi(), INT64_MAX);
}

TEST(StampTest, CompareFoldsDisjointRanges) {
  EXPECT_EQ(*foldCompare(Predicate::LT, Stamp::range(0, 5),
                         Stamp::range(10, 20)),
            true);
  EXPECT_EQ(*foldCompare(Predicate::GT, Stamp::range(0, 5),
                         Stamp::range(10, 20)),
            false);
  EXPECT_FALSE(
      foldCompare(Predicate::LT, Stamp::range(0, 15), Stamp::range(10, 20)));
  // Listing 1's fold: 13 > 12.
  EXPECT_EQ(*foldCompare(Predicate::GT, Stamp::exact(13), Stamp::exact(12)),
            true);
  // And the true branch: [0,7] > 12 is false.
  EXPECT_EQ(
      *foldCompare(Predicate::GT, Stamp::range(0, 7), Stamp::exact(12)),
      false);
}

TEST(StampTest, RefineByCompareNarrows) {
  // Assume x > 0 on top: x in [1, max].
  auto R = refineByCompare(Predicate::GT, Stamp::top(Type::Int),
                           Stamp::exact(0), /*Holds=*/true);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->lo(), 1);
  // Assume x > 0 is false: x in [min, 0].
  auto NR = refineByCompare(Predicate::GT, Stamp::top(Type::Int),
                            Stamp::exact(0), /*Holds=*/false);
  ASSERT_TRUE(NR);
  EXPECT_EQ(NR->hi(), 0);
  // Contradiction: x in [5,9] assumed < 2.
  EXPECT_FALSE(refineByCompare(Predicate::LT, Stamp::range(5, 9),
                               Stamp::exact(2), true));
}

TEST(StampTest, RefineObjectNullness) {
  auto R = refineByCompare(Predicate::EQ, Stamp::maybeNull(),
                           Stamp::definitelyNull(), true);
  ASSERT_TRUE(R);
  EXPECT_TRUE(R->isNull());
  auto NR = refineByCompare(Predicate::EQ, Stamp::maybeNull(),
                            Stamp::definitelyNull(), false);
  ASSERT_TRUE(NR);
  EXPECT_TRUE(NR->isNonNull());
}

// ---- Sampling soundness sweep ----------------------------------------------

struct OpParam {
  Opcode Op;
  friend std::ostream &operator<<(std::ostream &OS, const OpParam &P) {
    return OS << opcodeMnemonic(P.Op);
  }
};

class StampSoundness : public ::testing::TestWithParam<OpParam> {};

int64_t sampleIn(RNG &R, int64_t Lo, int64_t Hi) {
  // Bias toward the endpoints, where transfer-function bugs live.
  switch (R.nextBelow(4)) {
  case 0:
    return Lo;
  case 1:
    return Hi;
  default:
    return R.nextRange(Lo, Hi);
  }
}

Stamp randomRange(RNG &R) {
  // Mix small ranges, wide ranges, and extreme ranges.
  switch (R.nextBelow(5)) {
  case 0:
    return Stamp::exact(R.nextRange(-100, 100));
  case 1: {
    int64_t Lo = R.nextRange(-1000, 1000);
    return Stamp::range(Lo, Lo + R.nextRange(0, 50));
  }
  case 2:
    return Stamp::range(INT64_MIN, R.nextRange(-5, 5));
  case 3:
    return Stamp::range(R.nextRange(-5, 5), INT64_MAX);
  default:
    return Stamp::top(Type::Int);
  }
}

TEST_P(StampSoundness, BinaryTransferContainsAllResults) {
  Opcode Op = GetParam().Op;
  RNG R(static_cast<uint64_t>(Op) * 7919 + 1);
  for (int Trial = 0; Trial != 300; ++Trial) {
    Stamp LHS = randomRange(R), RHS = randomRange(R);
    Stamp Result = binaryStamp(Op, LHS, RHS);
    for (int Sample = 0; Sample != 8; ++Sample) {
      int64_t A = sampleIn(R, LHS.lo(), LHS.hi());
      int64_t B = sampleIn(R, RHS.lo(), RHS.hi());
      int64_t V = evalBinary(Op, A, B);
      ASSERT_GE(V, Result.lo())
          << opcodeMnemonic(Op) << "(" << A << ", " << B << ")";
      ASSERT_LE(V, Result.hi())
          << opcodeMnemonic(Op) << "(" << A << ", " << B << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaryOps, StampSoundness,
    ::testing::Values(OpParam{Opcode::Add}, OpParam{Opcode::Sub},
                      OpParam{Opcode::Mul}, OpParam{Opcode::Div},
                      OpParam{Opcode::Rem}, OpParam{Opcode::And},
                      OpParam{Opcode::Or}, OpParam{Opcode::Xor},
                      OpParam{Opcode::Shl}, OpParam{Opcode::Shr}),
    [](const ::testing::TestParamInfo<OpParam> &Info) {
      return opcodeMnemonic(Info.param.Op);
    });

struct PredParam {
  Predicate Pred;
};

class CompareSoundness : public ::testing::TestWithParam<PredParam> {};

TEST_P(CompareSoundness, FoldAndRefineAgreeWithEvaluation) {
  Predicate Pred = GetParam().Pred;
  RNG R(static_cast<uint64_t>(Pred) * 104729 + 3);
  for (int Trial = 0; Trial != 400; ++Trial) {
    Stamp LHS = randomRange(R), RHS = randomRange(R);
    auto Folded = foldCompare(Pred, LHS, RHS);
    for (int Sample = 0; Sample != 8; ++Sample) {
      int64_t A = sampleIn(R, LHS.lo(), LHS.hi());
      int64_t B = sampleIn(R, RHS.lo(), RHS.hi());
      bool Concrete = evalCompare(Pred, A, B) != 0;
      if (Folded) {
        ASSERT_EQ(Concrete, *Folded)
            << predicateName(Pred) << "(" << A << ", " << B << ")";
      }
      // Refinement soundness: if the condition holds for (A, B), A must
      // be inside the refined stamp of the LHS.
      if (Concrete) {
        auto Refined = refineByCompare(Pred, LHS, RHS, true);
        ASSERT_TRUE(Refined);
        ASSERT_GE(A, Refined->lo());
        ASSERT_LE(A, Refined->hi());
      } else {
        auto Refined = refineByCompare(Pred, LHS, RHS, false);
        ASSERT_TRUE(Refined);
        ASSERT_GE(A, Refined->lo());
        ASSERT_LE(A, Refined->hi());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPredicates, CompareSoundness,
    ::testing::Values(PredParam{Predicate::EQ}, PredParam{Predicate::NE},
                      PredParam{Predicate::LT}, PredParam{Predicate::LE},
                      PredParam{Predicate::GT}, PredParam{Predicate::GE}),
    [](const ::testing::TestParamInfo<PredParam> &Info) {
      return predicateName(Info.param.Pred);
    });

TEST(StampSoundnessTest, UnaryTransferContainsAllResults) {
  RNG R(11);
  for (Opcode Op : {Opcode::Neg, Opcode::Not}) {
    for (int Trial = 0; Trial != 500; ++Trial) {
      Stamp In = randomRange(R);
      Stamp Result = unaryStamp(Op, In);
      int64_t A = sampleIn(R, In.lo(), In.hi());
      int64_t V = evalUnary(Op, A);
      ASSERT_GE(V, Result.lo()) << opcodeMnemonic(Op) << "(" << A << ")";
      ASSERT_LE(V, Result.hi()) << opcodeMnemonic(Op) << "(" << A << ")";
    }
  }
}

} // namespace
