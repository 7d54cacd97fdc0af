//===- tests/pea_test.cpp - Partial escape analysis + scalar replacement ---===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The §5.2 story end to end: escape-classification units, read
// elimination's path-local freshness feeding PEA (flow- and branch-
// sensitive load forwarding, then scalar replacement), lazy
// materialization, simulator pricing that matches the delivery, the
// paper-example regression (Listing 3 is scalar-replaced only once DBDS
// removes the merge), and the --jobs determinism contract for the
// PEA-bearing pipeline.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"
#include "analysis/Loops.h"
#include "analysis/SimAudit.h"
#include "analysis/Verifier.h"
#include "dbds/DBDSPhase.h"
#include "dbds/Duplicator.h"
#include "dbds/Simulator.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/PartialEscape.h"
#include "opts/Phase.h"
#include "telemetry/DecisionLog.h"
#include "vm/Interpreter.h"
#include "workloads/CompileService.h"
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

unsigned countOpcode(Function &F, Opcode Op) {
  unsigned Count = 0;
  for (Block *B : F.blocks())
    for (Instruction *I : *B)
      Count += I->getOpcode() == Op ? 1 : 0;
  return Count;
}

unsigned countOpcode(Block *B, Opcode Op) {
  unsigned Count = 0;
  for (Instruction *I : *B)
    Count += I->getOpcode() == Op ? 1 : 0;
  return Count;
}

NewInst *findNew(Function &F) {
  for (Block *B : F.blocks())
    for (Instruction *I : *B)
      if (auto *New = dyn_cast<NewInst>(I))
        return New;
  return nullptr;
}

Instruction *findFirst(Function &F, Opcode Op) {
  for (Block *B : F.blocks())
    for (Instruction *I : *B)
      if (I->getOpcode() == Op)
        return I;
  return nullptr;
}

/// escapeFate for the one allocation of \p P, asked the way the Simulator
/// asks it (merge phi dropped) or the way the phase does (nothing dropped).
EscapeFate fateOf(Parsed &P, bool DropPhi) {
  DominatorTree DT(*P.F);
  LoopInfo LI(*P.F, DT);
  return escapeFate(findNew(*P.F), DT, LI,
                    DropPhi ? findFirst(*P.F, Opcode::Phi) : nullptr);
}

/// The pipeline slice PEA runs in: read elimination forwards the loads of
/// allocations not yet escaped on the path, then PEA decides each
/// allocation's fate.
bool runReadEliminationThenPEA(Parsed &P, PartialEscapeStats &Stats) {
  bool Changed = ReadElimination(P.Mod.get()).run(*P.F);
  return PartialEscapePhase().run(*P.F, Stats) || Changed;
}

// ---- Escape classification ----------------------------------------------

// Every use kind in one function: field load and initializer store do not
// escape; call, invoke, return, and value-position store do.
const char *EveryUseKind = R"(
class A 1

func @esc(obj, int) {
b0:
  %a = param 0
  %x = param 1
  %new = new 0
  store %new, 0, %x
  %f = load %new, 0
  store %a, 0, %new
  %r = call 1(%new)
  %i = invoke @esc(%new, %x)
  ret %new
}
)";

TEST(EscapePredicateTest, ClassifiesEveryUseKind) {
  Parsed P = parse(EveryUseKind);
  NewInst *New = findNew(*P.F);
  ASSERT_NE(New, nullptr);

  auto *InitStore = cast<StoreFieldInst>(findFirst(*P.F, Opcode::StoreField));
  EXPECT_FALSE(useEscapesAllocation(New, InitStore));
  EXPECT_FALSE(useEscapesAllocation(New, findFirst(*P.F, Opcode::LoadField)));
  EXPECT_TRUE(useEscapesAllocation(New, findFirst(*P.F, Opcode::Call)));
  EXPECT_TRUE(useEscapesAllocation(New, findFirst(*P.F, Opcode::Invoke)));
  EXPECT_TRUE(useEscapesAllocation(New, findFirst(*P.F, Opcode::Return)));

  // Value-position store: publishing the object through another object.
  StoreFieldInst *ValueStore = nullptr;
  for (Instruction *User : New->users())
    if (auto *S = dyn_cast<StoreFieldInst>(User); S && S->getValue() == New)
      ValueStore = S;
  ASSERT_NE(ValueStore, nullptr);
  EXPECT_TRUE(useEscapesAllocation(New, ValueStore));

  EXPECT_EQ(fateOf(P, /*DropPhi=*/false).K, EscapeFate::Stays);
}

TEST(EscapePredicateTest, PhiForwardingEscapes) {
  Parsed P = parse(paper::Listing3);
  NewInst *New = findNew(*P.F);
  ASSERT_NE(New, nullptr);
  Instruction *Phi = findFirst(*P.F, Opcode::Phi);
  ASSERT_NE(Phi, nullptr);
  EXPECT_TRUE(useEscapesAllocation(New, Phi));
  EXPECT_EQ(fateOf(P, /*DropPhi=*/false).K, EscapeFate::Stays);

  // Seen through the simulator's synonym map (the phi resolved to its
  // input on b1's edge), the merge's load reads a field of the allocation
  // and does not escape it.
  Instruction *Load = findFirst(*P.F, Opcode::LoadField);
  auto ThroughPhi = [&](Instruction *V) -> Instruction * {
    return V == Phi ? New : V;
  };
  EXPECT_TRUE(useEscapesAllocation(New, Load));
  EXPECT_FALSE(useEscapesAllocation(New, Load, ThroughPhi));
}

TEST(EscapePredicateTest, PureAccessorUsesDoNotEscape) {
  Parsed P = parse(R"(
class A 1

func @pure(int) {
b0:
  %x = param 0
  %new = new 0
  store %new, 0, %x
  %f = load %new, 0
  ret %f
}
)");
  ASSERT_NE(findNew(*P.F), nullptr);
  EXPECT_EQ(fateOf(P, /*DropPhi=*/false).K, EscapeFate::Dies);
}

// ---- Read elimination + PEA ---------------------------------------------

TEST(PartialEscapePhaseTest, ScalarReplacesNeverEscapingAllocation) {
  Parsed P = parse(R"(
class A 1

func @scalar(int) {
b0:
  %x = param 0
  %new = new 0
  store %new, 0, %x
  %f = load %new, 0
  ret %f
}
)");
  PartialEscapeStats Stats;
  EXPECT_TRUE(runReadEliminationThenPEA(P, Stats));
  EXPECT_EQ(verifyFunction(*P.F), "");

  EXPECT_EQ(Stats.AllocationsTracked, 1u);
  EXPECT_EQ(Stats.StoresEliminated, 1u);
  EXPECT_EQ(Stats.AllocsScalarReplaced, 1u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 0u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::StoreField), 0u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 0u);

  Interpreter Interp(*P.Mod);
  RuntimeValue Args[1] = {RuntimeValue::ofInt(42)};
  ExecutionResult E = Interp.run(*P.F, ArrayRef<RuntimeValue>(Args, 1));
  ASSERT_TRUE(E.Ok);
  EXPECT_EQ(E.Result.Scalar, 42);
}

// An allocation kept alive only by its initializing stores dies with them
// (paper Listing 3/4 after duplication).
TEST(PartialEscapePhaseTest, ScalarReplacesStoreOnlyAllocation) {
  Parsed P = parse(R"(
class A 2

func @f(int) {
b0:
  %v = param 0
  %o = new 0
  store %o, 0, %v
  store %o, 1, %v
  ret %v
}
)");
  PartialEscapeStats Stats;
  PartialEscapePhase Phase;
  EXPECT_TRUE(Phase.run(*P.F, Stats));
  ASSERT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(Stats.AllocsScalarReplaced, 1u);
  EXPECT_EQ(Stats.StoresEliminated, 2u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 0u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::StoreField), 0u);
}

TEST(PartialEscapePhaseTest, UnwrittenFieldForwardsAsZero) {
  Parsed P = parse(R"(
class A 1

func @zero() {
b0:
  %new = new 0
  %f = load %new, 0
  ret %f
}
)");
  PartialEscapeStats Stats;
  EXPECT_TRUE(runReadEliminationThenPEA(P, Stats));
  EXPECT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 0u);
  EXPECT_EQ(Stats.AllocsScalarReplaced, 1u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 0u);

  Interpreter Interp(*P.Mod);
  ExecutionResult E = Interp.run(*P.F, ArrayRef<RuntimeValue>());
  ASSERT_TRUE(E.Ok);
  EXPECT_EQ(E.Result.Scalar, 0);
}

// Branch sensitivity: an escape on one branch must not poison the
// sibling. The b2 load forwards; the b1 load sits after the call escape
// on its own path and must survive.
TEST(PartialEscapePhaseTest, BranchEscapeDoesNotPoisonSibling) {
  Parsed P = parse(R"(
class A 1

func @branch(int) {
b0:
  %x = param 0
  %new = new 0
  store %new, 0, %x
  %zero = const 0
  %c = cmp gt %x, %zero
  if %c, b1, b2 !0.5
b1:
  %r = call 1(%new)
  %f1 = load %new, 0
  ret %f1
b2:
  %f2 = load %new, 0
  ret %f2
}
)");
  PartialEscapeStats Stats;
  EXPECT_TRUE(runReadEliminationThenPEA(P, Stats));
  EXPECT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 1u);
  // The survivor is b1's, after the call.
  EXPECT_EQ(countOpcode(findFirst(*P.F, Opcode::Call)->getBlock(),
                        Opcode::LoadField),
            1u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 1u);
}

// Flow sensitivity within one block: a load before the escape forwards,
// the same load after it does not.
TEST(PartialEscapePhaseTest, LoadForwardsUntilFirstEscapeOnThePath) {
  Parsed P = parse(R"(
class A 1

func @flow(int) {
b0:
  %x = param 0
  %new = new 0
  store %new, 0, %x
  %before = load %new, 0
  %r = call 1(%new)
  %after = load %new, 0
  %s = add %before, %after
  ret %s
}
)");
  PartialEscapeStats Stats;
  EXPECT_TRUE(runReadEliminationThenPEA(P, Stats));
  EXPECT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::LoadField), 1u);
  // The survivor is %after: the load past the call.
  Block *Entry = P.F->getEntry();
  EXPECT_GT(Entry->indexOf(findFirst(*P.F, Opcode::LoadField)),
            Entry->indexOf(findFirst(*P.F, Opcode::Call)));
}

// Lazy materialization: every escape confined to one strictly dominated
// loop-free block moves the allocation (and its initializers) there, so
// the sibling path never allocates.
TEST(PartialEscapePhaseTest, SinksAllocationIntoItsOnlyEscapeBlock) {
  Parsed P = parse(R"(
class A 1

func @sink(int) {
b0:
  %x = param 0
  %new = new 0
  store %new, 0, %x
  %zero = const 0
  %c = cmp gt %x, %zero
  if %c, b1, b2 !0.5
b1:
  %r = call 1(%new)
  jump b3
b2:
  jump b3
b3:
  %y = phi int [%r, b1], [%zero, b2]
  ret %y
}
)");
  PartialEscapeStats Stats;
  PartialEscapePhase Phase;
  EXPECT_TRUE(Phase.run(*P.F, Stats));
  EXPECT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(Stats.AllocsSunk, 1u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 1u);
  // The entry (the hot shared prefix) no longer allocates or initializes.
  EXPECT_EQ(countOpcode(P.F->getEntry(), Opcode::New), 0u);
  EXPECT_EQ(countOpcode(P.F->getEntry(), Opcode::StoreField), 0u);
}

TEST(PartialEscapePhaseTest, DoesNotSinkIntoALoop) {
  Parsed P = parse(R"(
class A 1

func @loopneg(int) {
b0:
  %x = param 0
  %new = new 0
  store %new, 0, %x
  %one = const 1
  %zero = const 0
  jump b1
b1:
  %i = phi int [%x, b0], [%dec, b1]
  %r = call 1(%new)
  %dec = sub %i, %one
  %c = cmp gt %dec, %zero
  if %c, b1, b2 !0.9
b2:
  ret %r
}
)");
  PartialEscapeStats Stats;
  PartialEscapePhase Phase;
  Phase.run(*P.F, Stats);
  EXPECT_EQ(verifyFunction(*P.F), "");
  // Re-allocating per iteration would change semantics and cost; the
  // allocation stays at its loop-free home.
  EXPECT_EQ(Stats.AllocsSunk, 0u);
  EXPECT_EQ(countOpcode(P.F->getEntry(), Opcode::New), 1u);
}

TEST(PartialEscapePhaseTest, DoesNotSinkAcrossAPhiUse) {
  Parsed P = parse(paper::Listing3);
  PartialEscapeStats Stats;
  PartialEscapePhase Phase;
  Phase.run(*P.F, Stats);
  EXPECT_EQ(verifyFunction(*P.F), "");
  // The phi use lives on the incoming edge, not in a sinkable block.
  EXPECT_EQ(Stats.AllocsSunk, 0u);
  EXPECT_EQ(Stats.AllocsScalarReplaced, 0u);
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 1u);
}

// ---- Simulation pricing (§5.2) ------------------------------------------

// The partial-escape shape: the allocation escapes through the merge phi
// AND retains one residual escape in a dominated block. Removing the phi
// by duplication does not fully un-escape it, but it does unlock lazy
// materialization — the Simulator prices that as a PartialEscapes
// opportunity, distinct from the full AllocationSinks credit.
const char *PartialEscapeShape = R"(
class A 1

func @partial(obj, int) {
b0:
  %a = param 0
  %x = param 1
  %new = new 0
  store %new, 0, %x
  %null = const null
  %c = cmp eq %a, %null
  if %c, b1, b2 !0.5
b1:
  %r = call 1(%new)
  jump b3
b2:
  jump b3
b3:
  %p = phi obj [%new, b1], [%a, b2]
  ret %p
}
)";

TEST(SimulatorPEATest, Listing3PricesTheFullUnescape) {
  Parsed P = parse(paper::Listing3);
  SimulationStats Stats;
  simulateDuplications(*P.F, P.Mod.get(), &Stats);
  EXPECT_GE(Stats.Opportunities.AllocationSinks, 1u);
  EXPECT_EQ(Stats.Opportunities.PartialEscapes, 0u);
}

TEST(SimulatorPEATest, ResidualEscapePricesAsPartialEscape) {
  Parsed P = parse(PartialEscapeShape);
  SimulationStats Stats;
  simulateDuplications(*P.F, P.Mod.get(), &Stats);
  EXPECT_GE(Stats.Opportunities.PartialEscapes, 1u);
  EXPECT_EQ(Stats.Opportunities.AllocationSinks, 0u);
}

// Price = delivery for field facts: the merge reads a never-written field
// of the allocation flowing in from b1, before the call that lets it
// escape. The simulator prices that load on the b1 -> b3 pair; after the
// duplication, read elimination in the standard pipeline removes it.
TEST(SimulatorPEATest, UnwrittenFieldLoadPricedAndDelivered) {
  const char *Source = R"(
class A 2

func @zeroload(obj, int) {
b0:
  %a = param 0
  %x = param 1
  %zero = const 0
  %c = cmp gt %x, %zero
  if %c, b1, b2 !0.5
b1:
  %new = new 0
  jump b3
b2:
  jump b3
b3:
  %p = phi obj [%new, b1], [%a, b2]
  %f = load %p, 1
  %r = call 1(%p)
  %s = add %f, %r
  ret %s
}
)";
  Parsed P = parse(Source);
  SimulationStats Stats;
  std::vector<DuplicationCandidate> Candidates =
      simulateDuplications(*P.F, P.Mod.get(), &Stats);
  Block *Alloc = findNew(*P.F)->getBlock();
  Block *Merge = findFirst(*P.F, Opcode::Phi)->getBlock();
  bool Priced = false;
  for (const DuplicationCandidate &C : Candidates)
    if (C.PredId == Alloc->getId() && C.MergeId == Merge->getId())
      Priced = C.Opportunities.ReadEliminations == 1;
  EXPECT_TRUE(Priced);
  EXPECT_EQ(Stats.Opportunities.ReadEliminations, 1u);

  auto Run = [](Parsed &Q, int64_t X) {
    Interpreter Interp(*Q.Mod);
    RuntimeValue Args[2] = {Interp.allocate(0), RuntimeValue::ofInt(X)};
    return Interp.run(*Q.F, ArrayRef<RuntimeValue>(Args, 2)).Result.Scalar;
  };
  Parsed Reference = parse(Source);

  duplicateIntoPredecessor(*P.F, Merge, Alloc);
  PhaseManager PM =
      PhaseManager::standardPipeline(/*Verify=*/true, P.Mod.get());
  PM.run(*P.F);
  ASSERT_EQ(verifyFunction(*P.F), "");
  // Only b2's load of the caller's object is left.
  ASSERT_EQ(countOpcode(*P.F, Opcode::LoadField), 1u);
  EXPECT_FALSE(isa<NewInst>(
      cast<LoadFieldInst>(findFirst(*P.F, Opcode::LoadField))->getObject()));
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 1u); // still escapes to the call
  for (int64_t X : {5, -5})
    EXPECT_EQ(Run(P, X), Run(Reference, X)) << "x = " << X;
}

// ---- §5.2 paper-example regression --------------------------------------

TEST(PEARegressionTest, Listing3ScalarReplacedOnlyUnderDBDS) {
  // The cleanup pipeline alone (which includes PEA) cannot remove the
  // allocation: it escapes into the merge phi.
  Parsed Baseline = parse(paper::Listing3);
  PhaseManager PM =
      PhaseManager::standardPipeline(/*Verify=*/true, Baseline.Mod.get());
  PM.run(*Baseline.F);
  EXPECT_EQ(verifyFunction(*Baseline.F), "");
  EXPECT_EQ(countOpcode(*Baseline.F, Opcode::New), 1u);

  // The price: once duplication drops the phi, the allocation dies.
  Parsed P = parse(paper::Listing3);
  EXPECT_EQ(fateOf(P, /*DropPhi=*/false).K, EscapeFate::Stays);
  EXPECT_EQ(fateOf(P, /*DropPhi=*/true).K, EscapeFate::Dies);

  // The delivery: DBDS duplicates the merge away; PEA scalar-replaces.
  DecisionLog Log;
  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  Config.Decisions = &Log;
  runDBDS(*P.F, Config);
  EXPECT_EQ(verifyFunction(*P.F), "");
  EXPECT_EQ(countOpcode(*P.F, Opcode::New), 0u);

  // The remarks stream shows an accepted decision that priced the
  // un-escape.
  bool SawEscapeOpportunity = false;
  for (const DuplicationDecision &D : Log.decisions())
    if (D.Verdict == DecisionVerdict::Accepted &&
        D.Opportunities.AllocationSinks + D.Opportunities.PartialEscapes > 0)
      SawEscapeOpportunity = true;
  EXPECT_TRUE(SawEscapeOpportunity);

  // SimAudit replays the decisions against the shipped IR: every
  // prediction held (precision) and nothing provable was missed (recall).
  SimAuditCounts Counts = auditSimulation(*P.F, Log);
  EXPECT_TRUE(Counts.Ran);
  EXPECT_EQ(Counts.precision(), 1.0);
  EXPECT_EQ(Counts.recall(), 1.0);

  // Semantics: both the null path (42 from the virtualized object) and
  // the preallocated path (99 from the caller's object) still hold.
  Interpreter Interp(*P.Mod);
  RuntimeValue Args[2] = {RuntimeValue::null(), RuntimeValue::ofInt(42)};
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<RuntimeValue>(Args, 2)).Result.Scalar,
            42);
  Interp.reset();
  RuntimeValue Obj = Interp.allocate(0);
  Interp.writeField(Obj, 0, 99);
  RuntimeValue Args2[2] = {Obj, RuntimeValue::ofInt(1)};
  EXPECT_EQ(Interp.run(*P.F, ArrayRef<RuntimeValue>(Args2, 2)).Result.Scalar,
            99);
}

TEST(PEARegressionTest, ResidualEscapeShapeSinksUnderDBDS) {
  // The price: once duplication drops the phi, the allocation sinks into
  // the call's block.
  Parsed P = parse(PartialEscapeShape);
  EXPECT_EQ(fateOf(P, /*DropPhi=*/false).K, EscapeFate::Stays);
  EscapeFate Priced = fateOf(P, /*DropPhi=*/true);
  ASSERT_EQ(Priced.K, EscapeFate::SinksTo);
  EXPECT_EQ(Priced.Sink, findFirst(*P.F, Opcode::Call)->getBlock());
  const unsigned SinkId = Priced.Sink->getId();

  DBDSConfig Config;
  Config.ClassTable = P.Mod.get();
  runDBDS(*P.F, Config);
  EXPECT_EQ(verifyFunction(*P.F), "");
  // The delivery: duplication removed the phi; the allocation then
  // materialized lazily in exactly the priced block, so the entry path is
  // allocation-free.
  EXPECT_EQ(countOpcode(P.F->getEntry(), Opcode::New), 0u);
  ASSERT_EQ(countOpcode(*P.F, Opcode::New), 1u);
  EXPECT_EQ(findNew(*P.F)->getBlock()->getId(), SinkId);
}

// ---- --jobs determinism -------------------------------------------------

// The full PEA-bearing pipeline over a PEA-heavy generated workload must
// print byte-identical modules whether functions are compiled serially or
// on eight workers (DESIGN.md §9).
TEST(PEAJobsTest, OptimizedModulesByteIdenticalAcrossJobs) {
  auto RunAll = [](unsigned Jobs) {
    GeneratorConfig GC;
    GC.Seed = 7;
    GC.NumFunctions = 8;
    GC.SegmentsPerFunction = 5;
    GC.Mix.PartialEscape = 4.0;
    GeneratedWorkload W = generateWorkload(GC);
    const size_t N = W.Mod->functions().size();
    std::vector<std::string> Out(N);
    CompileService Service(Jobs);
    Service.forEachIndex(N, [&](size_t Index, unsigned) {
      Function *F = W.Mod->functions()[Index];
      PhaseManager PM =
          PhaseManager::standardPipeline(/*Verify=*/true, W.Mod.get());
      PM.run(*F);
      DBDSConfig Config;
      Config.ClassTable = W.Mod.get();
      runDBDS(*F, Config);
      Out[Index] = printFunction(F);
    });
    std::string Joined;
    for (const std::string &S : Out)
      Joined += S;
    return Joined;
  };
  std::string Serial = RunAll(1);
  std::string Parallel = RunAll(8);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Parallel);
}

} // namespace
