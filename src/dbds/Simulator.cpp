//===- dbds/Simulator.cpp - The DBDS simulation tier -----------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dbds/Simulator.h"

#include "analysis/BlockFrequency.h"
#include "analysis/DominatorTree.h"
#include "opts/Canonicalize.h"
#include "opts/MemoryState.h"
#include "opts/PartialEscape.h"
#include "opts/ScopedStamps.h"
#include "telemetry/Counters.h"
#include "telemetry/Json.h"
#include "telemetry/Trace.h"

#include <unordered_map>
#include <unordered_set>

using namespace dbds;

DBDS_COUNTER(simulator, pairs_simulated);
DBDS_COUNTER(simulator, paths_simulated);
DBDS_COUNTER(simulator, synonyms_resolved);
DBDS_COUNTER(simulator, constant_folds);
DBDS_COUNTER(simulator, strength_reductions);
DBDS_COUNTER(simulator, conditional_eliminations);
DBDS_COUNTER(simulator, read_eliminations);
DBDS_COUNTER(simulator, allocation_sinks);
DBDS_COUNTER(simulator, partial_escapes);

namespace {

class SimulationDriver {
public:
  SimulationDriver(Function &F, const Module *ClassTable,
                   SimulationStats *Stats, unsigned MaxPathLength)
      : F(F), ClassTable(ClassTable), Stats(Stats),
        MaxPathLength(MaxPathLength), DT(F), LI(F, DT),
        Freq(BlockFrequency::computeStatic(F, DT, LI)), Scope(Stamps) {}

  std::vector<DuplicationCandidate> run() {
    // Simulation must not change the IR (paper §3.2); action steps create
    // uniqued constants in the entry block, so snapshot it for the sweep
    // below.
    std::unordered_set<Instruction *> PreExisting;
    for (Instruction *I : *F.getEntry())
      PreExisting.insert(I);

    MemoryState Entry;
    visit(F.getEntry(), Entry);

    // Scratch nodes created by action steps must not keep use-list entries
    // on real instructions.
    for (Instruction *Scratch : ScratchNodes) {
      assert(Scratch->getBlock() == nullptr && "scratch node was inserted");
      Scratch->dropAllOperands();
    }
    // Remove constants the simulation materialized and nothing ended up
    // using (Function::constant revives them on a later real fold).
    SmallVector<Instruction *, 8> NewConstants;
    for (Instruction *I : *F.getEntry())
      if (isa<ConstantInst>(I) && !PreExisting.count(I) && !I->hasUsers())
        NewConstants.push_back(I);
    for (Instruction *C : NewConstants)
      F.getEntry()->remove(C);
    return std::move(Candidates);
  }

private:
  /// Main traversal: mirrors CE + read elimination context building, read
  /// only. \p State is the memory knowledge at block entry.
  void visit(Block *B, MemoryState State) {
    ScopedStamps::UndoLog Undo;
    if (Block *Idom = DT.getIdom(B)) {
      if (B->getNumPreds() == 1 && B->preds()[0] == Idom) {
        if (auto *If = dyn_cast<IfInst>(Idom->getTerminator())) {
          if (If->getTrueSucc() == B)
            Scope.refineByCondition(If->getCondition(), true, Undo);
          else if (If->getFalseSucc() == B)
            Scope.refineByCondition(If->getCondition(), false, Undo);
        }
      }
    }
    State.enter(B, DT);

    for (Instruction *I : *B) {
      State.recordEscapes(I);
      State.recordEffect(I, ClassTable);
    }

    // Pause: a merge successor reached by jump spawns a DST (paper
    // Figure 2, gray blocks).
    if (auto *Jump = dyn_cast<JumpInst>(B->getTerminator())) {
      Block *M = Jump->getTarget();
      if (M != B && M->isMerge() && !LI.isLoopHeader(M) &&
          DT.isReachable(M))
        simulatePair(B, M, State);
    }

    for (Block *Child : DT.children(B))
      visit(Child, State);

    Scope.undo(Undo);
  }

  /// Escape credit (paper §5.2): duplicating this pair removes the phi
  /// input at \p PredIdx, so the simulation asks partial escape analysis
  /// what becomes of that input's allocation without the phi. If it dies,
  /// the allocation and its initializer stores are saved (AllocationSinks);
  /// if it sinks into a dominated block, the CYCLES_8 allocation cost stops
  /// being paid on paths that avoid the escape (PartialEscapes).
  void addEscapeCredit(Block *M, unsigned PredIdx, DuplicationCandidate &C) {
    for (PhiInst *Phi : M->phis()) {
      auto *New = dyn_cast<NewInst>(Phi->getInput(PredIdx));
      if (!New)
        continue;
      switch (escapeFate(New, DT, LI, Phi).K) {
      case EscapeFate::Dies: {
        double Saved = New->estimatedCycles();
        for (Instruction *User : New->users())
          if (isa<StoreFieldInst>(User))
            Saved += User->estimatedCycles();
        C.CyclesSaved += Saved;
        ++C.Opportunities.AllocationSinks;
        break;
      }
      case EscapeFate::SinksTo:
        C.CyclesSaved += New->estimatedCycles();
        ++C.Opportunities.PartialEscapes;
        break;
      case EscapeFate::Stays:
        break;
      }
    }
  }

  /// The one counting site for opportunities: a finished DST's totals go
  /// into the caller's stats and the simulator.* counters.
  void recordOpportunities(const OpportunityCounts &O) {
    constant_folds += O.ConstantFolds;
    strength_reductions += O.StrengthReductions;
    conditional_eliminations += O.ConditionalEliminations;
    read_eliminations += O.ReadEliminations;
    allocation_sinks += O.AllocationSinks;
    partial_escapes += O.PartialEscapes;
    if (Stats)
      Stats->Opportunities += O;
  }

  /// The duplication simulation traversal for one predecessor->merge pair:
  /// processes M's instructions as if P dominated M, through a synonym
  /// map; when MaxPathLength allows, continues through a jump into a
  /// further merge (paper §8, simulation along paths) and emits a second,
  /// extended candidate if the continuation discovered more benefit.
  void simulatePair(Block *P, Block *M, const MemoryState &StateAtP) {
    if (Stats)
      ++Stats->PairsSimulated;
    ++pairs_simulated;

    // One span per DST traversal (the unit of simulation-tier work).
    TraceSession *TS = TraceSession::active();
    TraceSpan DSTSpan(TS, "dst", "simulator",
                      TS ? "\"merge\":" + jsonNumber(M->getId()) +
                               ",\"pred\":" + jsonNumber(P->getId())
                         : std::string());

    MemoryState Memory = StateAtP;
    std::unordered_map<Instruction *, Instruction *> Synonyms;
    auto resolve = [&](Instruction *V) {
      for (unsigned Hops = 0; Hops != 16; ++Hops) {
        auto It = Synonyms.find(V);
        if (It == Synonyms.end())
          return V;
        ++synonyms_resolved;
        V = It->second;
      }
      return V;
    };
    auto stampOf = [&](Instruction *V) { return Scope.get(resolve(V)); };

    DuplicationCandidate C;
    C.MergeId = M->getId();
    C.PredId = P->getId();
    C.Probability = Freq.relativeFrequency(P);

    // Duplication replaces the predecessor's jump with the merge body:
    // the unconditional jump (and the control-flow transfer it implies)
    // disappears on this path — the original motivation for replication
    // in Mueller & Whalley, which §7 relates DBDS to.
    C.CyclesSaved += opcodeCycles(Opcode::Jump);

    Block *Cur = M;
    Block *CurPred = P;
    double ShallowBenefit = 0.0;
    for (unsigned Depth = 0; Depth != MaxPathLength; ++Depth) {
      unsigned PredIdx = Cur->indexOfPred(CurPred);
      // Seed synonyms: each phi of the merge is its (resolved) input on
      // the path edge (paper Figure 3d, "synonym of").
      for (PhiInst *Phi : Cur->phis())
        Synonyms[Phi] = resolve(Phi->getInput(PredIdx));
      if (Depth == 0)
        addEscapeCredit(Cur, PredIdx, C);

      Instruction *Term = nullptr;
      for (Instruction *I : *Cur) {
        if (isa<PhiInst>(I))
          continue;
        if (I->isTerminator()) {
          Term = I;
          break;
        }
        C.SizeCost += simulateInstruction(I, Memory, Synonyms, resolve,
                                          stampOf, C);
      }
      assert(Term && "merge block without terminator");

      // Can the DST continue along a path into a further merge?
      Block *Next = nullptr;
      if (auto *Jump = dyn_cast<JumpInst>(Term)) {
        Block *T = Jump->getTarget();
        if (Depth + 1 < MaxPathLength && T != Cur && T != M &&
            T->isMerge() && !LI.isLoopHeader(T) && DT.isReachable(T))
          Next = T;
      }

      C.SizeCost += simulateTerminator(Term, resolve, stampOf, C);
      if (Depth == 0) {
        if (C.CyclesSaved > 0.0)
          Candidates.push_back(C);
        ShallowBenefit = C.CyclesSaved;
      } else if (C.CyclesSaved > ShallowBenefit) {
        // The path extension discovered benefit beyond the first merge.
        DuplicationCandidate Extended = C;
        Extended.SecondMergeId = Cur->getId();
        Candidates.push_back(Extended);
      }

      if (!Next)
        break;
      // The continuation replaces the copied jump with the next merge's
      // body (duplicating the second merge removes that jump again).
      C.SizeCost -= opcodeSize(Opcode::Jump);
      ++paths_simulated;
      if (Stats)
        ++Stats->PathsSimulated;
      CurPred = Cur;
      Cur = Next;
    }
    recordOpportunities(C.Opportunities);
  }

  /// Returns the size the copy of \p I contributes; updates benefit and
  /// synonyms when an applicability check fires.
  int64_t
  simulateInstruction(Instruction *I, MemoryState &Memory,
                      std::unordered_map<Instruction *, Instruction *> &Syn,
                      const Resolver &Resolve, const StampLookup &StampOf,
                      DuplicationCandidate &C) {
    // The merge's phis are skipped: the phi escape is exactly what
    // duplication removes, so an allocation flowing in from P stays fresh.
    Memory.recordEscapes(I, Resolve);
    switch (I->getOpcode()) {
    case Opcode::LoadField: {
      auto *Load = cast<LoadFieldInst>(I);
      Instruction *Obj = Resolve(Load->getObject());
      if (Instruction *Known = Memory.lookup(Obj, Load->getFieldIndex())) {
        // Read elimination AC fired: the copied load is redundant.
        Syn[I] = Known;
        C.CyclesSaved += Load->estimatedCycles();
        ++C.Opportunities.ReadEliminations;
        return 0;
      }
      Memory.recordAvailable(Obj, Load->getFieldIndex(), I);
      return I->estimatedSize();
    }
    case Opcode::StoreField: {
      auto *Store = cast<StoreFieldInst>(I);
      Instruction *Obj = Resolve(Store->getObject());
      Instruction *Val = Resolve(Store->getValue());
      if (Memory.lookup(Obj, Store->getFieldIndex()) == Val) {
        C.CyclesSaved += Store->estimatedCycles();
        ++C.Opportunities.ReadEliminations;
        return 0;
      }
      Memory.recordStore(Obj, Store->getFieldIndex(), Val);
      return I->estimatedSize();
    }
    case Opcode::Call:
    case Opcode::Invoke:
    case Opcode::New:
      Memory.recordEffect(I, ClassTable);
      return I->estimatedSize();
    default:
      break;
    }

    FoldOutcome Outcome = tryCanonicalize(I, Resolve, StampOf, F);
    if (!Outcome)
      return I->estimatedSize();
    Instruction *Repl = Outcome.Replacement;
    Syn[I] = Repl;
    if (Outcome.IsNew) {
      // Action step produced a rewritten operation (e.g. div -> shr,
      // Figure 3d: CS = 32 - 1 = 31).
      ScratchNodes.push_back(Repl);
      C.CyclesSaved +=
          static_cast<double>(I->estimatedCycles()) - Repl->estimatedCycles();
      // Only a changed opcode is a strength reduction: a same-opcode
      // rewrite is just a phi resolved to its input.
      if (Repl->getOpcode() != I->getOpcode())
        ++C.Opportunities.StrengthReductions;
      return Repl->estimatedSize();
    }
    // Folded to an existing value: the copy disappears entirely.
    C.CyclesSaved += I->estimatedCycles();
    ++C.Opportunities.ConstantFolds;
    return 0;
  }

  /// Terminator handling: a branch whose resolved condition is decided
  /// is a conditional-elimination opportunity; the copy becomes a jump.
  int64_t simulateTerminator(Instruction *Term, const Resolver &Resolve,
                             const StampLookup &StampOf,
                             DuplicationCandidate &C) {
    if (auto *If = dyn_cast<IfInst>(Term)) {
      Stamp CondStamp = StampOf(Resolve(If->getCondition()));
      if (CondStamp.asConstant()) {
        C.CyclesSaved += static_cast<double>(If->estimatedCycles()) -
                         opcodeCycles(Opcode::Jump);
        ++C.Opportunities.ConditionalEliminations;
        return opcodeSize(Opcode::Jump);
      }
    }
    return Term->estimatedSize();
  }

  Function &F;
  const Module *ClassTable;
  SimulationStats *Stats;
  unsigned MaxPathLength;
  DominatorTree DT;
  LoopInfo LI;
  BlockFrequency Freq;
  StampMap Stamps;
  ScopedStamps Scope;
  std::vector<DuplicationCandidate> Candidates;
  std::vector<Instruction *> ScratchNodes;
};

} // namespace

std::vector<DuplicationCandidate>
dbds::simulateDuplications(Function &F, const Module *ClassTable,
                           SimulationStats *Stats, unsigned MaxPathLength) {
  assert(MaxPathLength >= 1 && "at least the merge itself is simulated");
  SimulationDriver Driver(F, ClassTable, Stats, MaxPathLength);
  return Driver.run();
}
