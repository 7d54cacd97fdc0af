//===- opts/PartialEscape.cpp - Partial escape analysis --------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Three cooperating transforms over per-allocation virtual object state
// (paper §5.2, after Stadler's partial escape analysis):
//
//  1. Virtual propagation: along the dominator tree, within extended basic
//     blocks, every allocation is virtual from its definition to its first
//     true escape *on that path*. While virtual, its field values are
//     exactly known (zero-initialized, updated by stores into it), so
//     field loads forward even when the allocation escapes further down —
//     the flow sensitivity plain ReadElimination lacks. An escape on one
//     branch does not poison the sibling branch: state is copied, not
//     shared, into dominator children.
//
//  2. Scalar replacement: an allocation that never escapes and whose loads
//     all forwarded away is held alive only by its own initializer stores;
//     both die together.
//
//  3. Lazy materialization (allocation sinking): when every escape of an
//     allocation sits in one block strictly dominated by its definition,
//     the allocation and its initializer stores are re-emitted at the top
//     of that block — paths that never reach the escape never allocate.
//     Restricted to loop-free regions: re-materializing inside a loop the
//     definition is not part of would change how many objects exist.
//
// Merges drop all virtual state, exactly like read elimination: a merge
// can be reached along paths with different escape histories. That makes
// this the optimization duplication unlocks — once DBDS copies the merge
// into a predecessor, the phi escape disappears and the allocation stays
// virtual (Listing 3). Transforms 2 and 3 are decided by escapeFate, which
// the Simulator asks with the merge phi dropped to price AllocationSinks /
// PartialEscapes opportunities: the price and the delivery are one query.
//
//===----------------------------------------------------------------------===//

#include "opts/PartialEscape.h"

#include "analysis/DominatorTree.h"
#include "analysis/Loops.h"
#include "telemetry/Counters.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace dbds;

DBDS_COUNTER(pea, allocations_tracked);
DBDS_COUNTER(pea, loads_forwarded);
DBDS_COUNTER(pea, stores_eliminated);
DBDS_COUNTER(pea, allocs_scalar_replaced);
DBDS_COUNTER(pea, allocs_sunk);
DBDS_HISTOGRAM(pea, virtualized_allocs, Count, Deterministic);

bool dbds::useEscapesAllocation(const NewInst *New, const Instruction *User) {
  switch (User->getOpcode()) {
  case Opcode::LoadField:
    // Reading a field of the object reveals a field value, never the
    // object itself.
    return cast<LoadFieldInst>(User)->getObject() != New;
  case Opcode::StoreField: {
    auto *Store = cast<StoreFieldInst>(User);
    // Storing *into* the object is fine; storing the object as a value
    // publishes it — including storing it into itself.
    return Store->getValue() == New || Store->getObject() != New;
  }
  // Explicit per-opcode classification: both call flavors pass the object
  // to opaque code, and a phi forwards it onto the merged path — all
  // escapes, treated uniformly with return/compare/arithmetic below.
  case Opcode::Call:
  case Opcode::Invoke:
  case Opcode::Phi:
    return true;
  default:
    return true; // return, comparison, arithmetic operand, ...
  }
}

bool dbds::allocationDoesNotEscape(NewInst *New) {
  for (Instruction *User : New->users())
    if (useEscapesAllocation(New, User))
      return false;
  return true;
}

EscapeFate dbds::escapeFate(NewInst *New, const DominatorTree &DT,
                            const LoopInfo &LI,
                            const Instruction *DroppedUse) {
  Block *Home = New->getBlock();
  if (!Home)
    return {};
  bool Dropped = false, HasLoad = false, StoresAtHome = true;
  SmallVector<Instruction *, 4> Escapes;
  for (Instruction *User : New->users()) {
    if (!useEscapesAllocation(New, User)) {
      if (isa<LoadFieldInst>(User))
        HasLoad = true;
      else if (User->getBlock() != Home)
        StoresAtHome = false; // initializers must move as one unit
      continue;
    }
    if (User == DroppedUse && !Dropped)
      Dropped = true; // once: a second input of the same phi still escapes
    else
      Escapes.push_back(User);
  }
  if (Escapes.empty())
    return {EscapeFate::Dies};
  // Sinking moves the object: a surviving load would read it early, and
  // re-materializing inside a loop would change how many objects exist.
  if (HasLoad || !StoresAtHome || LI.loopDepth(Home) != 0)
    return {};
  // One block must hold every escape; a phi's use sits on an edge instead.
  Block *Sink = Escapes.front()->getBlock();
  for (Instruction *E : Escapes)
    if (isa<PhiInst>(E) || E->getBlock() != Sink)
      return {};
  if (!Sink || Sink == Home || !DT.isReachable(Sink) ||
      !DT.dominates(Home, Sink) || LI.loopDepth(Sink) != 0)
    return {};
  return {EscapeFate::SinksTo, Sink};
}

namespace {

/// Virtual state of one allocation on the current path: exact field
/// values from definition to first escape.
struct VirtualObject {
  SmallVector<Instruction *, 4> Fields;
};

class PEADriver {
public:
  PEADriver(Function &F, const DominatorTree &DT, const LoopInfo &LI,
            const Module *ClassTable, PartialEscapeStats &Stats)
      : F(F), DT(DT), LI(LI), ClassTable(ClassTable), Stats(Stats) {}

  bool run() {
    PathState Entry;
    visit(F.getEntry(), Entry);
    scalarReplaceAndSink();
    return Changed;
  }

private:
  using PathState = std::unordered_map<NewInst *, VirtualObject>;

  void visit(Block *B, PathState State) {
    // A merge can be reached along paths with different escape histories:
    // every object is conservatively materialized there. (Loop headers
    // are merges via their back edge.)
    if (B->getNumPreds() >= 2 ||
        (DT.getIdom(B) && B->getNumPreds() == 1 &&
         B->preds()[0] != DT.getIdom(B)))
      State.clear();

    SmallVector<Instruction *, 16> Insts(B->begin(), B->end());
    for (Instruction *I : Insts) {
      if (I->getBlock() != B)
        continue; // removed by an earlier forward in this walk
      if (auto *New = dyn_cast<NewInst>(I)) {
        if (!ClassTable)
          continue;
        VirtualObject &VO = State[New];
        VO.Fields.clear();
        unsigned NumFields = ClassTable->getClass(New->getClassId()).NumFields;
        Instruction *Zero = F.constant(0);
        for (unsigned Field = 0; Field != NumFields; ++Field)
          VO.Fields.push_back(Zero);
        if (EverTracked.insert(New).second) {
          ++Stats.AllocationsTracked;
          ++allocations_tracked;
        }
        continue;
      }
      if (auto *Load = dyn_cast<LoadFieldInst>(I)) {
        auto *Obj = dyn_cast<NewInst>(Load->getObject());
        auto It = Obj ? State.find(Obj) : State.end();
        if (It == State.end())
          continue;
        if (Load->getFieldIndex() >= It->second.Fields.size()) {
          State.erase(It); // out-of-range access: stop reasoning about it
          continue;
        }
        Load->replaceAllUsesWith(It->second.Fields[Load->getFieldIndex()]);
        B->remove(Load);
        Changed = true;
        ++Stats.LoadsForwarded;
        ++loads_forwarded;
        continue;
      }
      if (auto *Store = dyn_cast<StoreFieldInst>(I)) {
        // Value position first: storing a virtual object publishes it.
        if (auto *V = dyn_cast<NewInst>(Store->getValue()))
          State.erase(V);
        auto *Obj = dyn_cast<NewInst>(Store->getObject());
        auto It = Obj ? State.find(Obj) : State.end();
        if (It != State.end()) {
          if (Store->getFieldIndex() < It->second.Fields.size())
            It->second.Fields[Store->getFieldIndex()] = Store->getValue();
          else
            State.erase(It);
        }
        continue;
      }
      // Everything else — calls, phis, returns, comparisons — escapes any
      // virtual object it touches. Objects it does not touch stay virtual
      // even across opaque calls: unescaped means unreachable from the
      // callee.
      for (Instruction *Op : I->operands())
        if (auto *N = dyn_cast<NewInst>(Op))
          if (useEscapesAllocation(N, I))
            State.erase(N);
    }

    for (Block *Child : DT.children(B))
      visit(Child, State); // copied: branch-local escape histories
  }

  /// Post-walk transforms over whole-function use lists. Instruction-level
  /// only; the dominator tree and loop info stay valid throughout.
  void scalarReplaceAndSink() {
    SmallVector<NewInst *, 8> Allocs;
    for (Block *B : F.blocks())
      for (Instruction *I : *B)
        if (auto *New = dyn_cast<NewInst>(I))
          Allocs.push_back(New);
    for (NewInst *New : Allocs) {
      EscapeFate Fate = escapeFate(New, DT, LI);
      if (Fate.K == EscapeFate::Dies)
        tryScalarReplace(New);
      else if (Fate.K == EscapeFate::SinksTo)
        sink(New, Fate.Sink);
    }
  }

  /// Deletes the never-escaping \p New and its initializer stores when no
  /// load remains: the allocation never materialized anywhere.
  void tryScalarReplace(NewInst *New) {
    SmallVector<Instruction *, 4> Stores(New->users().begin(),
                                         New->users().end());
    for (Instruction *Store : Stores)
      if (!isa<StoreFieldInst>(Store))
        return; // a surviving load still reads a field
    for (Instruction *Store : Stores) {
      Store->getBlock()->remove(Store);
      ++Stats.StoresEliminated;
      ++stores_eliminated;
    }
    New->getBlock()->remove(New);
    Changed = true;
    ++Stats.AllocsScalarReplaced;
    ++allocs_scalar_replaced;
  }

  /// Lazy materialization: re-emits \p New and its initializer stores at
  /// the top of \p Sink, the one block holding every escape.
  void sink(NewInst *New, Block *Sink) {
    Block *Home = New->getBlock();
    SmallVector<StoreFieldInst *, 4> InitStores;
    for (Instruction *User : New->users())
      if (!useEscapesAllocation(New, User))
        InitStores.push_back(cast<StoreFieldInst>(User));

    // Replay the initializers in their original program order at the top
    // of the escape block; every stored value was defined in a block
    // dominating Home, so it dominates Sink as well.
    std::sort(InitStores.begin(), InitStores.end(),
              [&](StoreFieldInst *A, StoreFieldInst *B) {
                return Home->indexOf(A) < Home->indexOf(B);
              });
    unsigned Idx = 0;
    for (Instruction *I : *Sink) {
      if (!isa<PhiInst>(I))
        break;
      ++Idx;
    }
    auto *Materialized = F.create<NewInst>(New->getClassId());
    Sink->insert(Idx++, Materialized);
    for (StoreFieldInst *Store : InitStores)
      Sink->insert(Idx++, F.create<StoreFieldInst>(Materialized,
                                                   Store->getFieldIndex(),
                                                   Store->getValue()));
    for (StoreFieldInst *Store : InitStores)
      Home->remove(Store);
    New->replaceAllUsesWith(Materialized);
    Home->remove(New);
    Changed = true;
    ++Stats.AllocsSunk;
    ++allocs_sunk;
  }

  Function &F;
  const DominatorTree &DT;
  const LoopInfo &LI;
  const Module *ClassTable;
  PartialEscapeStats &Stats;
  std::unordered_set<NewInst *> EverTracked;
  bool Changed = false;
};

} // namespace

bool PartialEscapePhase::run(Function &F) {
  PartialEscapeStats Stats;
  return run(F, Stats);
}

bool PartialEscapePhase::run(Function &F, PartialEscapeStats &Stats) {
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  PEADriver Driver(F, DT, LI, ClassTable, Stats);
  bool DidChange = Driver.run();
  // One deterministic sample per run that saw allocations: how many were
  // virtualized away (scalar-replaced) or materialized lazily (sunk).
  // Purely IR-derived, so byte-identical across --jobs levels.
  if (Stats.AllocationsTracked != 0)
    virtualized_allocs.record(Stats.AllocsScalarReplaced + Stats.AllocsSunk);
  return DidChange;
}
