//===- opts/PartialEscape.cpp - Partial escape analysis --------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The whole-function half of partial escape analysis (paper §5.2, after
// Stadler): two transforms over use lists, both decided by escapeFate.
// The flow-sensitive half — an allocation's fields stay exactly known from
// its definition to its first escape on that path, so loads of it forward
// — is read elimination's MemoryState, which runs just before this phase
// and classifies escapes with the same useEscapesAllocation.
//
//  1. Scalar replacement: an allocation that never escapes and whose loads
//     all forwarded away is held alive only by its own initializer stores;
//     both die together.
//
//  2. Lazy materialization (allocation sinking): when every escape of an
//     allocation sits in one block strictly dominated by its definition,
//     the allocation and its initializer stores are re-emitted at the top
//     of that block — paths that never reach the escape never allocate.
//     Restricted to loop-free regions: re-materializing inside a loop the
//     definition is not part of would change how many objects exist.
//
// A merge phi is an escape, which makes this the optimization duplication
// unlocks: once DBDS copies the merge into a predecessor, the phi escape
// disappears and the allocation dies or sinks (Listing 3). The Simulator
// asks escapeFate with the merge phi dropped to price AllocationSinks /
// PartialEscapes opportunities: the price and the delivery are one query.
//
//===----------------------------------------------------------------------===//

#include "opts/PartialEscape.h"

#include "analysis/DominatorTree.h"
#include "analysis/Loops.h"
#include "telemetry/Counters.h"
#include "telemetry/Metrics.h"

#include <algorithm>

using namespace dbds;

DBDS_COUNTER(pea, allocations_tracked);
DBDS_COUNTER(pea, stores_eliminated);
DBDS_COUNTER(pea, allocs_scalar_replaced);
DBDS_COUNTER(pea, allocs_sunk);
DBDS_HISTOGRAM(pea, virtualized_allocs, Count, Deterministic);

bool dbds::useEscapesAllocation(const NewInst *New, const Instruction *User,
                                const Resolver &Resolve) {
  switch (User->getOpcode()) {
  case Opcode::LoadField:
    // Reading a field of the object reveals a field value, never the
    // object itself.
    return Resolve(cast<LoadFieldInst>(User)->getObject()) != New;
  case Opcode::StoreField: {
    auto *Store = cast<StoreFieldInst>(User);
    // Storing *into* the object is fine; storing the object as a value
    // publishes it — including storing it into itself.
    return Resolve(Store->getValue()) == New ||
           Resolve(Store->getObject()) != New;
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

class PEADriver {
public:
  PEADriver(Function &F, const DominatorTree &DT, const LoopInfo &LI,
            PartialEscapeStats &Stats)
      : F(F), DT(DT), LI(LI), Stats(Stats) {}

  /// Decides the fate of each of \p Allocs over whole-function use lists.
  /// Instruction-level only; the dominator tree and loop info stay valid
  /// throughout.
  bool run(ArrayRef<NewInst *> Allocs) {
    for (NewInst *New : Allocs) {
      ++Stats.AllocationsTracked;
      ++allocations_tracked;
      EscapeFate Fate = escapeFate(New, DT, LI);
      if (Fate.K == EscapeFate::Dies)
        tryScalarReplace(New);
      else if (Fate.K == EscapeFate::SinksTo)
        sink(New, Fate.Sink);
    }
    return Changed;
  }

private:
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
  PartialEscapeStats &Stats;
  bool Changed = false;
};

} // namespace

bool PartialEscapePhase::run(Function &F) {
  PartialEscapeStats Stats;
  return run(F, Stats);
}

bool PartialEscapePhase::run(Function &F, PartialEscapeStats &Stats) {
  SmallVector<NewInst *, 8> Allocs;
  for (Block *B : F.blocks())
    for (Instruction *I : *B)
      if (auto *New = dyn_cast<NewInst>(I))
        Allocs.push_back(New);
  if (Allocs.empty())
    return false; // nothing to decide: skip the dominator tree and loops
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  PEADriver Driver(F, DT, LI, Stats);
  bool DidChange = Driver.run(Allocs);
  // One deterministic sample per run that saw allocations: how many were
  // virtualized away (scalar-replaced) or materialized lazily (sunk).
  // Purely IR-derived, so byte-identical across --jobs levels.
  virtualized_allocs.record(Stats.AllocsScalarReplaced + Stats.AllocsSunk);
  return DidChange;
}
