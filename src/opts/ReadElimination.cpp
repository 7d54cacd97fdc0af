//===- opts/ReadElimination.cpp - Redundant field-read removal -------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Forwards field values (store->load and load->load) along the dominator
// tree. Memory knowledge is only propagated into a child block when the
// child's sole predecessor is the current block — i.e. within extended
// basic blocks — because a merge may be reached along paths with different
// memory states. That restriction is exactly why duplication helps: a
// partially redundant read copied into a predecessor becomes fully
// redundant there (paper Listing 5/6).
//
// An allocation is fresh from its definition to its first escaping use on
// the current path (useEscapesAllocation, the classification partial
// escape analysis uses too): until then its zero-initialized fields are
// exactly known and survive opaque calls and aliasing stores. Each
// dominator child gets its own copy of the state, so an escape on one
// branch does not poison the sibling. A merge phi is an escape the merge
// clear already covers; once duplication removes it, the copied loads
// forward here and opts/PartialEscape scalar-replaces the allocation
// (Listing 3/4). The Simulator prices both through the same MemoryState.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"
#include "opts/MemoryState.h"
#include "opts/PartialEscape.h"
#include "opts/Phase.h"

using namespace dbds;

void MemoryState::enter(Block *B, const DominatorTree &DT) {
  // A merge can be reached along paths this walk did not take. (Loop
  // headers are merges via their back edge.)
  Block *Idom = DT.getIdom(B);
  if (B->getNumPreds() >= 2 ||
      (Idom && B->getNumPreds() == 1 && B->preds()[0] != Idom))
    clear();
}

void MemoryState::clear() {
  Available.clear();
  Fresh.clear();
}

void MemoryState::recordAllocation(NewInst *New, unsigned NumFields) {
  Fresh.insert(New);
  ConstantInst *Zero = New->getFunction()->constant(0);
  for (unsigned Field = 0; Field != NumFields; ++Field)
    Available[{New, Field}] = Zero;
}

void MemoryState::endEscapingFreshness(const Instruction *User,
                                       const Resolver &Resolve) {
  // The object's known fields stay valid at the escape itself; from here
  // on they are ordinary entries that calls and aliasing stores may kill.
  for (Instruction *Op : User->operands()) {
    auto *New = dyn_cast<NewInst>(Resolve(Op));
    if (New && Fresh.count(New) && useEscapesAllocation(New, User, Resolve))
      Fresh.erase(New);
  }
}

void MemoryState::recordStore(Instruction *Object, unsigned Field,
                              Instruction *Value) {
  // Kill aliasing knowledge: entries for the same field whose object is a
  // different value that may alias. Known-fresh allocations cannot alias
  // anything else (they have not escaped), in either direction.
  if (!Fresh.count(Object)) {
    for (auto It = Available.begin(); It != Available.end();) {
      auto [Obj, F] = It->first;
      bool MayAlias = F == Field && Obj != Object && !Fresh.count(Obj);
      It = MayAlias ? Available.erase(It) : ++It;
    }
  }
  Available[{Object, Field}] = Value;
}

Instruction *MemoryState::lookup(Instruction *Object, unsigned Field) const {
  auto It = Available.find({Object, Field});
  return It == Available.end() ? nullptr : It->second;
}

void MemoryState::recordEffect(Instruction *I, const Module *ClassTable) {
  switch (I->getOpcode()) {
  case Opcode::New: {
    auto *New = cast<NewInst>(I);
    recordAllocation(
        New, ClassTable ? ClassTable->getClass(New->getClassId()).NumFields
                        : 0);
    break;
  }
  case Opcode::LoadField: {
    // A performed load makes later identical loads redundant.
    auto *Load = cast<LoadFieldInst>(I);
    recordAvailable(Load->getObject(), Load->getFieldIndex(), Load);
    break;
  }
  case Opcode::StoreField: {
    auto *Store = cast<StoreFieldInst>(I);
    recordStore(Store->getObject(), Store->getFieldIndex(), Store->getValue());
    break;
  }
  case Opcode::Call:
  case Opcode::Invoke:
    killForCall();
    break;
  default:
    break;
  }
}

void MemoryState::recordAvailable(Instruction *Object, unsigned Field,
                                  Instruction *Value) {
  Available[{Object, Field}] = Value;
}

void MemoryState::killForCall() {
  // An opaque call can read/write any escaped object, but not an
  // allocation that has not escaped on this path.
  for (auto It = Available.begin(); It != Available.end();)
    It = Fresh.count(It->first.first) ? ++It : Available.erase(It);
}

namespace {

class REDriver {
public:
  REDriver(Function &F, const DominatorTree &DT, const Module *M)
      : F(F), DT(DT), M(M) {}

  bool run() {
    MemoryState Entry;
    visit(F.getEntry(), Entry);
    return Changed;
  }

private:
  void visit(Block *B, MemoryState State) {
    State.enter(B, DT);

    SmallVector<Instruction *, 16> Insts(B->begin(), B->end());
    for (Instruction *I : Insts) {
      if (I->getBlock() != B)
        continue;
      State.recordEscapes(I);
      if (auto *Load = dyn_cast<LoadFieldInst>(I)) {
        if (Instruction *Known =
                State.lookup(Load->getObject(), Load->getFieldIndex())) {
          Load->replaceAllUsesWith(Known);
          B->remove(Load);
          Changed = true;
          continue;
        }
      } else if (auto *Store = dyn_cast<StoreFieldInst>(I)) {
        // Store of the value the location is already known to hold is
        // redundant.
        if (State.lookup(Store->getObject(), Store->getFieldIndex()) ==
            Store->getValue()) {
          B->remove(Store);
          Changed = true;
          continue;
        }
      }
      State.recordEffect(I, M);
    }

    for (Block *Child : DT.children(B)) {
      // Propagate state only into children this block directly feeds.
      visit(Child, State);
    }
  }

  Function &F;
  const DominatorTree &DT;
  const Module *M;
  bool Changed = false;
};

} // namespace

bool ReadElimination::run(Function &F) {
  DominatorTree DT(F);
  REDriver Driver(F, DT, ClassTable);
  return Driver.run();
}
