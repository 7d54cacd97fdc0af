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
// Fresh, non-escaping allocations additionally expose zero-initialized
// fields and survive opaque calls; once duplication removes an
// allocation's phi escape, load-forwarding here and scalar replacement in
// opts/PartialEscape reproduce the paper's PEA effect (Listing 3/4).
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"
#include "opts/MemoryState.h"
#include "opts/PartialEscape.h"
#include "opts/Phase.h"

using namespace dbds;

void MemoryState::clear() {
  Available.clear();
  Fresh.clear();
}

void MemoryState::recordAllocation(NewInst *New, unsigned NumFields) {
  if (!allocationDoesNotEscape(New))
    return;
  Fresh.insert(New);
  ConstantInst *Zero = New->getFunction()->constant(0);
  for (unsigned Field = 0; Field != NumFields; ++Field)
    Available[{New, Field}] = Zero;
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

void MemoryState::recordLoad(LoadFieldInst *Load) {
  Available[{Load->getObject(), Load->getFieldIndex()}] = Load;
}

void MemoryState::recordAvailable(Instruction *Object, unsigned Field,
                                  Instruction *Value) {
  Available[{Object, Field}] = Value;
}

void MemoryState::killForCall() {
  // An opaque call can read/write any escaped object, but not a fresh,
  // never-escaping allocation.
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
  unsigned fieldsOf(NewInst *New) const {
    if (!M)
      return 0;
    return M->getClass(New->getClassId()).NumFields;
  }

  void visit(Block *B, MemoryState State) {
    // A merge can be reached along paths this walk did not take; drop all
    // memory knowledge. (Loop headers are merges via their back edge.)
    if (B->getNumPreds() >= 2 ||
        (DT.getIdom(B) && B->getNumPreds() == 1 &&
         B->preds()[0] != DT.getIdom(B)))
      State.clear();

    SmallVector<Instruction *, 16> Insts(B->begin(), B->end());
    for (Instruction *I : Insts) {
      if (I->getBlock() != B)
        continue;
      switch (I->getOpcode()) {
      case Opcode::New:
        State.recordAllocation(cast<NewInst>(I), fieldsOf(cast<NewInst>(I)));
        break;
      case Opcode::LoadField: {
        auto *Load = cast<LoadFieldInst>(I);
        if (Instruction *Known =
                State.lookup(Load->getObject(), Load->getFieldIndex())) {
          Load->replaceAllUsesWith(Known);
          B->remove(Load);
          Changed = true;
          break;
        }
        State.recordLoad(Load);
        break;
      }
      case Opcode::StoreField: {
        auto *Store = cast<StoreFieldInst>(I);
        // Store of the value the location is already known to hold is
        // redundant.
        if (State.lookup(Store->getObject(), Store->getFieldIndex()) ==
            Store->getValue()) {
          B->remove(Store);
          Changed = true;
          break;
        }
        State.recordStore(Store->getObject(), Store->getFieldIndex(),
                          Store->getValue());
        break;
      }
      case Opcode::Call:
      case Opcode::Invoke:
        State.killForCall();
        break;
      default:
        break;
      }
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
