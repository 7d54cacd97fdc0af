//===- opts/ScopedStamps.cpp - Scoped stamp refinement ---------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "opts/ScopedStamps.h"

#include "ir/Function.h"

using namespace dbds;

void ScopedStamps::refine(Instruction *I, const Stamp &S, UndoLog &Undo) {
  Stamp Current = get(I);
  auto Met = Current.meet(S);
  if (!Met || *Met == Current)
    return; // contradictory (dead branch) or nothing new
  if (I->getId() >= Overlay.size())
    Overlay.resize(I->getFunction()->getMaxInstId());
  std::optional<Stamp> &Slot = Overlay[I->getId()];
  Undo.push_back({I, Slot});
  Slot = *Met;
}

void ScopedStamps::refineByCondition(Instruction *Cond, bool Holds,
                                     UndoLog &Undo) {
  refine(Cond, Stamp::exact(Holds ? 1 : 0), Undo);
  if (auto *Cmp = dyn_cast<CompareInst>(Cond)) {
    Instruction *LHS = Cmp->getLHS();
    Instruction *RHS = Cmp->getRHS();
    if (auto Refined = refineByCompare(Cmp->getPredicate(), get(LHS),
                                       get(RHS), Holds))
      refine(LHS, *Refined, Undo);
    if (auto Refined = refineByCompare(swapPredicate(Cmp->getPredicate()),
                                       get(RHS), get(LHS), Holds))
      refine(RHS, *Refined, Undo);
  }
}

void ScopedStamps::undo(const UndoLog &Undo) {
  for (auto It = Undo.rbegin(); It != Undo.rend(); ++It)
    Overlay[It->first->getId()] = It->second;
}
