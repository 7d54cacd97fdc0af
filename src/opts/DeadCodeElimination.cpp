//===- opts/DeadCodeElimination.cpp - Mark-and-sweep DCE -------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Liveness roots are terminators, calls, invokes and stores; everything
// else lives only as an operand of something live. Allocations that die
// with their initializing stores are partial escape analysis's business
// (opts/PartialEscape.h), which runs just before this phase.
//
//===----------------------------------------------------------------------===//

#include "opts/Phase.h"

#include <cstdint>
#include <vector>

using namespace dbds;

bool DeadCodeElimination::run(Function &F) {
  std::vector<uint8_t> Live(F.getMaxInstId(), 0); // by instruction id
  std::vector<Instruction *> Worklist;

  auto markLive = [&](Instruction *I) {
    if (!Live[I->getId()]) {
      Live[I->getId()] = 1;
      Worklist.push_back(I);
    }
  };

  for (Block *B : F.blocks())
    for (Instruction *I : *B)
      if (I->isTerminator() || isa<CallInst, InvokeInst, StoreFieldInst>(I))
        markLive(I);

  // Propagate liveness through operands.
  while (!Worklist.empty()) {
    Instruction *I = Worklist.back();
    Worklist.pop_back();
    for (Instruction *Op : I->operands())
      markLive(Op);
  }

  // Sweep. Collect first (removal edits block lists), then detach; an
  // unmarked instruction is never an operand of a marked one.
  bool Changed = false;
  for (Block *B : F.blocks()) {
    SmallVector<Instruction *, 16> Dead;
    for (Instruction *I : *B)
      if (!Live[I->getId()])
        Dead.push_back(I);
    // Remove uses-last: later instructions use earlier ones.
    for (auto It = Dead.end(); It != Dead.begin();) {
      --It;
      Instruction *I = *It;
      // A dead value may still be listed as operand of other dead
      // instructions; Block::remove detaches operands, so removing in
      // reverse program order keeps use lists exact.
      B->remove(I);
      Changed = true;
    }
  }
  return Changed;
}
