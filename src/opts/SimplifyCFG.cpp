//===- opts/SimplifyCFG.cpp - Control-flow cleanup --------------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Three local rewrites to a fixpoint:
//   1. A branch on a constant becomes a jump; the dead edge is removed.
//   2. Unreachable blocks are disconnected and erased.
//   3. A block whose jump leads to a single-predecessor block absorbs it.
// Rewrite 3 is what makes a fully-duplicated merge block disappear.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"
#include "opts/Phase.h"

#include <cstdint>
#include <vector>

using namespace dbds;

namespace {

/// Rewrite 1: branch on constant.
bool foldConstantBranches(Function &F) {
  bool Changed = false;
  for (Block *B : F.blocks()) {
    auto *If = dyn_cast<IfInst>(B->getTerminator());
    if (!If)
      continue;
    auto *Cond = dyn_cast<ConstantInst>(If->getCondition());
    if (!Cond || Cond->isNull())
      continue;
    bool Taken = Cond->getValue() != 0;
    Block *Kept = Taken ? If->getTrueSucc() : If->getFalseSucc();
    Block *Dropped = Taken ? If->getFalseSucc() : If->getTrueSucc();
    // Drop the dead edge (If successors are distinct by invariant, so B
    // occurs exactly once among Dropped's preds for this edge).
    Dropped->removePred(Dropped->indexOfPred(B));
    B->remove(If);
    auto *Jump = F.create<JumpInst>(Kept);
    B->append(Jump);
    Changed = true;
  }
  return Changed;
}

/// Rewrite 2: disconnect and erase unreachable blocks.
bool pruneUnreachable(Function &F) {
  std::vector<uint8_t> Reachable(F.getMaxBlockId(), 0); // by block id
  std::vector<Block *> Worklist{F.getEntry()};
  Reachable[F.getEntry()->getId()] = 1;
  while (!Worklist.empty()) {
    Block *B = Worklist.back();
    Worklist.pop_back();
    for (Block *S : B->succs())
      if (!Reachable[S->getId()]) {
        Reachable[S->getId()] = 1;
        Worklist.push_back(S);
      }
  }
  bool Changed = false;
  for (Block *B : F.blocks()) {
    if (Reachable[B->getId()])
      continue;
    // Remove B's edges into reachable blocks (phi inputs included).
    for (Block *S : B->succs()) {
      while (S->hasPred(B))
        S->removePred(S->indexOfPred(B));
    }
    // Values defined in B cannot be used by reachable code (dominance), so
    // the block can be dismantled wholesale.
    F.eraseBlock(B);
    Changed = true;
  }
  return Changed;
}

// Note on empty forwarding blocks: a block containing only a jump into a
// merge is deliberately NOT threaded away. Such blocks are the merge's
// per-edge begin blocks (Graal's BeginNode) — they are exactly where DBDS
// duplicates the merge into, and threading them would leave the merge
// reachable directly from an If edge, which neither the simulator nor the
// duplicator can split. An empty block whose target has one predecessor
// is subsumed by the straight-line merge below.

/// Rewrite 3: merge straight-line block pairs.
bool mergeStraightLine(Function &F) {
  bool Changed = false;
  for (Block *B : F.blocks()) {
    auto *Jump = dyn_cast<JumpInst>(B->getTerminator());
    if (!Jump)
      continue;
    Block *S = Jump->getTarget();
    if (S == B || S->getNumPreds() != 1 || S == F.getEntry())
      continue;
    // S's phis have a single input; replace them first.
    for (PhiInst *Phi : S->phis()) {
      Instruction *In = Phi->getInput(0);
      assert(In != Phi && "degenerate self-phi");
      Phi->replaceAllUsesWith(In);
      S->remove(Phi);
    }
    B->remove(Jump);
    S->transferAllTo(B);
    for (Block *T : B->succs()) {
      // The moved terminator's edges now originate from B.
      for (unsigned Idx = 0, E = T->getNumPreds(); Idx != E; ++Idx)
        if (T->preds()[Idx] == S)
          T->replacePred(Idx, B);
    }
    F.eraseBlock(S);
    Changed = true;
    break; // block list changed; restart outer fixpoint
  }
  return Changed;
}

} // namespace

bool SimplifyCFG::run(Function &F) {
  bool Changed = false;
  bool LocalChange = true;
  while (LocalChange) {
    LocalChange = false;
    LocalChange |= foldConstantBranches(F);
    LocalChange |= pruneUnreachable(F);
    LocalChange |= mergeStraightLine(F);
    Changed |= LocalChange;
  }
  return Changed;
}
