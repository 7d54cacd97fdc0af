//===- analysis/Loops.cpp - Natural loop detection -------------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Loops.h"

#include "telemetry/Counters.h"

using namespace dbds;

DBDS_COUNTER(analysis, loopinfo_builds);

LoopInfo::LoopInfo(Function &F, const DominatorTree &DT)
    : DT(DT), Depth(F.getMaxBlockId(), 0) {
  ++loopinfo_builds;
  // Body membership is stamped with the loop's number, so the mark vector
  // is never cleared between loops.
  std::vector<unsigned> InBody(F.getMaxBlockId(), 0);
  unsigned LoopNum = 0;
  std::vector<Block *> Body;
  std::vector<Block *> Worklist;
  auto addToBody = [&](Block *B) {
    if (InBody[B->getId()] == LoopNum)
      return false;
    InBody[B->getId()] = LoopNum;
    Body.push_back(B);
    return true;
  };
  for (Block *B : DT.rpo()) {
    for (Block *S : B->succs()) {
      if (!isBackEdge(B, S, DT))
        continue;
      // Walk the natural loop body: everything reaching the latch B
      // without passing through the header S.
      ++LoopNum;
      Body.clear();
      addToBody(S);
      if (addToBody(B))
        Worklist.push_back(B);
      while (!Worklist.empty()) {
        Block *W = Worklist.back();
        Worklist.pop_back();
        for (Block *P : W->preds())
          if (DT.isReachable(P) && addToBody(P))
            Worklist.push_back(P);
      }
      for (Block *Member : Body)
        ++Depth[Member->getId()];
    }
  }
}
