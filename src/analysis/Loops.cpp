//===- analysis/Loops.cpp - Natural loop detection -------------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Loops.h"

#include "telemetry/Counters.h"

using namespace dbds;

DBDS_COUNTER(analysis, loopinfo_builds);

LoopInfo::LoopInfo(Function &F, const DominatorTree &DT) {
  (void)F;
  ++loopinfo_builds;
  for (Block *B : DT.rpo()) {
    for (Block *S : B->succs()) {
      if (!isBackEdge(B, S, DT))
        continue;
      Headers.insert(S);
      // Walk the natural loop body: everything reaching the latch B
      // without passing through the header S.
      std::vector<Block *> Worklist;
      std::unordered_set<Block *> Body;
      Body.insert(S);
      if (Body.insert(B).second)
        Worklist.push_back(B);
      while (!Worklist.empty()) {
        Block *W = Worklist.back();
        Worklist.pop_back();
        for (Block *P : W->preds())
          if (DT.isReachable(P) && Body.insert(P).second)
            Worklist.push_back(P);
      }
      for (Block *Member : Body)
        ++Depth[Member];
    }
  }
}
