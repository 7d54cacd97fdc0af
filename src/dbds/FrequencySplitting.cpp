//===- dbds/FrequencySplitting.cpp - Self-style splitting baseline --------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dbds/FrequencySplitting.h"

#include "analysis/BlockFrequency.h"
#include "analysis/Loops.h"
#include "analysis/Verifier.h"
#include "dbds/Duplicator.h"
#include "opts/Phase.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace dbds;

SplittingResult dbds::runFrequencySplitting(Function &F,
                                            const SplittingConfig &Config) {
  SplittingResult Result;
  uint64_t InitialSize = F.estimatedCodeSize();
  PhaseManager Cleanup =
      PhaseManager::standardPipeline(Config.Verify, Config.ClassTable);

  for (unsigned Iter = 0; Iter != Config.MaxIterations; ++Iter) {
    ++Result.IterationsRun;
    // Collect hot pairs; no simulation — weight and cost only.
    struct Pair {
      unsigned MergeId, PredId;
      double Weight;
    };
    std::vector<Pair> Pairs;
    {
      DominatorTree DT(F);
      LoopInfo LI(F, DT);
      BlockFrequency Freq = BlockFrequency::computeStatic(F, DT, LI);
      for (Block *M : F.blocks()) {
        if (!M->isMerge() || LI.isLoopHeader(M) || !DT.isReachable(M))
          continue;
        for (Block *P : M->preds()) {
          if (!canDuplicateInto(M, P))
            continue;
          double Weight = Freq.relativeFrequency(P);
          if (Weight >= Config.HotThreshold)
            Pairs.push_back({M->getId(), P->getId(), Weight});
        }
      }
      std::sort(Pairs.begin(), Pairs.end(), [](const Pair &A, const Pair &B) {
        if (A.Weight != B.Weight)
          return A.Weight > B.Weight;
        return A.MergeId < B.MergeId;
      });
    }

    bool Changed = false;
    for (const Pair &P : Pairs) {
      if (F.estimatedCodeSize() >=
              static_cast<uint64_t>(static_cast<double>(InitialSize) *
                                    Config.IncreaseBudget) ||
          F.estimatedCodeSize() >= Config.MaxUnitSize)
        break;
      Block *M = F.getBlockById(P.MergeId);
      Block *Pred = F.getBlockById(P.PredId);
      if (!M || !Pred || !canDuplicateInto(M, Pred))
        continue;
      {
        DominatorTree DT(F);
        if (!DT.isReachable(M) || LoopInfo::isHeader(M, DT))
          continue;
      }
      duplicateIntoPredecessor(F, M, Pred);
      ++Result.Duplications;
      Changed = true;
      if (Config.Verify) {
        std::string Error = verifyFunction(F);
        if (!Error.empty()) {
          fprintf(stderr, "verifier failed after splitting on @%s: %s\n",
                  F.getName().c_str(), Error.c_str());
          abort();
        }
      }
    }
    if (!Changed)
      break;
    Cleanup.run(F);
  }
  return Result;
}
