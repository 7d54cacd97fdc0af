//===- analysis/Loops.h - Natural loop detection ----------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Back-edge based natural loop detection. DBDS never duplicates a loop
/// header (that would be loop peeling, which the paper defers to future
/// work), and the static frequency estimator weights loop bodies.
///
/// A block is a loop header iff it is the target of a back edge; the static
/// isHeader answers that from the dominator tree alone, and isLoopHeader
/// asks it of the tree the LoopInfo was built over, which must outlive it.
/// Nesting depths live in a vector indexed by Block::getId(), sized by
/// Function::getMaxBlockId(); blocks created after the analysis ran read as
/// depth 0 and, being unreachable in the tree, not a header.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_ANALYSIS_LOOPS_H
#define DBDS_ANALYSIS_LOOPS_H

#include "analysis/DominatorTree.h"

#include <vector>

namespace dbds {

/// Loop structure of one function (header test + per-block nesting depth).
class LoopInfo {
public:
  LoopInfo(Function &F, const DominatorTree &DT);

  /// True if \p B is the header of a natural loop.
  bool isLoopHeader(Block *B) const { return isHeader(B, DT); }

  /// Number of loops containing \p B (0 outside any loop).
  unsigned loopDepth(Block *B) const {
    return B->getId() < Depth.size() ? Depth[B->getId()] : 0;
  }

  /// True if edge \p From -> \p To is a back edge (target dominates source).
  static bool isBackEdge(Block *From, Block *To, const DominatorTree &DT) {
    return DT.isReachable(From) && DT.isReachable(To) &&
           DT.dominates(To, From);
  }

  /// True if \p M is the target of a back edge, i.e. the header of a
  /// natural loop; needs no loop bodies.
  static bool isHeader(Block *M, const DominatorTree &DT) {
    for (Block *P : M->preds())
      if (isBackEdge(P, M, DT))
        return true;
    return false;
  }

private:
  const DominatorTree &DT;
  std::vector<unsigned> Depth; ///< Indexed by Block::getId().
};

} // namespace dbds

#endif // DBDS_ANALYSIS_LOOPS_H
