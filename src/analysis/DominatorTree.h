//===- analysis/DominatorTree.h - Dominance information ---------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm, plus
/// dominance frontiers and iterated dominance frontiers (used by the SSA
/// reconstruction the duplication transformation needs, paper §3.1), and a
/// depth-first dominator-tree traversal order (the backbone of the DBDS
/// simulation tier, paper §4.1).
///
/// Per-block facts live in a vector indexed by Block::getId(), sized by
/// Function::getMaxBlockId() when the tree is built. Block ids are never
/// reused, so an entry describes at most one block; blocks erased since
/// leave holes, and blocks created since fall past the end (unreachable).
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_ANALYSIS_DOMINATORTREE_H
#define DBDS_ANALYSIS_DOMINATORTREE_H

#include "ir/Block.h"
#include "ir/Function.h"

#include <vector>

namespace dbds {

/// Dominance information for one function. Invalidated by any CFG edit;
/// rebuild after mutating control flow.
class DominatorTree {
public:
  explicit DominatorTree(Function &F);

  /// The immediate dominator of \p B, or null for the entry block.
  Block *getIdom(Block *B) const;

  /// True if \p A dominates \p B (reflexive).
  bool dominates(Block *A, Block *B) const;

  /// True if \p A strictly dominates \p B.
  bool strictlyDominates(Block *A, Block *B) const {
    return A != B && dominates(A, B);
  }

  /// True if the definition \p Def is available at \p User (i.e. dominates
  /// every use site; phi uses count at the corresponding predecessor).
  bool dominatesUse(Instruction *Def, Instruction *User) const;

  /// Dominator-tree children of \p B.
  const std::vector<Block *> &children(Block *B) const;

  /// Blocks in reverse post order over the CFG.
  const std::vector<Block *> &rpo() const { return RPO; }

  /// Blocks in a depth-first pre-order of the dominator tree. This is the
  /// traversal order the simulation tier walks (paper Figure 2).
  const std::vector<Block *> &domPreOrder() const { return PreOrder; }

  /// Dominance frontier of \p B.
  const std::vector<Block *> &frontier(Block *B) const;

  /// Iterated dominance frontier of a set of definition blocks: the phi
  /// insertion points for SSA reconstruction.
  std::vector<Block *>
  iteratedFrontier(const std::vector<Block *> &Defs) const;

  /// True if \p B was reachable when the tree was built.
  bool isReachable(Block *B) const {
    assert(B->getFunction() == &F && "block of another function");
    return B->getId() < Info.size() && Info[B->getId()].Idom;
  }

private:
  struct NodeInfo {
    Block *Idom = nullptr; ///< Null iff unreachable; the entry's is itself.
    unsigned RPOIndex = 0;
    unsigned DFSIn = 0, DFSOut = 0;
    std::vector<Block *> Children;
    std::vector<Block *> Frontier;
  };

  const NodeInfo &info(Block *B) const {
    assert(isReachable(B) && "block unknown to the dominator tree "
                             "(unreachable or CFG changed)");
    return Info[B->getId()];
  }

  Function &F;
  std::vector<Block *> RPO;
  std::vector<Block *> PreOrder;
  std::vector<NodeInfo> Info; ///< Indexed by Block::getId().
};

} // namespace dbds

#endif // DBDS_ANALYSIS_DOMINATORTREE_H
