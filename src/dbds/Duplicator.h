//===- dbds/Duplicator.h - Tail duplication transformation ------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization tier's code transformation (paper §4.3): copies a
/// merge block's instructions into one predecessor, substituting phi
/// inputs, detaches that predecessor from the merge, and restores SSA form
/// for values of the merge that are used in formerly-dominated blocks by
/// inserting phis on the iterated dominance frontier where a use needs
/// one — the "complex analysis to generate valid phi instructions for
/// usages in dominated blocks" of §3.1.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_DBDS_DUPLICATOR_H
#define DBDS_DBDS_DUPLICATOR_H

#include "analysis/DominatorTree.h"
#include "ir/Function.h"

#include <optional>

namespace dbds {

/// True if duplicating \p M into its predecessor \p P is structurally
/// possible: M is a merge, P ends with a jump to M, P != M, and M is not a
/// loop header (checked by the caller via LoopInfo; this predicate covers
/// the structural part).
bool canDuplicateInto(Block *M, Block *P);

/// Duplicates merge block \p M into its predecessor \p P (one
/// predecessor->merge pair, the unit the trade-off tier decides on).
/// Preconditions: canDuplicateInto(M, P) and M is not a loop header.
/// Leaves the function verifier-clean; follow-up folding is the cleanup
/// pipeline's job. When \p DomTree is given, it receives the dominator
/// tree of the post-duplication CFG that the SSA repair was built on.
void duplicateIntoPredecessor(Function &F, Block *M, Block *P,
                              std::optional<DominatorTree> *DomTree = nullptr);

} // namespace dbds

#endif // DBDS_DBDS_DUPLICATOR_H
