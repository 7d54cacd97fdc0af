//===- opts/ScopedStamps.h - Scoped stamp refinement -------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A refinement overlay over a StampMap with undo support, used by both
/// conditional elimination and the DBDS simulation tier while walking the
/// dominator tree: entering a branch successor narrows the condition's
/// operands; leaving the subtree restores the previous knowledge. The
/// overlay is a vector indexed by Instruction::getId(), grown on refine.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_OPTS_SCOPEDSTAMPS_H
#define DBDS_OPTS_SCOPEDSTAMPS_H

#include "analysis/StampMap.h"

#include <optional>
#include <vector>

namespace dbds {

/// Scoped refinement overlay on top of a StampMap.
class ScopedStamps {
public:
  /// One undo log; callers keep one per scope and replay it on exit.
  using UndoLog = std::vector<std::pair<Instruction *, std::optional<Stamp>>>;

  explicit ScopedStamps(StampMap &Base) : Base(Base) {}

  /// The refined stamp of \p I (falls back to the base map).
  Stamp get(Instruction *I) {
    if (I->getId() < Overlay.size() && Overlay[I->getId()])
      return *Overlay[I->getId()];
    return Base.get(I);
  }

  /// Narrows \p I to the meet of its current stamp and \p S, appending the
  /// previous state to \p Undo. No-op on contradictions (dead code) or
  /// when nothing new is learned.
  void refine(Instruction *I, const Stamp &S, UndoLog &Undo);

  /// Records everything a condition being \p Holds implies: the condition
  /// value itself, and range refinements of compared operands.
  void refineByCondition(Instruction *Cond, bool Holds, UndoLog &Undo);

  /// Restores the state recorded in \p Undo (reverse order).
  void undo(const UndoLog &Undo);

private:
  StampMap &Base;
  std::vector<std::optional<Stamp>> Overlay; ///< Indexed by instruction id.
};

} // namespace dbds

#endif // DBDS_OPTS_SCOPEDSTAMPS_H
