//===- opts/PartialEscape.h - Partial escape analysis ------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flow- and branch-sensitive partial escape analysis with scalar
/// replacement (paper §5.2, after Stadler's PEA). Allocations are tracked
/// as virtual objects along the dominator tree: field values stay exactly
/// known until the first true escape *on that path*, so loads forward even
/// for allocations that escape later, escapes on one branch do not poison
/// the sibling branch, and allocations whose escapes are confined to one
/// dominated block materialize lazily there instead of on every path.
///
/// This is the optimization DBDS duplication unlocks: an allocation that
/// escapes only through a merge phi becomes scalar-replaceable once the
/// merge is duplicated away (Listing 3), which the Simulator prices as
/// AllocationSinks/PartialEscapes opportunities.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_OPTS_PARTIALESCAPE_H
#define DBDS_OPTS_PARTIALESCAPE_H

#include "opts/Phase.h"

namespace dbds {

class NewInst;

/// Classifies one use of allocation \p New. A use is *non-escaping* when
/// it can never make the object observable to the rest of the program:
/// loading a field of the object, or storing a value *into* the object.
/// Everything else — being stored as a value, any Call or Invoke operand,
/// flowing into a phi, being returned or compared — escapes. The per-
/// opcode classification is explicit so Call and Invoke (and phi
/// forwarding) are handled consistently rather than falling through a
/// default case.
bool useEscapesAllocation(const NewInst *New, const Instruction *User);

/// True when no use of \p New escapes: its users are exactly field loads
/// from it and field stores into it. Such an allocation is invisible to
/// the rest of the program and may be scalar-replaced.
bool allocationDoesNotEscape(NewInst *New);

class DominatorTree;
class LoopInfo;

/// What partial escape analysis can make of an allocation.
struct EscapeFate {
  enum Kind {
    Stays,   ///< Escapes in a way the phase cannot remove or move.
    Dies,    ///< No escaping use: scalar-replaceable once loads forward.
    SinksTo, ///< Every escape sits in Sink: materialize it there.
  };
  Kind K = Stays;
  Block *Sink = nullptr; ///< The escape block (SinksTo only).
};

/// The one escape query shared by the phase and the Simulator, which asks
/// it with \p DroppedUse set to the merge phi that duplication removes.
/// Dies: no escaping use besides \p DroppedUse (field loads are ignored;
/// read elimination and the virtual-object walk forward them). SinksTo(B):
/// \p New's block and B are loop-free, every initializer store sits in
/// \p New's block, no load remains, and every remaining escape is a
/// non-phi in the one block B that \p New's block strictly dominates.
EscapeFate escapeFate(NewInst *New, const DominatorTree &DT,
                      const LoopInfo &LI,
                      const Instruction *DroppedUse = nullptr);

/// Per-function statistics for one PartialEscapePhase::run invocation.
struct PartialEscapeStats {
  unsigned AllocationsTracked = 0; ///< allocations ever virtual on a path
  unsigned LoadsForwarded = 0;     ///< loads replaced by known field values
  unsigned StoresEliminated = 0;   ///< initializer stores deleted
  unsigned AllocsScalarReplaced = 0; ///< allocations deleted outright
  unsigned AllocsSunk = 0; ///< allocations materialized at their escape
};

/// The PEA phase: virtual-object propagation (load forwarding), scalar
/// replacement of never-escaping allocations, and lazy materialization
/// (sinking New + initializer stores into the single dominated block that
/// holds every escape). Runs inside the standard cleanup pipeline after
/// duplication, where it harvests the opportunities the Simulator
/// predicted.
class PartialEscapePhase : public Phase {
public:
  /// \p ClassTable supplies field counts; pass null to disable virtual-
  /// object tracking (scalar replacement and sinking still run).
  explicit PartialEscapePhase(const Module *ClassTable = nullptr)
      : ClassTable(ClassTable) {}

  const char *name() const override { return "partial-escape"; }
  bool run(Function &F) override;

  /// As run(), reporting per-invocation statistics into \p Stats.
  bool run(Function &F, PartialEscapeStats &Stats);

private:
  const Module *ClassTable;
};

} // namespace dbds

#endif // DBDS_OPTS_PARTIALESCAPE_H
