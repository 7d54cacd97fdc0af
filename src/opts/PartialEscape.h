//===- opts/PartialEscape.h - Partial escape analysis ------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partial escape analysis with scalar replacement and lazy
/// materialization (paper §5.2, after Stadler's PEA), split across two
/// phases that share one escape classification. Read elimination owns the
/// flow-sensitive half: its MemoryState keeps an allocation fresh from its
/// definition to its first escaping use *on that path*, so field loads
/// forward even for allocations that escape later and an escape on one
/// branch does not poison the sibling. This phase owns the whole-function
/// half: once those loads are gone, an allocation with no escaping use is
/// deleted with its initializer stores, and one whose escapes are confined
/// to one dominated block materializes lazily there instead of on every
/// path.
///
/// This is the optimization DBDS duplication unlocks: an allocation that
/// escapes only through a merge phi becomes scalar-replaceable once the
/// merge is duplicated away (Listing 3), which the Simulator prices as
/// AllocationSinks/PartialEscapes opportunities.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_OPTS_PARTIALESCAPE_H
#define DBDS_OPTS_PARTIALESCAPE_H

#include "opts/Canonicalize.h"
#include "opts/Phase.h"

namespace dbds {

class NewInst;

/// Classifies one use of allocation \p New, with \p User's operands seen
/// through \p Resolve. A use is *non-escaping* when it can never make the
/// object observable to the rest of the program: loading a field of the
/// object, or storing a value *into* the object. Everything else — being
/// stored as a value, any Call or Invoke operand, flowing into a phi,
/// being returned or compared — escapes. The per-opcode classification is
/// explicit so Call and Invoke (and phi forwarding) are handled
/// consistently rather than falling through a default case.
bool useEscapesAllocation(const NewInst *New, const Instruction *User,
                          const Resolver &Resolve = identityResolver);

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
/// read elimination forwards them). SinksTo(B): \p New's block and B are
/// loop-free, every initializer store sits in \p New's block, no load
/// remains, and every remaining escape is a non-phi in the one block B
/// that \p New's block strictly dominates.
EscapeFate escapeFate(NewInst *New, const DominatorTree &DT,
                      const LoopInfo &LI,
                      const Instruction *DroppedUse = nullptr);

/// Per-function statistics for one PartialEscapePhase::run invocation.
struct PartialEscapeStats {
  unsigned AllocationsTracked = 0; ///< allocations whose fate was asked
  unsigned StoresEliminated = 0;   ///< initializer stores deleted
  unsigned AllocsScalarReplaced = 0; ///< allocations deleted outright
  unsigned AllocsSunk = 0; ///< allocations materialized at their escape
};

/// The PEA phase: scalar replacement of never-escaping allocations and
/// lazy materialization (sinking New + initializer stores into the single
/// dominated block that holds every escape), both decided by escapeFate.
/// Runs inside the standard cleanup pipeline right after read
/// elimination, which forwards the loads scalar replacement needs gone,
/// and after duplication harvests the opportunities the Simulator
/// predicted.
class PartialEscapePhase : public Phase {
public:
  const char *name() const override { return "partial-escape"; }
  bool run(Function &F) override;

  /// As run(), reporting per-invocation statistics into \p Stats.
  bool run(Function &F, PartialEscapeStats &Stats);
};

} // namespace dbds

#endif // DBDS_OPTS_PARTIALESCAPE_H
