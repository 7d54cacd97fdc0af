//===- opts/MemoryState.h - Field availability map --------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory knowledge read elimination and the DBDS simulation tier
/// track: which (object, field) locations hold which SSA value, plus the
/// set of allocations still fresh on the current dominator path (defined
/// on it and not yet escaped on it), whose fields stay exactly known
/// across calls and aliasing stores. Value-copyable so traversals can
/// fork per dominator-tree child: each branch keeps its own escape
/// history.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_OPTS_MEMORYSTATE_H
#define DBDS_OPTS_MEMORYSTATE_H

#include "ir/Function.h"
#include "opts/Canonicalize.h"

#include <unordered_map>
#include <unordered_set>

namespace dbds {

class DominatorTree;

/// A flow-sensitive (object, field) -> value map with path-local
/// freshness. (The escape classification it consults lives in
/// opts/PartialEscape.h.)
class MemoryState {
public:
  /// The one merge-entry rule: a block another path than its immediate
  /// dominator may reach (a merge, or a loop header via its back edge)
  /// trusts no memory fact, so entering it forgets everything.
  void enter(Block *B, const DominatorTree &DT);

  /// Forgets everything.
  void clear();

  /// Registers an allocation: it is fresh from here until its first
  /// escaping use on this path, and its \p NumFields fields are known to
  /// be zero.
  void recordAllocation(NewInst *New, unsigned NumFields);

  /// Ends the freshness of every fresh allocation that \p User lets
  /// escape, with \p User's operands seen through \p Resolve. Call it
  /// before applying \p User's own effect: a call that receives a fresh
  /// object may then write it.
  void recordEscapes(const Instruction *User,
                     const Resolver &Resolve = identityResolver) {
    if (!Fresh.empty())
      endEscapingFreshness(User, Resolve);
  }

  /// Applies \p I's own memory effect, its operands taken as they are: an
  /// allocation (field counts from \p ClassTable, may be null), a
  /// performed load, a store, or an opaque call. Other instructions have
  /// none.
  void recordEffect(Instruction *I, const Module *ClassTable);

  /// Applies a store: kills may-alias entries, records the new value.
  void recordStore(Instruction *Object, unsigned Field, Instruction *Value);

  /// Records availability without any kill (reads do not invalidate).
  void recordAvailable(Instruction *Object, unsigned Field,
                       Instruction *Value);

  /// The value known to live at (\p Object, \p Field), or null.
  Instruction *lookup(Instruction *Object, unsigned Field) const;

  /// Applies an opaque call: kills everything except fresh allocations.
  void killForCall();

  bool isFresh(Instruction *Object) const {
    return Fresh.count(Object) != 0;
  }

private:
  void endEscapingFreshness(const Instruction *User, const Resolver &Resolve);

  struct KeyHash {
    size_t operator()(const std::pair<Instruction *, unsigned> &K) const {
      return std::hash<Instruction *>()(K.first) * 31 + K.second;
    }
  };

  std::unordered_map<std::pair<Instruction *, unsigned>, Instruction *,
                     KeyHash>
      Available;
  std::unordered_set<Instruction *> Fresh;
};

} // namespace dbds

#endif // DBDS_OPTS_MEMORYSTATE_H
