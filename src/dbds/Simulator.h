//===- dbds/Simulator.h - The DBDS simulation tier --------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulation tier of the DBDS algorithm (paper §4.1): a depth-first
/// traversal of the dominator tree that, at every predecessor of a merge,
/// pauses and runs a *duplication simulation traversal* (DST) — processing
/// the merge block as if the predecessor dominated it. Phis are resolved
/// through a synonym map (phi -> its input on that predecessor), the
/// applicability checks of all five optimizations are evaluated against
/// the resolved operands, and each triggered action step contributes a
/// cycles-saved benefit and a code-size effect from the static node cost
/// model. No IR is mutated (scratch nodes produced by action steps are
/// discarded); the output is one DuplicationCandidate per pair.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_DBDS_SIMULATOR_H
#define DBDS_DBDS_SIMULATOR_H

#include "dbds/Candidate.h"
#include "ir/Function.h"

#include <vector>

namespace dbds {

/// Aggregate details of what the simulation saw (exposed for tests and
/// the ablation benches).
struct SimulationStats {
  unsigned PairsSimulated = 0;
  unsigned PathsSimulated = 0; ///< Two-merge DSTs (§8 extension).
  OpportunityCounts Opportunities; ///< Summed over every DST.
};

/// Simulates every predecessor->merge duplication in \p F and returns the
/// candidates that showed any optimization potential, unsorted.
///
/// \p ClassTable enables freshness reasoning for allocations (may be
/// null). \p Stats, when non-null, receives aggregate counters.
/// \p MaxPathLength > 1 additionally continues each DST through a merge
/// that ends in a jump to another merge (paper §8: "the simulation tier
/// can simulate along paths"), emitting a separate path candidate when
/// the extension discovered extra benefit.
std::vector<DuplicationCandidate>
simulateDuplications(Function &F, const Module *ClassTable,
                     SimulationStats *Stats = nullptr,
                     unsigned MaxPathLength = 1);

} // namespace dbds

#endif // DBDS_DBDS_SIMULATOR_H
