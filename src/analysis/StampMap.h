//===- analysis/StampMap.h - On-demand forward stamp computation ----*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoized, on-demand forward stamps for SSA values (no control-flow
/// refinement — conditional elimination layers refinement on top). Phi
/// cycles are broken by assuming top for in-progress values.
///
/// The memo and the in-progress marks are vectors indexed by
/// Instruction::getId(), grown to Function::getMaxInstId() whenever a query
/// reaches an id past their end (the first query, a fold's replacement, a
/// simulation scratch node). A map therefore serves one function. The pool
/// never frees an instruction, so an id names one instruction until
/// Function::restoreFrom rebuilds and renumbers the body; a map does not
/// outlive that.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_ANALYSIS_STAMPMAP_H
#define DBDS_ANALYSIS_STAMPMAP_H

#include "analysis/Stamp.h"

#include <vector>

namespace dbds {

/// Whole-function stamp oracle. Stamps describe value semantics, so memoized
/// entries stay valid across use-rewriting transformations.
class StampMap {
public:
  /// The best known stamp of \p I. Every query must name an instruction of
  /// the same function.
  Stamp get(Instruction *I);

private:
  enum class State : uint8_t { Unknown, InProgress, Done };
  const Function *Owner = nullptr; ///< Set by the first query.
  std::vector<Stamp> Memo;    ///< Valid where States says Done.
  std::vector<State> States;
};

} // namespace dbds

#endif // DBDS_ANALYSIS_STAMPMAP_H
