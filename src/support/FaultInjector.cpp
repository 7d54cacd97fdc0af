//===- support/FaultInjector.cpp - Deterministic fault injection -----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

using namespace dbds;

FaultKind FaultInjector::at(const char *Site) {
  (void)Site; // Sites key diagnostics, not the decision stream: decisions
              // must stay aligned across runs even if site names change.
  ++Sites;
  if (!Gen.nextBool(Rate))
    return FaultKind::None;
  ++Injected;
  // Fired faults alternate, starting with IR corruption (fault #1 corrupts).
  return Injected % 2 == 1 ? FaultKind::CorruptIR : FaultKind::PhaseFailure;
}
