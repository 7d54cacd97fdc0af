//===- telemetry/DecisionLog.h - DBDS duplication decision log --*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An "optimization remarks" stream for DBDS: one structured record per
/// duplication candidate the trade-off tier ruled on (paper §5), carrying
/// the exact cost-model inputs (CyclesSaved, Probability, SizeCost,
/// current/initial unit size), the pass/fail result of each shouldDuplicate
/// clause (§5.4), the action-step opportunities the simulation tier saw
/// fire, and the final verdict. Code-growth-vs-speed trade-offs are only
/// debuggable when every accept/reject and its inputs are recorded
/// (cf. Breitner, Krause) — this log is that record, serialized as JSONL
/// so one grep answers "why was this merge (not) duplicated?".
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_TELEMETRY_DECISIONLOG_H
#define DBDS_TELEMETRY_DECISIONLOG_H

#include <cstdint>
#include <string>
#include <vector>

namespace dbds {

/// How often each action-step opportunity fired during one candidate's
/// duplication simulation traversal (paper §4.2's applicability checks).
struct OpportunityCounts {
  unsigned ConstantFolds = 0;
  unsigned StrengthReductions = 0;
  unsigned ConditionalEliminations = 0;
  unsigned ReadEliminations = 0;
  unsigned AllocationSinks = 0;
  unsigned PartialEscapes = 0;

  unsigned total() const {
    return ConstantFolds + StrengthReductions + ConditionalEliminations +
           ReadEliminations + AllocationSinks + PartialEscapes;
  }

  OpportunityCounts &operator+=(const OpportunityCounts &O) {
    ConstantFolds += O.ConstantFolds;
    StrengthReductions += O.StrengthReductions;
    ConditionalEliminations += O.ConditionalEliminations;
    ReadEliminations += O.ReadEliminations;
    AllocationSinks += O.AllocationSinks;
    PartialEscapes += O.PartialEscapes;
    return *this;
  }
};

/// Pass/fail of each clause of the §5.4 trade-off function
///   (b > 0) && (b * p * BS > c) && (cs < MS) && (cs + c < is * IB).
struct TradeoffClauses {
  bool PositiveCyclesSaved = false;  ///< b > 0
  bool BenefitOutweighsCost = false; ///< b * p * BS > c
  bool UnderMaxUnitSize = false;     ///< cs < MS
  bool WithinGrowthBudget = false;   ///< cs + c < is * IB

  bool pass() const {
    return PositiveCyclesSaved && BenefitOutweighsCost && UnderMaxUnitSize &&
           WithinGrowthBudget;
  }

  /// Name of the first failing clause ("" when all pass) — the one-word
  /// answer to "why was this candidate rejected?".
  const char *firstFailing() const {
    if (!PositiveCyclesSaved)
      return "positive-cycles-saved";
    if (!BenefitOutweighsCost)
      return "benefit-outweighs-cost";
    if (!UnderMaxUnitSize)
      return "under-max-unit-size";
    if (!WithinGrowthBudget)
      return "within-growth-budget";
    return "";
  }
};

/// Final ruling on one candidate.
enum class DecisionVerdict : uint8_t {
  Accepted,         ///< Duplicated by the optimization tier.
  RejectedTradeoff, ///< A shouldDuplicate clause failed (dbds config).
  RejectedNoBenefit,///< dupalot: no cycles saved.
  RejectedSizeLimit,///< dupalot: hard VM size limit reached.
  RejectedStale,    ///< Candidate no longer valid against the current CFG.
  RolledBack,       ///< Accepted, then the round failed verification.
};

const char *decisionVerdictName(DecisionVerdict V);

/// SimAudit's post-hoc classification of one decision (analysis/SimAudit.h):
/// how the simulation's prediction compares against dataflow-proven facts
/// on the IR that actually shipped.
enum class AuditVerdict : uint8_t {
  Unaudited,   ///< No audit ran (the default; keeps legacy streams stable).
  Confirmed,   ///< The prediction matches the post-duplication facts.
  Overclaimed, ///< Accepted, yet provably-foldable residue remains.
  Underclaimed,///< Rejected as useless, yet per-edge facts prove a fold.
  Skipped,     ///< Not classifiable (stale ids, rolled-back round).
};

const char *auditVerdictName(AuditVerdict V);

/// One per-candidate record.
struct DuplicationDecision {
  std::string FunctionName;
  unsigned Iteration = 0; ///< 0-based DBDS iteration (§5.2, up to 3).
  unsigned MergeId = 0;
  unsigned PredId = 0;
  static constexpr unsigned InvalidBlock = ~0u;
  unsigned SecondMergeId = InvalidBlock; ///< Path candidates (§8) only.

  // The exact shouldDuplicate inputs (§5.4).
  double CyclesSaved = 0.0;
  double Probability = 0.0;
  int64_t SizeCost = 0;
  uint64_t CurrentSize = 0;
  uint64_t InitialSize = 0;

  OpportunityCounts Opportunities;

  /// False under dupalot / stale rejection: the clause values were never
  /// evaluated.
  bool TradeoffEvaluated = false;
  TradeoffClauses Clauses;

  DecisionVerdict Verdict = DecisionVerdict::RejectedStale;
  /// Merge blocks actually copied for this candidate (1, or 2 for a path
  /// candidate whose continuation was applied).
  unsigned DuplicationsPerformed = 0;

  /// SimAudit classification; Unaudited (and unrendered) unless an audit
  /// pass ran over this record.
  AuditVerdict Audit = AuditVerdict::Unaudited;

  /// One-line JSON object (the JSONL remarks record).
  std::string renderJson() const;
};

/// Append-only log of decisions across a compilation session. Not
/// thread-safe; use one log per pipeline invocation (like
/// DiagnosticEngine).
class DecisionLog {
public:
  /// Appends \p D and returns its index (for later markRolledBackFrom).
  size_t append(DuplicationDecision D);

  /// Re-verdicts every Accepted decision for \p FunctionName at index >=
  /// \p FirstIndex as RolledBack: the transactional DBDS round they were
  /// part of was restored to its pre-round snapshot, so the duplications
  /// no longer exist in the IR.
  void markRolledBackFrom(size_t FirstIndex, const std::string &FunctionName);

  /// Splices every record of \p Other (in Other's order) onto the end of
  /// this log, leaving \p Other empty. The parallel compile service gives
  /// each function task its own log and merges them here in function index
  /// order at join time, so a --jobs=N remarks stream is byte-identical to
  /// the serial one.
  void merge(DecisionLog &&Other);

  const std::vector<DuplicationDecision> &decisions() const {
    return Decisions;
  }

  /// Mutable view for post-hoc annotation passes (SimAudit writes each
  /// record's AuditVerdict in place after classification).
  std::vector<DuplicationDecision> &mutableDecisions() { return Decisions; }
  bool empty() const { return Decisions.empty(); }
  void clear() { Decisions.clear(); }

  /// All records as JSONL (one JSON object per line).
  std::string renderJsonl() const;

  /// Human-oriented summary lines.
  std::string renderText() const;

  /// Writes the JSONL stream to \p Path; false + \p Error on I/O failure.
  bool writeJsonl(const std::string &Path,
                  std::string *Error = nullptr) const;

private:
  std::vector<DuplicationDecision> Decisions;
};

} // namespace dbds

#endif // DBDS_TELEMETRY_DECISIONLOG_H
