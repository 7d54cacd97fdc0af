//===- vm/Interpreter.h - IR interpreter with cycle accounting --*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate standing in for the paper's hardware testbed
/// (DESIGN.md §2): a direct IR interpreter that (a) produces the program's
/// observable result — the correctness oracle for every optimization —
/// and (b) accumulates the static cost model's cycle estimate for every
/// executed instruction, which is the reproduction's "peak performance"
/// metric (fewer dynamic cycles = faster machine code), and (c) collects
/// the branch/block profiles that feed DBDS's probability term (the role
/// HotSpot profiling plays in §5.3).
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_VM_INTERPRETER_H
#define DBDS_VM_INTERPRETER_H

#include "ir/Function.h"
#include "support/ArrayRef.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace dbds {

/// A runtime value: a 64-bit integer, or an object reference (heap index,
/// -1 for null).
struct RuntimeValue {
  int64_t Scalar = 0;
  bool IsObject = false;

  static RuntimeValue ofInt(int64_t V) { return {V, false}; }
  static RuntimeValue null() { return {-1, true}; }
  static RuntimeValue object(int64_t HeapIndex) { return {HeapIndex, true}; }

  bool isNull() const { return IsObject && Scalar < 0; }
};

/// Branch and block execution counts from one or more runs.
struct ProfileSummary {
  /// Per-If (taken, total) counts.
  std::unordered_map<const Instruction *, std::pair<uint64_t, uint64_t>>
      IfCounts;
  /// Per-block execution counts.
  std::unordered_map<const Block *, uint64_t> BlockCounts;
};

/// Writes profiled probabilities back into the IR: each profiled IfInst's
/// true-probability becomes taken/total (untouched when never executed).
/// This mirrors HotSpot profile injection (§5.3).
void applyProfile(Function &F, const ProfileSummary &Profile);

/// Outcome of one interpretation.
struct ExecutionResult {
  bool Ok = false;            ///< False on fuel exhaustion or missing ret.
  RuntimeValue Result;        ///< Return value (undefined for void ret).
  bool HasResult = false;     ///< True when the program returned a value.
  uint64_t DynamicCycles = 0; ///< Cost-model cycles of executed code.
  uint64_t Steps = 0;         ///< Instructions executed.
};

/// Observes every value an instruction produces during interpretation
/// (phi commits included). Drivers use this to build the observation maps
/// the stamp-soundness lint rule cross-checks stamps against (irlint
/// --dynamic); see analysis/Lint.h.
using ValueObserver =
    std::function<void(const Instruction *, const RuntimeValue &)>;

/// Interprets functions of one module. Owns a heap that persists across
/// run() calls until reset() — callers preparing object arguments allocate
/// first, then run.
class Interpreter {
public:
  explicit Interpreter(const Module &M) : M(M) {}

  /// Installs \p O to be called with every produced value (pass an empty
  /// function to remove). Observation slows interpretation; leave unset
  /// outside lint/debug drivers.
  void setObserver(ValueObserver O) { Observer = std::move(O); }

  /// Enables the instruction-cache pressure model: every block transition
  /// costs extra cycles once the compilation unit's code size exceeds
  /// \p Threshold, growing by one cycle per \p Step beyond it (capped at
  /// \p Cap). This models the effect behind the paper's §6.2 observation
  /// that duplicating everything can *reduce* peak performance (octane
  /// raytrace, -15% under dupalot): code growth is not free on real
  /// hardware. Off by default so the pure cost model stays monotone.
  void enableCodeSizePenalty(uint64_t Threshold = 256, uint64_t Step = 64,
                             uint64_t Cap = 6) {
    PenaltyThreshold = Threshold;
    PenaltyStep = Step;
    PenaltyCap = Cap;
    PenaltyEnabled = true;
  }

  /// Discards all heap objects.
  void reset() { Heap.clear(); }

  /// Allocates an object of class \p ClassId (fields zeroed) and returns
  /// its reference.
  RuntimeValue allocate(unsigned ClassId);

  /// Reads a field of \p Object (test/example convenience).
  int64_t readField(RuntimeValue Object, unsigned Field) const;

  /// Writes a field of \p Object (test/example convenience).
  void writeField(RuntimeValue Object, unsigned Field, int64_t Value);

  /// Runs \p F on \p Args. Execution stops unsuccessfully after \p Fuel
  /// instructions. When \p Profile is non-null, branch/block counts are
  /// accumulated into it.
  ExecutionResult run(Function &F, ArrayRef<RuntimeValue> Args,
                      uint64_t Fuel = 1u << 22,
                      ProfileSummary *Profile = nullptr);

  /// Convenience overload for integer-only argument lists.
  ExecutionResult run(Function &F, ArrayRef<int64_t> Args,
                      uint64_t Fuel = 1u << 22,
                      ProfileSummary *Profile = nullptr);

private:
  ExecutionResult execute(Function &F, ArrayRef<RuntimeValue> Args,
                          uint64_t &FuelRemaining, ProfileSummary *Profile,
                          unsigned Depth);

  struct HeapObject {
    unsigned ClassId;
    std::vector<RuntimeValue> Fields;
  };

  HeapObject &objectAt(const RuntimeValue &Ref);
  const HeapObject &objectAt(const RuntimeValue &Ref) const;

  const Module &M;
  ValueObserver Observer;
  std::vector<HeapObject> Heap;
  bool PenaltyEnabled = false;
  uint64_t PenaltyThreshold = 256;
  uint64_t PenaltyStep = 64;
  uint64_t PenaltyCap = 6;
};

} // namespace dbds

#endif // DBDS_VM_INTERPRETER_H
