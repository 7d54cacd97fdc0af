//===- ir/Instruction.h - SSA instruction hierarchy -------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SSA instruction class hierarchy. This is the reproduction's stand-in
/// for Graal IR (paper §4.1): instead of a sea of floating nodes we keep a
/// block-structured SSA CFG — the DBDS algorithm is formulated over blocks,
/// merges, and the dominator tree, so nothing it needs is lost (DESIGN.md §5).
///
/// Instructions use LLVM-style hand-rolled RTTI (`isa<>/cast<>/dyn_cast<>`),
/// maintain explicit def-use chains, and carry the static cost-model
/// annotations (cycles / code size) from ir/Instructions.def.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_IR_INSTRUCTION_H
#define DBDS_IR_INSTRUCTION_H

#include "support/ArrayRef.h"
#include "support/Casting.h"
#include "support/SmallVector.h"

#include <cstdint>
#include <string>

namespace dbds {

class Block;
class Function;

/// Value types. Everything is either a 64-bit integer or an object
/// reference; comparisons produce integer 0/1.
enum class Type : uint8_t {
  Void, ///< No value (stores, terminators).
  Int,  ///< 64-bit signed integer.
  Obj,  ///< Object reference (possibly null).
};

/// Returns a human-readable name for \p Ty.
const char *typeName(Type Ty);

/// Instruction opcodes, generated from ir/Instructions.def.
enum class Opcode : uint8_t {
#define HANDLE_INST(Op, Class, Mnemonic, Cycles, Size) Op,
#include "ir/Instructions.def"
};

/// Number of opcodes (for table sizing).
constexpr unsigned NumOpcodes = 0
#define HANDLE_INST(Op, Class, Mnemonic, Cycles, Size) +1
#include "ir/Instructions.def"
    ;

/// Mnemonic for \p Op as printed/parsed in the textual IR format.
const char *opcodeMnemonic(Opcode Op);

/// Static cost model (paper §5.3): abstract cycle estimate per opcode.
uint32_t opcodeCycles(Opcode Op);

/// Static cost model (paper §5.3): abstract code size estimate per opcode.
uint32_t opcodeSize(Opcode Op);

/// Comparison predicates for CompareInst.
enum class Predicate : uint8_t { EQ, NE, LT, LE, GT, GE };

/// Mnemonic suffix for \p Pred ("eq", "ne", ...).
const char *predicateName(Predicate Pred);

/// The predicate with swapped operands (LT -> GT, ...).
Predicate swapPredicate(Predicate Pred);

/// The logically negated predicate (LT -> GE, ...).
Predicate negatePredicate(Predicate Pred);

/// Base class of all IR instructions.
///
/// Owns its operand list and maintains a user list so that
/// replaceAllUsesWith and dead-code detection are O(uses). Instructions are
/// allocated from and owned by their Function; Blocks only hold ordered
/// pointers.
class Instruction {
public:
  Instruction(const Instruction &) = delete;
  Instruction &operator=(const Instruction &) = delete;

  Opcode getOpcode() const { return Op; }
  Type getType() const { return Ty; }
  unsigned getId() const { return Id; }

  /// The block this instruction is currently inserted into, or null while
  /// detached (e.g. scratch nodes produced by simulation action steps).
  Block *getBlock() const { return Parent; }

  Function *getFunction() const { return Func; }

  unsigned getNumOperands() const { return Operands.size(); }

  Instruction *getOperand(unsigned Idx) const {
    assert(Idx < Operands.size() && "operand index out of range");
    return Operands[Idx];
  }

  ArrayRef<Instruction *> operands() const {
    return ArrayRef<Instruction *>(Operands.begin(), Operands.size());
  }

  /// Rewrites operand \p Idx to \p V, maintaining both use lists.
  void setOperand(unsigned Idx, Instruction *V);

  /// All instructions currently using this value (with multiplicity).
  ArrayRef<Instruction *> users() const {
    return ArrayRef<Instruction *>(Users.begin(), Users.size());
  }

  bool hasUsers() const { return !Users.empty(); }

  /// Rewrites every use of this value to \p New.
  void replaceAllUsesWith(Instruction *New);

  /// Removes every operand link (keeps operand use lists exact when a
  /// detached or scratch instruction is discarded).
  void dropAllOperands() {
    while (getNumOperands() != 0)
      removeOperand(getNumOperands() - 1);
  }

  /// True for If/Jump/Return.
  bool isTerminator() const {
    return Op >= Opcode::If && Op <= Opcode::Return;
  }

  /// True if this instruction has no observable side effect and can be
  /// removed when unused. Division is pure here: the interpreter defines
  /// x/0 == 0 (DESIGN.md), so no trap state exists.
  bool isPure() const {
    switch (Op) {
    case Opcode::StoreField:
    case Opcode::Call:
    case Opcode::Invoke:
    case Opcode::If:
    case Opcode::Jump:
    case Opcode::Return:
      return false;
    case Opcode::New:
      // Allocation is removable when unused (no finalizers), but must not
      // be reordered freely; we treat it as pure for DCE purposes only.
      return true;
    default:
      return true;
    }
  }

  /// True if the instruction reads or writes memory or has unknown effects
  /// (ordering-relevant for read elimination).
  bool touchesMemory() const {
    return Op == Opcode::LoadField || Op == Opcode::StoreField ||
           Op == Opcode::Call || Op == Opcode::Invoke || Op == Opcode::New;
  }

  /// Static cost model accessors (paper §5.3).
  uint32_t estimatedCycles() const { return opcodeCycles(Op); }
  uint32_t estimatedSize() const { return opcodeSize(Op); }

  static bool classof(const Instruction *) { return true; }

  /// Virtual anchor; instructions are owned and destroyed through the
  /// Function pool.
  virtual ~Instruction();

protected:
  Instruction(Opcode Op, Type Ty) : Op(Op), Ty(Ty) {}

  /// Appends an operand, maintaining use lists.
  void addOperand(Instruction *V);

  /// Removes operand \p Idx, maintaining use lists (shifts the tail).
  void removeOperand(unsigned Idx);

private:
  friend class Block;
  friend class Function;

  void addUser(Instruction *User) { Users.push_back(User); }
  void removeUser(Instruction *User);

  Opcode Op;
  Type Ty;
  unsigned Id = 0;
  Block *Parent = nullptr;
  Function *Func = nullptr;
  SmallVector<Instruction *, 2> Operands;
  SmallVector<Instruction *, 2> Users;
};

/// Integer or null-object constant.
class ConstantInst : public Instruction {
public:
  /// Integer constant.
  explicit ConstantInst(int64_t Value)
      : Instruction(Opcode::Constant, Type::Int), Value(Value) {}

  /// The null object constant.
  static ConstantInst makeNull() { return ConstantInst(Type::Obj); }

  int64_t getValue() const {
    assert(getType() == Type::Int && "value of non-integer constant");
    return Value;
  }

  bool isNull() const { return getType() == Type::Obj; }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::Constant;
  }

private:
  friend class Function;
  explicit ConstantInst(Type Ty) : Instruction(Opcode::Constant, Ty) {}

  int64_t Value = 0;
};

/// Function parameter reference.
class ParamInst : public Instruction {
public:
  ParamInst(unsigned Index, Type Ty)
      : Instruction(Opcode::Param, Ty), Index(Index) {}

  unsigned getIndex() const { return Index; }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::Param;
  }

private:
  unsigned Index;
};

/// Two-operand integer arithmetic.
class BinaryInst : public Instruction {
public:
  BinaryInst(Opcode Op, Instruction *LHS, Instruction *RHS)
      : Instruction(Op, Type::Int) {
    assert(classofOpcode(Op) && "not a binary opcode");
    addOperand(LHS);
    addOperand(RHS);
  }

  Instruction *getLHS() const { return getOperand(0); }
  Instruction *getRHS() const { return getOperand(1); }

  /// True for Add/Mul/And/Or/Xor.
  bool isCommutative() const {
    Opcode Op = getOpcode();
    return Op == Opcode::Add || Op == Opcode::Mul || Op == Opcode::And ||
           Op == Opcode::Or || Op == Opcode::Xor;
  }

  static bool classofOpcode(Opcode Op) {
    return Op >= Opcode::Add && Op <= Opcode::Shr;
  }

  static bool classof(const Instruction *I) {
    return classofOpcode(I->getOpcode());
  }
};

/// One-operand integer arithmetic (neg, not).
class UnaryInst : public Instruction {
public:
  UnaryInst(Opcode Op, Instruction *Val) : Instruction(Op, Type::Int) {
    assert(classofOpcode(Op) && "not a unary opcode");
    addOperand(Val);
  }

  Instruction *getValue() const { return getOperand(0); }

  static bool classofOpcode(Opcode Op) {
    return Op == Opcode::Neg || Op == Opcode::Not;
  }

  static bool classof(const Instruction *I) {
    return classofOpcode(I->getOpcode());
  }
};

/// Comparison producing integer 0/1. Object operands support EQ/NE only.
class CompareInst : public Instruction {
public:
  CompareInst(Predicate Pred, Instruction *LHS, Instruction *RHS)
      : Instruction(Opcode::Cmp, Type::Int), Pred(Pred) {
    addOperand(LHS);
    addOperand(RHS);
  }

  Predicate getPredicate() const { return Pred; }
  Instruction *getLHS() const { return getOperand(0); }
  Instruction *getRHS() const { return getOperand(1); }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::Cmp;
  }

private:
  Predicate Pred;
};

/// SSA phi: one input per predecessor of the parent block, in predecessor
/// order. The input/predecessor alignment is a verifier-checked invariant.
class PhiInst : public Instruction {
public:
  explicit PhiInst(Type Ty) : Instruction(Opcode::Phi, Ty) {}

  unsigned getNumInputs() const { return getNumOperands(); }
  Instruction *getInput(unsigned Idx) const { return getOperand(Idx); }
  void setInput(unsigned Idx, Instruction *V) { setOperand(Idx, V); }
  void appendInput(Instruction *V) { addOperand(V); }
  void removeInput(unsigned Idx) { removeOperand(Idx); }

  /// Returns the sole distinct input if all inputs agree (ignoring
  /// self-references), otherwise null.
  Instruction *getUniqueInput() const;

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::Phi;
  }
};

/// Object allocation of class \p ClassId; fields start zero-initialized.
/// Cost CYCLES_8/SIZE_8 mirrors Graal's AbstractNewObjectNode (Listing 7).
class NewInst : public Instruction {
public:
  explicit NewInst(unsigned ClassId)
      : Instruction(Opcode::New, Type::Obj), ClassId(ClassId) {}

  unsigned getClassId() const { return ClassId; }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::New;
  }

private:
  unsigned ClassId;
};

/// Field read: load (object).field[FieldIndex].
class LoadFieldInst : public Instruction {
public:
  LoadFieldInst(Instruction *Object, unsigned FieldIndex)
      : Instruction(Opcode::LoadField, Type::Int), FieldIndex(FieldIndex) {
    addOperand(Object);
  }

  Instruction *getObject() const { return getOperand(0); }
  unsigned getFieldIndex() const { return FieldIndex; }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::LoadField;
  }

private:
  unsigned FieldIndex;
};

/// Field write: (object).field[FieldIndex] = value.
class StoreFieldInst : public Instruction {
public:
  StoreFieldInst(Instruction *Object, unsigned FieldIndex, Instruction *Value)
      : Instruction(Opcode::StoreField, Type::Void), FieldIndex(FieldIndex) {
    addOperand(Object);
    addOperand(Value);
  }

  Instruction *getObject() const { return getOperand(0); }
  Instruction *getValue() const { return getOperand(1); }
  unsigned getFieldIndex() const { return FieldIndex; }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::StoreField;
  }

private:
  unsigned FieldIndex;
};

/// Opaque call with unknown side effects (kills all memory knowledge).
/// The interpreter gives it a deterministic pure-function semantics so that
/// program results stay comparable across optimization levels.
class CallInst : public Instruction {
public:
  CallInst(unsigned CalleeId, ArrayRef<Instruction *> Args)
      : Instruction(Opcode::Call, Type::Int), CalleeId(CalleeId) {
    for (Instruction *Arg : Args)
      addOperand(Arg);
  }

  unsigned getCalleeId() const { return CalleeId; }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::Call;
  }

private:
  unsigned CalleeId;
};

/// Direct call of another function in the same module, referenced by
/// name (stable across cloning). Returns an integer; unknown side effects
/// on escaped memory. No phase inlines it: the interpreter runs the callee
/// as a separate frame.
class InvokeInst : public Instruction {
public:
  InvokeInst(std::string CalleeName, ArrayRef<Instruction *> Args)
      : Instruction(Opcode::Invoke, Type::Int),
        CalleeName(std::move(CalleeName)) {
    for (Instruction *Arg : Args)
      addOperand(Arg);
  }

  const std::string &getCalleeName() const { return CalleeName; }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::Invoke;
  }

private:
  std::string CalleeName;
};

/// Conditional branch. Carries the profile-derived probability of the true
/// successor (paper §5.3: probabilities come from HotSpot profiling; here
/// from the dbds::vm profiler).
class IfInst : public Instruction {
public:
  IfInst(Instruction *Condition, Block *TrueSucc, Block *FalseSucc)
      : Instruction(Opcode::If, Type::Void), TrueSucc(TrueSucc),
        FalseSucc(FalseSucc) {
    addOperand(Condition);
  }

  Instruction *getCondition() const { return getOperand(0); }
  Block *getTrueSucc() const { return TrueSucc; }
  Block *getFalseSucc() const { return FalseSucc; }
  void setTrueSucc(Block *B) { TrueSucc = B; }
  void setFalseSucc(Block *B) { FalseSucc = B; }

  double getTrueProbability() const { return TrueProbability; }
  void setTrueProbability(double P) {
    assert(P >= 0.0 && P <= 1.0 && "probability out of range");
    TrueProbability = P;
  }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::If;
  }

private:
  Block *TrueSucc;
  Block *FalseSucc;
  double TrueProbability = 0.5;
};

/// Unconditional branch.
class JumpInst : public Instruction {
public:
  explicit JumpInst(Block *Target)
      : Instruction(Opcode::Jump, Type::Void), Target(Target) {}

  Block *getTarget() const { return Target; }
  void setTarget(Block *B) { Target = B; }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::Jump;
  }

private:
  Block *Target;
};

/// Function return, with an optional value.
class ReturnInst : public Instruction {
public:
  explicit ReturnInst(Instruction *Value)
      : Instruction(Opcode::Return, Type::Void) {
    if (Value)
      addOperand(Value);
  }

  bool hasValue() const { return getNumOperands() == 1; }
  Instruction *getValue() const {
    assert(hasValue() && "void return has no value");
    return getOperand(0);
  }

  static bool classof(const Instruction *I) {
    return I->getOpcode() == Opcode::Return;
  }
};

} // namespace dbds

#endif // DBDS_IR_INSTRUCTION_H
