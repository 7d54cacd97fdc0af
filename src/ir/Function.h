//===- ir/Function.h - Compilation unit -------------------------*- C++ -*-===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Function is one compilation unit: the unit DBDS simulates, budgets,
/// and duplicates within (paper §5.2/§5.4). It owns all blocks and the
/// instruction pool; Blocks hold ordered raw pointers.
///
//===----------------------------------------------------------------------===//

#ifndef DBDS_IR_FUNCTION_H
#define DBDS_IR_FUNCTION_H

#include "ir/Block.h"
#include "ir/Instruction.h"

#include <memory>
#include <string>
#include <vector>

namespace dbds {

/// An object class: a name and a field count. Fields are integer-valued.
struct ClassInfo {
  std::string Name;
  unsigned NumFields = 0;
};

/// One compilation unit.
class Function {
public:
  Function(std::string Name, unsigned NumParams,
           SmallVector<Type, 4> ParamTypes = {})
      : Name(std::move(Name)), NumParams(NumParams),
        ParamTypes(std::move(ParamTypes)) {
    while (this->ParamTypes.size() < NumParams)
      this->ParamTypes.push_back(Type::Int);
  }

  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &getName() const { return Name; }
  unsigned getNumParams() const { return NumParams; }
  Type getParamType(unsigned Idx) const {
    assert(Idx < NumParams && "parameter index out of range");
    return ParamTypes[Idx];
  }

  // ---- Blocks ----------------------------------------------------------

  /// Creates a new (empty, detached from control flow) block.
  Block *createBlock() {
    Blocks.push_back(std::unique_ptr<Block>(new Block(this, NextBlockId++)));
    return Blocks.back().get();
  }

  Block *getEntry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  /// Blocks in creation order (stable; removal preserves order).
  std::vector<Block *> blocks() const {
    std::vector<Block *> Result;
    Result.reserve(Blocks.size());
    for (const auto &B : Blocks)
      Result.push_back(B.get());
    return Result;
  }

  unsigned getNumBlocks() const {
    return static_cast<unsigned>(Blocks.size());
  }

  /// Finds a block by id; returns null if it was removed.
  Block *getBlockById(unsigned Id) const;

  /// Upper bound on block ids (for dense side tables). Ids are never
  /// reused, so erased blocks leave holes below the bound.
  unsigned getMaxBlockId() const { return NextBlockId; }

  /// Removes \p B from the function (must be unreachable / disconnected;
  /// instructions inside are detached). Storage stays in the pool.
  void eraseBlock(Block *B);

  // ---- Instruction creation -------------------------------------------

  /// Allocates an instruction of type \p InstT in the function pool. The
  /// instruction starts detached; insert it via Block::append and friends.
  template <typename InstT, typename... ArgTypes>
  InstT *create(ArgTypes &&...Args) {
    auto Owned = std::unique_ptr<InstT>(
        new InstT(std::forward<ArgTypes>(Args)...));
    InstT *I = Owned.get();
    I->Id = NextInstId++;
    I->Func = this;
    Pool.push_back(std::move(Owned));
    return I;
  }

  /// Convenience: integer constant (uniqued per value).
  ConstantInst *constant(int64_t Value);

  /// Convenience: the null constant (uniqued).
  ConstantInst *nullConstant();

  /// Upper bound on instruction ids (for dense side tables).
  unsigned getMaxInstId() const { return NextInstId; }

  // ---- Whole-function queries ------------------------------------------

  /// Static code size estimate: sum of per-instruction size estimates over
  /// all inserted instructions (paper §5.2 measures budget in size
  /// estimations, not node count).
  uint64_t estimatedCodeSize() const;

  /// Total number of inserted instructions.
  unsigned instructionCount() const;

  /// Deep copy of this function (used by the backtracking baseline, which
  /// must snapshot the whole IR per candidate — the cost the paper's §3.1
  /// measures at ~10x compile time).
  std::unique_ptr<Function> clone() const;

  /// Transactional rollback: discards this function's entire body and
  /// rebuilds it as a deep copy of \p Snapshot (typically a clone() taken
  /// before a mutating phase ran). The identity of the function object is
  /// preserved, so callers holding a Function& see the restored IR.
  /// \p Snapshot must have the same name and signature.
  void restoreFrom(const Function &Snapshot);

private:
  /// Deep-copies this function's body (blocks, instructions, CFG edges,
  /// phi wiring, constant uniquing state) into the empty function \p Dest.
  void cloneBodyInto(Function &Dest) const;

  std::string Name;
  unsigned NumParams;
  SmallVector<Type, 4> ParamTypes;
  std::vector<std::unique_ptr<Block>> Blocks;
  std::vector<std::unique_ptr<Instruction>> Pool;
  std::vector<std::pair<int64_t, ConstantInst *>> IntConstants;
  ConstantInst *NullConst = nullptr;
  unsigned NextBlockId = 0;
  unsigned NextInstId = 0;

  friend class Instruction;
};

/// Reverse post order over \p F's CFG from the entry block, visiting
/// successors in order. Unreachable blocks are omitted. Dominators appear
/// before the blocks they dominate.
std::vector<Block *> computeRPO(const Function &F);

/// A module: a class table plus a set of functions. This is the whole
/// "program" a workload consists of.
class Module {
public:
  /// Registers a class and returns its id.
  unsigned addClass(std::string Name, unsigned NumFields) {
    Classes.push_back({std::move(Name), NumFields});
    return static_cast<unsigned>(Classes.size() - 1);
  }

  const ClassInfo &getClass(unsigned Id) const {
    assert(Id < Classes.size() && "class id out of range");
    return Classes[Id];
  }

  unsigned getNumClasses() const {
    return static_cast<unsigned>(Classes.size());
  }

  Function *addFunction(std::unique_ptr<Function> F) {
    Functions.push_back(std::move(F));
    return Functions.back().get();
  }

  std::vector<Function *> functions() const {
    std::vector<Function *> Result;
    Result.reserve(Functions.size());
    for (const auto &F : Functions)
      Result.push_back(F.get());
    return Result;
  }

  Function *getFunction(const std::string &Name) const;

private:
  std::vector<ClassInfo> Classes;
  std::vector<std::unique_ptr<Function>> Functions;
};

} // namespace dbds

#endif // DBDS_IR_FUNCTION_H
