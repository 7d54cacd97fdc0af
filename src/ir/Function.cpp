//===- ir/Function.cpp - Compilation unit ---------------------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include <algorithm>
#include <unordered_map>

using namespace dbds;

namespace {

/// Insertion point for a new constant: after the entry block's leading
/// constants, so first-use order is preserved and printing is stable.
unsigned constantInsertionIndex(const Block *Entry) {
  unsigned Idx = 0;
  for (const Instruction *I : *Entry) {
    if (!isa<ConstantInst>(I))
      break;
    ++Idx;
  }
  return Idx;
}

} // namespace

Block *Function::getBlockById(unsigned Id) const {
  for (const auto &B : Blocks)
    if (B->getId() == Id)
      return B.get();
  return nullptr;
}

void Function::eraseBlock(Block *B) {
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [B](const std::unique_ptr<Block> &P) {
                           return P.get() == B;
                         });
  assert(It != Blocks.end() && "block not in this function");
  assert(B != getEntry() && "cannot erase the entry block");
  // Detach all instructions (back to front so value users inside the block
  // disappear before their defs).
  while (!B->empty()) {
    Instruction *I = *(B->end() - 1);
    B->remove(I);
  }
  Blocks.erase(It);
}

ConstantInst *Function::constant(int64_t Value) {
  for (const auto &Entry : IntConstants) {
    if (Entry.first != Value)
      continue;
    // DCE may have detached an unused cached constant; revive it.
    if (Entry.second->getBlock() == nullptr)
      getEntry()->insert(constantInsertionIndex(getEntry()), Entry.second);
    return Entry.second;
  }
  ConstantInst *C = create<ConstantInst>(Value);
  IntConstants.push_back({Value, C});
  // Constants live in the entry block so they dominate every use.
  getEntry()->insert(constantInsertionIndex(getEntry()), C);
  return C;
}

ConstantInst *Function::nullConstant() {
  if (!NullConst) {
    NullConst = create<ConstantInst>(Type::Obj);
    getEntry()->insert(constantInsertionIndex(getEntry()), NullConst);
  }
  if (NullConst->getBlock() == nullptr)
    getEntry()->insert(constantInsertionIndex(getEntry()), NullConst);
  return NullConst;
}

uint64_t Function::estimatedCodeSize() const {
  uint64_t Size = 0;
  for (const auto &B : Blocks)
    for (const Instruction *I : *B)
      Size += I->estimatedSize();
  return Size;
}

unsigned Function::instructionCount() const {
  unsigned Count = 0;
  for (const auto &B : Blocks)
    Count += B->size();
  return Count;
}

std::vector<Block *> dbds::computeRPO(const Function &F) {
  std::vector<uint8_t> Seen(F.getMaxBlockId(), 0);
  std::vector<std::pair<Block *, unsigned>> Stack;
  std::vector<Block *> Post;
  Post.reserve(F.getNumBlocks());
  Block *Entry = F.getEntry();
  Stack.push_back({Entry, 0});
  Seen[Entry->getId()] = 1;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    auto Succs = B->succs();
    if (NextSucc < Succs.size()) {
      Block *S = Succs[NextSucc++];
      if (!Seen[S->getId()]) {
        Seen[S->getId()] = 1;
        Stack.push_back({S, 0});
      }
      continue;
    }
    Post.push_back(B);
    Stack.pop_back();
  }
  return std::vector<Block *>(Post.rbegin(), Post.rend());
}

std::unique_ptr<Function> Function::clone() const {
  SmallVector<Type, 4> Params;
  for (unsigned I = 0; I != NumParams; ++I)
    Params.push_back(ParamTypes[I]);
  auto NewF = std::make_unique<Function>(Name, NumParams, std::move(Params));
  cloneBodyInto(*NewF);
  return NewF;
}

void Function::restoreFrom(const Function &Snapshot) {
  assert(Name == Snapshot.Name && "restoring from a different function");
  assert(NumParams == Snapshot.NumParams && "signature mismatch in restore");
  // Dismantle the current body. Instruction destructors do not chase their
  // operand/user pointers, so wholesale pool destruction is safe even with
  // arbitrary (possibly corrupted) cross-links.
  Blocks.clear();
  Pool.clear();
  IntConstants.clear();
  NullConst = nullptr;
  NextBlockId = 0;
  NextInstId = 0;
  Snapshot.cloneBodyInto(*this);
}

void Function::cloneBodyInto(Function &Dest) const {
  assert(Dest.Blocks.empty() && Dest.Pool.empty() &&
         "clone destination must be empty");
  Function *NewF = &Dest;

  // Pass 1: mirror the block set (entry first, then the rest in order).
  std::unordered_map<const Block *, Block *> BlockMap;
  for (const auto &B : Blocks)
    BlockMap[B.get()] = NewF->createBlock();

  // Clone in reverse post order so every non-phi operand is cloned before
  // its uses.
  std::vector<Block *> RPO = computeRPO(*this);

  // Pass 2: clone instructions in RPO; phis first as empty shells so that
  // back-edge inputs can be filled in pass 3.
  std::unordered_map<const Instruction *, Instruction *> InstMap;
  auto mapped = [&](Instruction *I) -> Instruction * {
    auto It = InstMap.find(I);
    assert(It != InstMap.end() && "operand not cloned yet");
    return It->second;
  };

  for (Block *B : RPO) {
    Block *NB = BlockMap.at(B);
    for (Instruction *I : *B) {
      Instruction *NI = nullptr;
      switch (I->getOpcode()) {
      case Opcode::Constant: {
        auto *C = cast<ConstantInst>(I);
        NI = C->isNull() ? NewF->create<ConstantInst>(Type::Obj)
                         : NewF->create<ConstantInst>(C->getValue());
        break;
      }
      case Opcode::Param:
        NI = NewF->create<ParamInst>(cast<ParamInst>(I)->getIndex(),
                                     I->getType());
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Rem:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
        NI = NewF->create<BinaryInst>(I->getOpcode(), mapped(I->getOperand(0)),
                                      mapped(I->getOperand(1)));
        break;
      case Opcode::Neg:
      case Opcode::Not:
        NI = NewF->create<UnaryInst>(I->getOpcode(), mapped(I->getOperand(0)));
        break;
      case Opcode::Cmp:
        NI = NewF->create<CompareInst>(cast<CompareInst>(I)->getPredicate(),
                                       mapped(I->getOperand(0)),
                                       mapped(I->getOperand(1)));
        break;
      case Opcode::Phi:
        NI = NewF->create<PhiInst>(I->getType()); // Inputs filled in pass 3.
        break;
      case Opcode::New:
        NI = NewF->create<NewInst>(cast<NewInst>(I)->getClassId());
        break;
      case Opcode::LoadField:
        NI = NewF->create<LoadFieldInst>(
            mapped(I->getOperand(0)), cast<LoadFieldInst>(I)->getFieldIndex());
        break;
      case Opcode::StoreField:
        NI = NewF->create<StoreFieldInst>(
            mapped(I->getOperand(0)), cast<StoreFieldInst>(I)->getFieldIndex(),
            mapped(I->getOperand(1)));
        break;
      case Opcode::Call: {
        SmallVector<Instruction *, 4> Args;
        for (Instruction *Arg : I->operands())
          Args.push_back(mapped(Arg));
        NI = NewF->create<CallInst>(cast<CallInst>(I)->getCalleeId(),
                                    ArrayRef<Instruction *>(Args.begin(),
                                                            Args.size()));
        break;
      }
      case Opcode::Invoke: {
        SmallVector<Instruction *, 4> Args;
        for (Instruction *Arg : I->operands())
          Args.push_back(mapped(Arg));
        NI = NewF->create<InvokeInst>(
            cast<InvokeInst>(I)->getCalleeName(),
            ArrayRef<Instruction *>(Args.begin(), Args.size()));
        break;
      }
      case Opcode::If: {
        auto *If = cast<IfInst>(I);
        auto *NIf = NewF->create<IfInst>(mapped(If->getCondition()),
                                         BlockMap.at(If->getTrueSucc()),
                                         BlockMap.at(If->getFalseSucc()));
        NIf->setTrueProbability(If->getTrueProbability());
        NI = NIf;
        break;
      }
      case Opcode::Jump:
        NI = NewF->create<JumpInst>(
            BlockMap.at(cast<JumpInst>(I)->getTarget()));
        break;
      case Opcode::Return: {
        auto *Ret = cast<ReturnInst>(I);
        NI = NewF->create<ReturnInst>(Ret->hasValue() ? mapped(Ret->getValue())
                                                      : nullptr);
        break;
      }
      }
      assert(NI && "unhandled opcode in clone");
      InstMap[I] = NI;
      NB->append(NI);
      if (auto *C = dyn_cast<ConstantInst>(NI)) {
        // Keep the clone's constant-uniquing map coherent.
        if (C->isNull())
          NewF->NullConst = C;
        else
          NewF->IntConstants.push_back({C->getValue(), C});
      }
    }
  }

  // Pass 3: predecessor lists and phi inputs.
  for (Block *B : RPO) {
    Block *NB = BlockMap.at(B);
    for (Block *P : B->preds())
      NB->addPred(BlockMap.at(P));
    auto OldPhis = B->phis();
    auto NewPhis = NB->phis();
    assert(OldPhis.size() == NewPhis.size() && "phi count mismatch");
    for (unsigned PhiIdx = 0; PhiIdx != OldPhis.size(); ++PhiIdx)
      for (Instruction *In : OldPhis[PhiIdx]->operands())
        NewPhis[PhiIdx]->appendInput(mapped(In));
  }
}

Function *Module::getFunction(const std::string &Name) const {
  for (const auto &F : Functions)
    if (F->getName() == Name)
      return F.get();
  return nullptr;
}
