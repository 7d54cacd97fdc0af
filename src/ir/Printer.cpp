//===- ir/Printer.cpp - Textual IR output ---------------------------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "ir/Block.h"
#include "ir/Function.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

using namespace dbds;

namespace {

/// Optional renaming applied when printing whole functions so that two
/// structurally identical functions print identically regardless of the
/// raw ids their instructions and blocks carry (clones and re-parses
/// assign ids in different orders).
struct NameMap {
  std::unordered_map<const Instruction *, unsigned> Values;
  std::unordered_map<const Block *, unsigned> Blocks;
};

thread_local const NameMap *ActiveNames = nullptr;

std::string valueName(const Instruction *I) {
  if (ActiveNames) {
    auto It = ActiveNames->Values.find(I);
    if (It != ActiveNames->Values.end())
      return "%" + std::to_string(It->second);
  }
  return "%" + std::to_string(I->getId());
}

std::string blockName(const Block *B) {
  if (ActiveNames) {
    auto It = ActiveNames->Blocks.find(B);
    if (It != ActiveNames->Blocks.end())
      return "b" + std::to_string(It->second);
  }
  return B->getName();
}

std::string formatProbability(double P) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.6g", P);
  return Buf;
}

} // namespace

std::string dbds::printInstruction(const Instruction *I) {
  std::string Out;
  if (I->getType() != Type::Void)
    Out += valueName(I) + " = ";
  switch (I->getOpcode()) {
  case Opcode::Constant: {
    const auto *C = cast<ConstantInst>(I);
    Out += "const ";
    Out += C->isNull() ? "null" : std::to_string(C->getValue());
    break;
  }
  case Opcode::Param: {
    const auto *P = cast<ParamInst>(I);
    Out += "param " + std::to_string(P->getIndex());
    break;
  }
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
  case Opcode::Neg:
  case Opcode::Not: {
    Out += opcodeMnemonic(I->getOpcode());
    for (unsigned Idx = 0, E = I->getNumOperands(); Idx != E; ++Idx) {
      Out += Idx == 0 ? " " : ", ";
      Out += valueName(I->getOperand(Idx));
    }
    break;
  }
  case Opcode::Cmp: {
    const auto *Cmp = cast<CompareInst>(I);
    Out += "cmp ";
    Out += predicateName(Cmp->getPredicate());
    Out += " " + valueName(Cmp->getLHS()) + ", " + valueName(Cmp->getRHS());
    break;
  }
  case Opcode::Phi: {
    Out += "phi ";
    Out += typeName(I->getType());
    const Block *B = I->getBlock();
    const unsigned E = I->getNumOperands();
    // Under the canonical renaming, inputs print sorted by predecessor
    // print index rather than predecessor-list position: the parser
    // rebuilds predecessor lists in CFG-construction order, so only a
    // text-derivable pair order makes print -> parse -> print a fixed
    // point (property P6 in tests/property_test.cpp).
    std::vector<unsigned> Order(E);
    for (unsigned Idx = 0; Idx != E; ++Idx)
      Order[Idx] = Idx;
    if (ActiveNames && B && B->getNumPreds() == E)
      std::stable_sort(Order.begin(), Order.end(),
                       [&](unsigned L, unsigned R) {
                         auto LI = ActiveNames->Blocks.find(B->preds()[L]);
                         auto RI = ActiveNames->Blocks.find(B->preds()[R]);
                         if (LI == ActiveNames->Blocks.end() ||
                             RI == ActiveNames->Blocks.end())
                           return false;
                         return LI->second < RI->second;
                       });
    for (unsigned N = 0; N != E; ++N) {
      const unsigned Idx = Order[N];
      Out += N == 0 ? " " : ", ";
      Out += "[" + valueName(I->getOperand(Idx)) + ", ";
      Out += B && Idx < B->getNumPreds() ? blockName(B->preds()[Idx]) : "b?";
      Out += "]";
    }
    break;
  }
  case Opcode::New:
    Out += "new " + std::to_string(cast<NewInst>(I)->getClassId());
    break;
  case Opcode::LoadField: {
    const auto *Load = cast<LoadFieldInst>(I);
    Out += "load " + valueName(Load->getObject()) + ", " +
           std::to_string(Load->getFieldIndex());
    break;
  }
  case Opcode::StoreField: {
    const auto *Store = cast<StoreFieldInst>(I);
    Out += "store " + valueName(Store->getObject()) + ", " +
           std::to_string(Store->getFieldIndex()) + ", " +
           valueName(Store->getValue());
    break;
  }
  case Opcode::Call: {
    const auto *Call = cast<CallInst>(I);
    Out += "call " + std::to_string(Call->getCalleeId()) + "(";
    for (unsigned Idx = 0, E = I->getNumOperands(); Idx != E; ++Idx) {
      if (Idx != 0)
        Out += ", ";
      Out += valueName(I->getOperand(Idx));
    }
    Out += ")";
    break;
  }
  case Opcode::Invoke: {
    const auto *Invoke = cast<InvokeInst>(I);
    Out += "invoke @" + Invoke->getCalleeName() + "(";
    for (unsigned Idx = 0, E = I->getNumOperands(); Idx != E; ++Idx) {
      if (Idx != 0)
        Out += ", ";
      Out += valueName(I->getOperand(Idx));
    }
    Out += ")";
    break;
  }
  case Opcode::If: {
    const auto *If = cast<IfInst>(I);
    Out += "if " + valueName(If->getCondition()) + ", " +
           blockName(If->getTrueSucc()) + ", " +
           blockName(If->getFalseSucc()) + " !" +
           formatProbability(If->getTrueProbability());
    break;
  }
  case Opcode::Jump:
    Out += "jump " + blockName(cast<JumpInst>(I)->getTarget());
    break;
  case Opcode::Return: {
    const auto *Ret = cast<ReturnInst>(I);
    Out += "ret";
    if (Ret->hasValue())
      Out += " " + valueName(Ret->getValue());
    break;
  }
  }
  return Out;
}

std::string dbds::printBlock(const Block *B) {
  std::string Out = blockName(B) + ":\n";
  for (const Instruction *I : *B)
    Out += "  " + printInstruction(I) + "\n";
  return Out;
}

std::string dbds::printFunction(const Function *F) {
  std::string Out = "func @" + F->getName() + "(";
  for (unsigned Idx = 0, E = F->getNumParams(); Idx != E; ++Idx) {
    if (Idx != 0)
      Out += ", ";
    Out += typeName(F->getParamType(Idx));
  }
  Out += ") {\n";
  // Canonical renaming: sequential ids in print order, so structurally
  // identical functions print identically.
  NameMap Names;
  unsigned NextValue = 0, NextBlock = 0;
  for (const Block *B : F->blocks()) {
    Names.Blocks[B] = NextBlock++;
    for (const Instruction *I : *B)
      if (I->getType() != Type::Void)
        Names.Values[I] = NextValue++;
  }
  const NameMap *Saved = ActiveNames;
  ActiveNames = &Names;
  for (const Block *B : F->blocks())
    Out += printBlock(B);
  ActiveNames = Saved;
  Out += "}\n";
  return Out;
}

std::string dbds::printModule(const Module *M) {
  std::string Out;
  for (unsigned Idx = 0, E = M->getNumClasses(); Idx != E; ++Idx) {
    const ClassInfo &CI = M->getClass(Idx);
    Out += "class " + CI.Name + " " + std::to_string(CI.NumFields) + "\n";
  }
  if (M->getNumClasses() != 0)
    Out += "\n";
  for (const Function *F : M->functions()) {
    Out += printFunction(F);
    Out += "\n";
  }
  return Out;
}
