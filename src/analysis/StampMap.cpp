//===- analysis/StampMap.cpp - On-demand forward stamp computation ------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/StampMap.h"

#include "ir/Function.h"

using namespace dbds;

Stamp StampMap::get(Instruction *I) {
  assert((!Owner || Owner == I->getFunction()) &&
         "instruction of another function");
  // The recursive queries below may grow the vectors, so index afresh
  // after each one rather than holding references.
  const unsigned Id = I->getId();
  if (Id >= States.size()) {
    Owner = I->getFunction();
    Memo.resize(Owner->getMaxInstId(), Stamp::top(Type::Int));
    States.resize(Owner->getMaxInstId(), State::Unknown);
  }
  if (States[Id] == State::Done)
    return Memo[Id];
  if (States[Id] == State::InProgress)
    return Stamp::top(I->getType()); // break phi cycles conservatively

  States[Id] = State::InProgress;
  Stamp Result = Stamp::top(I->getType());
  switch (I->getOpcode()) {
  case Opcode::Constant:
  case Opcode::New:
    Result = shallowStamp(I);
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
    Result = binaryStamp(I->getOpcode(), get(I->getOperand(0)),
                         get(I->getOperand(1)));
    break;
  case Opcode::Neg:
  case Opcode::Not:
    Result = unaryStamp(I->getOpcode(), get(I->getOperand(0)));
    break;
  case Opcode::Cmp:
    Result = Stamp::range(0, 1);
    break;
  case Opcode::Phi: {
    auto *Phi = cast<PhiInst>(I);
    bool First = true;
    Stamp Joined = Result;
    for (Instruction *In : Phi->operands()) {
      if (In == Phi)
        continue;
      Stamp S = get(In);
      Joined = First ? S : Joined.join(S);
      First = false;
    }
    if (!First)
      Result = Joined;
    break;
  }
  default:
    break;
  }
  States[Id] = State::Done;
  Memo[Id] = Result;
  return Result;
}
