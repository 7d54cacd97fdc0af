//===- vm/Interpreter.cpp - IR interpreter with cycle accounting ----------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include "ir/Semantics.h"
#include "telemetry/Counters.h"
#include "telemetry/Json.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"

using namespace dbds;

DBDS_COUNTER(interpreter, runs);
DBDS_COUNTER(interpreter, instructions_executed);

// run_steps depends only on what the program executed, so it is part of
// the deterministic metrics contract.
DBDS_HISTOGRAM(interpreter, run_steps, Count, Deterministic);

void dbds::applyProfile(Function &F, const ProfileSummary &Profile) {
  for (Block *B : F.blocks()) {
    auto *If = dyn_cast_if_present<IfInst>(B->getTerminator());
    if (!If)
      continue;
    auto It = Profile.IfCounts.find(If);
    if (It == Profile.IfCounts.end() || It->second.second == 0)
      continue;
    double P = static_cast<double>(It->second.first) /
               static_cast<double>(It->second.second);
    If->setTrueProbability(P);
  }
}

RuntimeValue Interpreter::allocate(unsigned ClassId) {
  HeapObject Obj;
  Obj.ClassId = ClassId;
  Obj.Fields.assign(M.getClass(ClassId).NumFields, RuntimeValue::ofInt(0));
  Heap.push_back(std::move(Obj));
  return RuntimeValue::object(static_cast<int64_t>(Heap.size() - 1));
}

Interpreter::HeapObject &Interpreter::objectAt(const RuntimeValue &Ref) {
  assert(Ref.IsObject && !Ref.isNull() && "dereferencing a non-object");
  assert(static_cast<size_t>(Ref.Scalar) < Heap.size() &&
         "dangling object reference");
  return Heap[static_cast<size_t>(Ref.Scalar)];
}

const Interpreter::HeapObject &
Interpreter::objectAt(const RuntimeValue &Ref) const {
  return const_cast<Interpreter *>(this)->objectAt(Ref);
}

int64_t Interpreter::readField(RuntimeValue Object, unsigned Field) const {
  const HeapObject &Obj = objectAt(Object);
  assert(Field < Obj.Fields.size() && "field index out of range");
  return Obj.Fields[Field].Scalar;
}

void Interpreter::writeField(RuntimeValue Object, unsigned Field,
                             int64_t Value) {
  HeapObject &Obj = objectAt(Object);
  assert(Field < Obj.Fields.size() && "field index out of range");
  Obj.Fields[Field] = RuntimeValue::ofInt(Value);
}

ExecutionResult Interpreter::run(Function &F, ArrayRef<int64_t> Args,
                                 uint64_t Fuel, ProfileSummary *Profile) {
  SmallVector<RuntimeValue, 8> Wrapped;
  for (int64_t A : Args)
    Wrapped.push_back(RuntimeValue::ofInt(A));
  return run(F, ArrayRef<RuntimeValue>(Wrapped.begin(), Wrapped.size()),
             Fuel, Profile);
}

ExecutionResult Interpreter::run(Function &F, ArrayRef<RuntimeValue> Args,
                                 uint64_t Fuel, ProfileSummary *Profile) {
  // One span per interpretation; the profile flag distinguishes training
  // runs (feeding DBDS probabilities, §5.3) from measurement runs.
  TraceSession *TS = TraceSession::active();
  TraceSpan RunSpan(TS, "interpret", "vm",
                    TS ? "\"function\":" + jsonString(F.getName()) +
                             ",\"profiled\":" + jsonBool(Profile != nullptr)
                       : std::string());
  ++runs;
  uint64_t FuelRemaining = Fuel;
  ExecutionResult Result = execute(F, Args, FuelRemaining, Profile,
                                   /*Depth=*/0);
  instructions_executed += Result.Steps;
  run_steps.record(Result.Steps);
  return Result;
}

ExecutionResult Interpreter::execute(Function &F, ArrayRef<RuntimeValue> Args,
                                     uint64_t &FuelRemaining,
                                     ProfileSummary *Profile,
                                     unsigned Depth) {
  assert(Args.size() == F.getNumParams() && "argument count mismatch");
  ExecutionResult Result;
  if (Depth > 64)
    return Result; // runaway recursion: fail like fuel exhaustion
  std::vector<RuntimeValue> Regs(F.getMaxInstId());

  uint64_t BlockPenalty = 0;
  if (PenaltyEnabled) {
    uint64_t Size = F.estimatedCodeSize();
    if (Size > PenaltyThreshold) {
      BlockPenalty = (Size - PenaltyThreshold + PenaltyStep - 1) / PenaltyStep;
      BlockPenalty = BlockPenalty > PenaltyCap ? PenaltyCap : BlockPenalty;
    }
  }

  Block *Current = F.getEntry();
  Block *Previous = nullptr;
  while (true) {
    Result.DynamicCycles += BlockPenalty;
    if (Profile)
      ++Profile->BlockCounts[Current];

    // Phis first, in parallel (all read old values, then all commit).
    auto Phis = Current->phis();
    if (!Phis.empty()) {
      assert(Previous && "phi in entry block");
      unsigned PredIdx = Current->indexOfPred(Previous);
      SmallVector<RuntimeValue, 4> Incoming;
      for (PhiInst *Phi : Phis)
        Incoming.push_back(Regs[Phi->getInput(PredIdx)->getId()]);
      for (unsigned I = 0; I != Phis.size(); ++I)
        Regs[Phis[I]->getId()] = Incoming[I];
      if (Observer)
        for (PhiInst *Phi : Phis)
          Observer(Phi, Regs[Phi->getId()]);
    }

    for (Instruction *I : *Current) {
      if (isa<PhiInst>(I))
        continue;
      if (FuelRemaining == 0)
        return Result; // Ok stays false: ran out of fuel
      --FuelRemaining;
      ++Result.Steps;
      Result.DynamicCycles += I->estimatedCycles();

      auto reg = [&Regs](Instruction *V) -> RuntimeValue & {
        return Regs[V->getId()];
      };

      switch (I->getOpcode()) {
      case Opcode::Constant: {
        auto *C = cast<ConstantInst>(I);
        reg(I) = C->isNull() ? RuntimeValue::null()
                             : RuntimeValue::ofInt(C->getValue());
        break;
      }
      case Opcode::Param:
        reg(I) = Args[cast<ParamInst>(I)->getIndex()];
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
        reg(I) = RuntimeValue::ofInt(evalBinary(I->getOpcode(),
                                                reg(I->getOperand(0)).Scalar,
                                                reg(I->getOperand(1)).Scalar));
        break;
      case Opcode::Neg:
      case Opcode::Not:
        reg(I) = RuntimeValue::ofInt(
            evalUnary(I->getOpcode(), reg(I->getOperand(0)).Scalar));
        break;
      case Opcode::Cmp: {
        auto *Cmp = cast<CompareInst>(I);
        RuntimeValue L = reg(Cmp->getLHS());
        RuntimeValue R = reg(Cmp->getRHS());
        // Object comparison is identity; null is Scalar -1 on both sides.
        reg(I) = RuntimeValue::ofInt(
            evalCompare(Cmp->getPredicate(), L.Scalar, R.Scalar));
        break;
      }
      case Opcode::Phi:
        break; // handled above
      case Opcode::New:
        reg(I) = allocate(cast<NewInst>(I)->getClassId());
        break;
      case Opcode::LoadField: {
        auto *Load = cast<LoadFieldInst>(I);
        HeapObject &Obj = objectAt(reg(Load->getObject()));
        assert(Load->getFieldIndex() < Obj.Fields.size() &&
               "field index out of range");
        reg(I) = Obj.Fields[Load->getFieldIndex()];
        break;
      }
      case Opcode::StoreField: {
        auto *Store = cast<StoreFieldInst>(I);
        HeapObject &Obj = objectAt(reg(Store->getObject()));
        assert(Store->getFieldIndex() < Obj.Fields.size() &&
               "field index out of range");
        Obj.Fields[Store->getFieldIndex()] = reg(Store->getValue());
        break;
      }
      case Opcode::Call: {
        // Deterministic opaque semantics; object arguments contribute only
        // their nullness so results are stable under optimization.
        auto *Call = cast<CallInst>(I);
        SmallVector<int64_t, 4> CallArgs;
        for (Instruction *Arg : Call->operands()) {
          RuntimeValue V = reg(Arg);
          CallArgs.push_back(V.IsObject ? (V.isNull() ? 0 : 1) : V.Scalar);
        }
        reg(I) = RuntimeValue::ofInt(evalOpaqueCall(
            Call->getCalleeId(), CallArgs.begin(), CallArgs.size()));
        break;
      }
      case Opcode::Invoke: {
        // Direct call: recurse with the shared fuel budget and heap.
        auto *Invoke = cast<InvokeInst>(I);
        Function *Callee = M.getFunction(Invoke->getCalleeName());
        assert(Callee && "invoke of unknown function");
        SmallVector<RuntimeValue, 4> CallArgs;
        for (Instruction *Arg : Invoke->operands())
          CallArgs.push_back(reg(Arg));
        ExecutionResult Sub =
            execute(*Callee, ArrayRef<RuntimeValue>(CallArgs.begin(),
                                                    CallArgs.size()),
                    FuelRemaining, Profile, Depth + 1);
        Result.DynamicCycles += Sub.DynamicCycles;
        Result.Steps += Sub.Steps;
        if (!Sub.Ok)
          return Result; // propagate fuel exhaustion / runaway recursion
        reg(I) = Sub.HasResult ? Sub.Result : RuntimeValue::ofInt(0);
        break;
      }
      case Opcode::If: {
        auto *If = cast<IfInst>(I);
        bool Taken = reg(If->getCondition()).Scalar != 0;
        if (Profile) {
          auto &Counts = Profile->IfCounts[If];
          Counts.first += Taken ? 1 : 0;
          ++Counts.second;
        }
        Previous = Current;
        Current = Taken ? If->getTrueSucc() : If->getFalseSucc();
        break;
      }
      case Opcode::Jump:
        Previous = Current;
        Current = cast<JumpInst>(I)->getTarget();
        break;
      case Opcode::Return: {
        auto *Ret = cast<ReturnInst>(I);
        Result.Ok = true;
        if (Ret->hasValue()) {
          Result.HasResult = true;
          Result.Result = reg(Ret->getValue());
        }
        return Result;
      }
      }
      if (Observer && I->getType() != Type::Void)
        Observer(I, Regs[I->getId()]);
      if (I->isTerminator())
        break; // proceed to the next block
    }
  }
}
