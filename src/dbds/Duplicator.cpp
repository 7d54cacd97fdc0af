//===- dbds/Duplicator.cpp - Tail duplication transformation ---------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dbds/Duplicator.h"

#include "analysis/DominatorTree.h"
#include "support/ErrorHandling.h"
#include "telemetry/Counters.h"
#include "telemetry/Json.h"
#include "telemetry/Trace.h"

#include <unordered_map>

using namespace dbds;

DBDS_COUNTER(duplicator, blocks_duplicated);
DBDS_COUNTER(duplicator, instructions_copied);
DBDS_COUNTER(duplicator, phis_created);

bool dbds::canDuplicateInto(Block *M, Block *P) {
  if (!M->isMerge() || M == P)
    return false;
  auto *Jump = dyn_cast_if_present<JumpInst>(P->getTerminator());
  return Jump && Jump->getTarget() == M && M->hasPred(P);
}

namespace {

/// Clones \p I with operands rewritten through \p Map (identity for values
/// not in the map). Successor blocks of terminators are preserved.
Instruction *cloneWithMapping(
    Function &F, Instruction *I,
    const std::unordered_map<Instruction *, Instruction *> &Map) {
  auto mapped = [&Map](Instruction *V) {
    auto It = Map.find(V);
    return It == Map.end() ? V : It->second;
  };
  switch (I->getOpcode()) {
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
    return F.create<BinaryInst>(I->getOpcode(), mapped(I->getOperand(0)),
                                mapped(I->getOperand(1)));
  case Opcode::Neg:
  case Opcode::Not:
    return F.create<UnaryInst>(I->getOpcode(), mapped(I->getOperand(0)));
  case Opcode::Cmp:
    return F.create<CompareInst>(cast<CompareInst>(I)->getPredicate(),
                                 mapped(I->getOperand(0)),
                                 mapped(I->getOperand(1)));
  case Opcode::New:
    return F.create<NewInst>(cast<NewInst>(I)->getClassId());
  case Opcode::LoadField:
    return F.create<LoadFieldInst>(mapped(I->getOperand(0)),
                                   cast<LoadFieldInst>(I)->getFieldIndex());
  case Opcode::StoreField:
    return F.create<StoreFieldInst>(
        mapped(I->getOperand(0)), cast<StoreFieldInst>(I)->getFieldIndex(),
        mapped(I->getOperand(1)));
  case Opcode::Call: {
    SmallVector<Instruction *, 4> Args;
    for (Instruction *Arg : I->operands())
      Args.push_back(mapped(Arg));
    return F.create<CallInst>(cast<CallInst>(I)->getCalleeId(),
                              ArrayRef<Instruction *>(Args.begin(),
                                                      Args.size()));
  }
  case Opcode::Invoke: {
    SmallVector<Instruction *, 4> Args;
    for (Instruction *Arg : I->operands())
      Args.push_back(mapped(Arg));
    return F.create<InvokeInst>(cast<InvokeInst>(I)->getCalleeName(),
                                ArrayRef<Instruction *>(Args.begin(),
                                                        Args.size()));
  }
  case Opcode::If: {
    auto *If = cast<IfInst>(I);
    auto *Copy = F.create<IfInst>(mapped(If->getCondition()),
                                  If->getTrueSucc(), If->getFalseSucc());
    Copy->setTrueProbability(If->getTrueProbability());
    return Copy;
  }
  case Opcode::Jump:
    return F.create<JumpInst>(cast<JumpInst>(I)->getTarget());
  case Opcode::Return: {
    auto *Ret = cast<ReturnInst>(I);
    return F.create<ReturnInst>(Ret->hasValue() ? mapped(Ret->getValue())
                                                : nullptr);
  }
  default:
    dbds_unreachable("unexpected opcode in merge block duplication");
  }
}

/// Rewrites all uses of \p OrigDef that are no longer dominated by it:
/// after duplication the value has two definitions (the original in M and
/// \p CopyDef in P). Inserts phis at the iterated dominance frontier of
/// the definition blocks and routes uses to their reaching definition.
void reconstructSSA(Function &F, const DominatorTree &DT, Block *M, Block *P,
                    Instruction *OrigDef, Instruction *CopyDef) {
  std::unordered_map<Block *, Instruction *> DefAt;
  DefAt[M] = OrigDef;
  DefAt[P] = CopyDef;

  // Phi shells at the IDF of the two definition blocks.
  std::vector<PhiInst *> Shells;
  for (Block *X : DT.iteratedFrontier({M, P})) {
    auto *Shell = F.create<PhiInst>(OrigDef->getType());
    X->insertPhi(Shell);
    ++phis_created;
    DefAt[X] = Shell;
    Shells.push_back(Shell);
  }

  // Reaching definition at the end of a block: nearest def walking the
  // dominator tree upwards.
  auto reachingDef = [&DefAt, &DT](Block *B) -> Instruction * {
    for (Block *Walk = B; Walk; Walk = DT.getIdom(Walk)) {
      auto It = DefAt.find(Walk);
      if (It != DefAt.end())
        return It->second;
    }
    dbds_unreachable("use not reached by any definition");
  };

  // Route existing uses. Snapshot: rewriting edits the user list.
  SmallVector<Instruction *, 8> Users(OrigDef->users().begin(),
                                      OrigDef->users().end());
  for (Instruction *User : Users) {
    Block *UB = User->getBlock();
    assert(UB && "detached user during SSA reconstruction");
    if (UB == M && !isa<PhiInst>(User))
      continue; // still locally dominated by the original
    if (auto *Phi = dyn_cast<PhiInst>(User)) {
      // Shell phis are filled below; skip them here.
      bool IsShell = false;
      for (PhiInst *Shell : Shells)
        IsShell |= Shell == Phi;
      if (IsShell)
        continue;
      for (unsigned Idx = 0, E = Phi->getNumInputs(); Idx != E; ++Idx) {
        if (Phi->getInput(Idx) != OrigDef)
          continue;
        Instruction *Reaching = reachingDef(UB->preds()[Idx]);
        if (Reaching != OrigDef)
          Phi->setInput(Idx, Reaching);
      }
      continue;
    }
    // Ordinary use: reaching definition on entry to the user's block. The
    // def blocks M and P themselves only contain uses dominated by their
    // local definition.
    if (UB == P)
      continue;
    Instruction *Reaching = reachingDef(UB);
    if (Reaching == OrigDef)
      continue;
    for (unsigned Idx = 0, E = User->getNumOperands(); Idx != E; ++Idx)
      if (User->getOperand(Idx) == OrigDef)
        User->setOperand(Idx, Reaching);
  }

  // Fill the shells: one input per predecessor edge. An edge from a region
  // no definition reaches can never flow into a real use (uses were
  // dominated by M before the transformation); a dominating placeholder
  // constant keeps SSA form valid and is swept together with the dead
  // shell by DCE.
  auto placeholder = [&F, OrigDef]() -> Instruction * {
    if (OrigDef->getType() == Type::Obj)
      return F.nullConstant();
    return F.constant(0);
  };
  for (PhiInst *Shell : Shells) {
    Block *X = Shell->getBlock();
    for (Block *Pred : X->preds()) {
      Instruction *Reaching = nullptr;
      for (Block *Walk = Pred; Walk; Walk = DT.getIdom(Walk)) {
        auto It = DefAt.find(Walk);
        if (It != DefAt.end()) {
          Reaching = It->second;
          break;
        }
      }
      Shell->appendInput(Reaching ? Reaching : placeholder());
    }
  }
}

} // namespace

void dbds::duplicateIntoPredecessor(Function &F, Block *M, Block *P) {
  assert(canDuplicateInto(M, P) && "structural preconditions violated");
  TraceSession *TS = TraceSession::active();
  TraceSpan Span(TS, "duplicate", "duplicator",
                 TS ? "\"merge\":" + jsonNumber(M->getId()) +
                          ",\"pred\":" + jsonNumber(P->getId())
                    : std::string());
  ++blocks_duplicated;
  unsigned PredIdx = M->indexOfPred(P);

  // Drop P's jump; the copied body and terminator replace it.
  Instruction *OldJump = P->getTerminator();
  P->remove(OldJump);

  // Copy M's body with phis substituted by their input on P.
  std::unordered_map<Instruction *, Instruction *> ValueMap;
  for (PhiInst *Phi : M->phis())
    ValueMap[Phi] = Phi->getInput(PredIdx);

  SmallVector<Instruction *, 16> Originals;
  for (Instruction *I : *M)
    if (!isa<PhiInst>(I))
      Originals.push_back(I);

  for (Instruction *I : Originals) {
    Instruction *Copy = cloneWithMapping(F, I, ValueMap);
    P->append(Copy);
    ValueMap[I] = Copy;
    ++instructions_copied;
  }

  // Wire the copied terminator's edges: each successor of M gains P as an
  // additional predecessor; its phis receive the mapped value that used to
  // flow in from M.
  Instruction *Term = M->getTerminator();
  auto wireEdge = [&](Block *Succ) {
    unsigned IdxM = Succ->indexOfPred(M);
    Succ->addPred(P);
    for (PhiInst *Phi : Succ->phis()) {
      Instruction *FromM = Phi->getInput(IdxM);
      auto It = ValueMap.find(FromM);
      Phi->appendInput(It == ValueMap.end() ? FromM : It->second);
    }
  };
  if (auto *If = dyn_cast<IfInst>(Term)) {
    wireEdge(If->getTrueSucc());
    wireEdge(If->getFalseSucc());
  } else if (auto *Jump = dyn_cast<JumpInst>(Term)) {
    wireEdge(Jump->getTarget());
  }

  // M's phis are definitions too: on the duplicated path their value is
  // the input that used to flow in from P. Snapshot before removePred.
  SmallVector<std::pair<PhiInst *, Instruction *>, 4> PhiDefs;
  for (PhiInst *Phi : M->phis())
    PhiDefs.push_back({Phi, Phi->getInput(PredIdx)});

  // Detach P from M (drops phi inputs at PredIdx).
  M->removePred(PredIdx);

  // SSA reconstruction for every value of M now defined twice: the merge
  // block no longer dominates its former subtree (P reaches it as well),
  // so downstream uses are routed through freshly inserted phis.
  DominatorTree DT(F);
  for (auto &[Phi, InputAtP] : PhiDefs)
    reconstructSSA(F, DT, M, P, Phi, InputAtP);
  for (Instruction *I : Originals) {
    if (I->getType() == Type::Void || I->isTerminator())
      continue;
    reconstructSSA(F, DT, M, P, I, ValueMap.at(I));
  }
}
