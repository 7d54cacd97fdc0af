//===- analysis/DominatorTree.cpp - Dominance information -----------------===//
//
// Part of the DBDS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"

#include "telemetry/Counters.h"

#include <algorithm>

using namespace dbds;

DBDS_COUNTER(analysis, domtree_builds);

std::vector<Block *> dbds::computeRPO(Function &F) {
  std::unordered_map<Block *, unsigned> State; // 0 new, 1 open, 2 done
  std::vector<std::pair<Block *, unsigned>> Stack;
  std::vector<Block *> Post;
  Block *Entry = F.getEntry();
  Stack.push_back({Entry, 0});
  State[Entry] = 1;
  while (!Stack.empty()) {
    Block *B = Stack.back().first;
    unsigned NextSucc = Stack.back().second;
    auto Succs = B->succs();
    if (NextSucc < Succs.size()) {
      ++Stack.back().second;
      Block *S = Succs[NextSucc];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.push_back({S, 0});
      }
      continue;
    }
    State[B] = 2;
    Post.push_back(B);
    Stack.pop_back();
  }
  return std::vector<Block *>(Post.rbegin(), Post.rend());
}

DominatorTree::DominatorTree(Function &F) : F(F) {
  ++domtree_builds;
  RPO = computeRPO(F);
  for (unsigned I = 0; I != RPO.size(); ++I)
    Info[RPO[I]].RPOIndex = I;

  // Cooper-Harvey-Kennedy: iterate to a fixed point over RPO.
  Block *Entry = F.getEntry();
  Info[Entry].Idom = Entry;
  bool Changed = true;
  auto intersect = [&](Block *A, Block *B) {
    while (A != B) {
      while (Info[A].RPOIndex > Info[B].RPOIndex)
        A = Info[A].Idom;
      while (Info[B].RPOIndex > Info[A].RPOIndex)
        B = Info[B].Idom;
    }
    return A;
  };
  while (Changed) {
    Changed = false;
    for (Block *B : RPO) {
      if (B == Entry)
        continue;
      Block *NewIdom = nullptr;
      for (Block *P : B->preds()) {
        if (!Info.count(P) || !Info[P].Idom)
          continue; // unreachable or not yet processed
        NewIdom = NewIdom ? intersect(NewIdom, P) : P;
      }
      assert(NewIdom && "reachable block with no processed predecessor");
      if (Info[B].Idom != NewIdom) {
        Info[B].Idom = NewIdom;
        Changed = true;
      }
    }
  }

  // Children lists + DFS numbering for O(1) dominance queries.
  for (Block *B : RPO) {
    if (B == Entry)
      continue;
    Info[Info[B].Idom].Children.push_back(B);
  }
  unsigned Clock = 0;
  std::vector<std::pair<Block *, unsigned>> Stack;
  Stack.push_back({Entry, 0});
  Info[Entry].DFSIn = Clock++;
  PreOrder.push_back(Entry);
  while (!Stack.empty()) {
    Block *B = Stack.back().first;
    unsigned NextChild = Stack.back().second;
    auto &Children = Info[B].Children;
    if (NextChild < Children.size()) {
      ++Stack.back().second;
      Block *C = Children[NextChild];
      Info[C].DFSIn = Clock++;
      PreOrder.push_back(C);
      Stack.push_back({C, 0});
      continue;
    }
    Info[B].DFSOut = Clock++;
    Stack.pop_back();
  }

  // Dominance frontiers (Cooper-Harvey-Kennedy).
  for (Block *B : RPO) {
    if (B->getNumPreds() < 2)
      continue;
    for (Block *P : B->preds()) {
      if (!Info.count(P))
        continue;
      Block *Runner = P;
      while (Runner != Info[B].Idom) {
        auto &RunnerFrontier = Info[Runner].Frontier;
        if (std::find(RunnerFrontier.begin(), RunnerFrontier.end(), B) ==
            RunnerFrontier.end())
          RunnerFrontier.push_back(B);
        Runner = Info[Runner].Idom;
      }
    }
  }
}

Block *DominatorTree::getIdom(Block *B) const {
  Block *Idom = info(B).Idom;
  return Idom == B ? nullptr : Idom;
}

bool DominatorTree::dominates(Block *A, Block *B) const {
  const NodeInfo &IA = info(A);
  const NodeInfo &IB = info(B);
  return IA.DFSIn <= IB.DFSIn && IB.DFSOut <= IA.DFSOut;
}

bool DominatorTree::dominatesUse(Instruction *Def, Instruction *User) const {
  Block *DefBlock = Def->getBlock();
  assert(DefBlock && "definition is not inserted in a block");
  if (auto *Phi = dyn_cast<PhiInst>(User)) {
    // A phi use counts at the end of the corresponding predecessor. The
    // same value may flow in over several edges; require all of them.
    Block *UseBlock = Phi->getBlock();
    for (unsigned Idx = 0, E = Phi->getNumInputs(); Idx != E; ++Idx) {
      if (Phi->getInput(Idx) != Def)
        continue;
      if (!dominates(DefBlock, UseBlock->preds()[Idx]))
        return false;
    }
    return true;
  }
  Block *UseBlock = User->getBlock();
  assert(UseBlock && "user is not inserted in a block");
  if (DefBlock != UseBlock)
    return dominates(DefBlock, UseBlock);
  return UseBlock->indexOf(Def) < UseBlock->indexOf(User);
}

const std::vector<Block *> &DominatorTree::children(Block *B) const {
  return info(B).Children;
}

const std::vector<Block *> &DominatorTree::frontier(Block *B) const {
  return info(B).Frontier;
}

std::vector<Block *>
DominatorTree::iteratedFrontier(const std::vector<Block *> &Defs) const {
  std::vector<Block *> Result;
  std::unordered_set<Block *> InResult;
  std::vector<Block *> Worklist(Defs.begin(), Defs.end());
  while (!Worklist.empty()) {
    Block *B = Worklist.back();
    Worklist.pop_back();
    for (Block *FB : frontier(B)) {
      if (InResult.insert(FB).second) {
        Result.push_back(FB);
        Worklist.push_back(FB);
      }
    }
  }
  return Result;
}
