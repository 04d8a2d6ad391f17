//===-- analysis/Dataflow.h - Forward dataflow engine ------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared dataflow engine under every flow-sensitive checker in
/// analysis/: a forward worklist solver over the machine-block CFG
/// (mir::MFunction::successors). Each checker supplies a small *domain*
/// -- an abstract state plus boundary/transfer/meet -- and receives the
/// fixpoint state at entry to every reachable block; it then re-walks
/// each block once, applying the transfer function instruction by
/// instruction and emitting diagnostics where an instruction's
/// precondition does not hold in the current state.
///
/// The solver propagates one out-state per block to all successors
/// rather than per-edge states. That is exact, not merely conservative,
/// for structurally valid MIR: the only instructions that may appear
/// between a Jcc and the end of its block are further branches and NOPs
/// (mir::verify's branch-group rule), and those are identity transfers
/// in every domain defined here. Structurally invalid MIR is rejected by
/// the CFG well-formedness checker before any flow-sensitive checker
/// runs, so the solver never sees a branch target out of range.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_ANALYSIS_DATAFLOW_H
#define PGSD_ANALYSIS_DATAFLOW_H

#include "lir/MIR.h"

#include <cstdint>
#include <vector>

namespace pgsd {
namespace analysis {

/// Fixpoint of one forward dataflow solve: the abstract state at entry
/// to each block. Blocks no path from the function entry reaches keep
/// `Reached[B] == false` and a default-constructed state; checkers skip
/// them (block shifting deliberately creates unreachable pad blocks).
template <typename State> struct DataflowResult {
  std::vector<State> In;
  std::vector<bool> Reached;
};

/// Solves a forward dataflow problem over \p F.
///
/// Domain requirements:
/// \code
///   using State = ...;          // default-constructible, copyable
///   State boundary() const;     // state at function entry
///   void transfer(State &S, const mir::MInstr &I,
///                 uint32_t Block, uint32_t Instr) const;
///   bool meetInto(State &Into, const State &From) const;
///     // Into = Into meet From; returns true when Into changed.
/// \endcode
///
/// meetInto must be monotone (repeated meets only move down a finite
/// lattice), which bounds the worklist: each block re-enters it only
/// when its in-state strictly drops.
template <typename Domain>
DataflowResult<typename Domain::State>
solveForward(const mir::MFunction &F, const Domain &Dom) {
  DataflowResult<typename Domain::State> R;
  R.In.assign(F.Blocks.size(), typename Domain::State());
  R.Reached.assign(F.Blocks.size(), false);
  if (F.Blocks.empty())
    return R;

  // One flat successor table per solve: the worklist may visit a block
  // many times before the fixpoint, its successors never change.
  std::vector<uint32_t> SuccBegin(F.Blocks.size() + 1);
  std::vector<uint32_t> Succs;
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    SuccBegin[B] = static_cast<uint32_t>(Succs.size());
    F.appendSuccessors(B, Succs);
  }
  SuccBegin[F.Blocks.size()] = static_cast<uint32_t>(Succs.size());

  R.In[0] = Dom.boundary();
  R.Reached[0] = true;
  std::vector<uint32_t> Worklist{0};
  std::vector<bool> OnList(F.Blocks.size(), false);
  OnList[0] = true;

  while (!Worklist.empty()) {
    uint32_t B = Worklist.back();
    Worklist.pop_back();
    OnList[B] = false;

    typename Domain::State S = R.In[B];
    const mir::MBasicBlock &BB = F.Blocks[B];
    for (uint32_t K = 0; K != BB.Instrs.size(); ++K)
      Dom.transfer(S, BB.Instrs[K], B, K);

    for (uint32_t J = SuccBegin[B]; J != SuccBegin[B + 1]; ++J) {
      uint32_t Succ = Succs[J];
      bool Changed;
      if (!R.Reached[Succ]) {
        R.In[Succ] = S;
        R.Reached[Succ] = true;
        Changed = true;
      } else {
        Changed = Dom.meetInto(R.In[Succ], S);
      }
      if (Changed && !OnList[Succ]) {
        OnList[Succ] = true;
        Worklist.push_back(Succ);
      }
    }
  }
  return R;
}

} // namespace analysis
} // namespace pgsd

#endif // PGSD_ANALYSIS_DATAFLOW_H
