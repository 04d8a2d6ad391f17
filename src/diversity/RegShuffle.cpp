//===-- diversity/RegShuffle.cpp - Register-allocation shuffling -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "diversity/RegShuffle.h"

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"

#include <array>
#include <cassert>

using namespace pgsd;
using namespace pgsd::diversity;
using namespace pgsd::mir;

RegShuffleStats diversity::shuffleRegisters(MModule &M, Rng &Generator) {
  RegShuffleStats Stats;
  for (MFunction &F : M.Functions) {
    ++Stats.FunctionsConsidered;

    // A Setcc destination or Movzx8 source needs a low byte; on IA-32
    // ESI/EDI have none, so an EBX live range carrying one cannot move.
    bool PinEbx = false;
    for (const MBasicBlock &BB : F.Blocks)
      for (const MInstr &I : BB.Instrs)
        if ((I.Op == MOp::Setcc && I.Dst == x86::Reg::EBX) ||
            (I.Op == MOp::Movzx8 && I.Src == x86::Reg::EBX))
          PinEbx = true;

    // Rows of analysis::CalleeSavedRenamings, identity first: with EBX
    // pinned (8-bit subregister live range) only rows 0-1, which keep
    // EBX in place, are drawn.
    size_t NumPerms = PinEbx ? 2 : analysis::NumCalleeSavedRenamings;
    size_t Pick = static_cast<size_t>(Generator.nextBelow(NumPerms));
    Stats.Renamings.push_back(static_cast<uint8_t>(Pick));
    if (Pick == 0)
      continue; // identity draw
    const uint8_t *Perm = analysis::CalleeSavedRenamings[Pick];

    std::array<x86::Reg, x86::NumRegs> Map;
    for (unsigned R = 0; R != x86::NumRegs; ++R)
      Map[R] = static_cast<x86::Reg>(R);
    Map[3] = static_cast<x86::Reg>(Perm[0]);
    Map[6] = static_cast<x86::Reg>(Perm[1]);
    Map[7] = static_cast<x86::Reg>(Perm[2]);

    for (MBasicBlock &BB : F.Blocks)
      for (MInstr &I : BB.Instrs) {
        I.Dst = Map[x86::regNum(I.Dst)];
        I.Src = Map[x86::regNum(I.Src)];
      }

    // The prologue/epilogue save set follows the renaming, so the
    // callee-saved contract holds for exactly the registers now in use.
    bool Uses[x86::NumRegs] = {};
    Uses[x86::regNum(Map[3])] = F.UsesEbx;
    Uses[x86::regNum(Map[6])] = F.UsesEsi;
    Uses[x86::regNum(Map[7])] = F.UsesEdi;
    F.UsesEbx = Uses[3];
    F.UsesEsi = Uses[6];
    F.UsesEdi = Uses[7];

    ++Stats.FunctionsShuffled;
    for (unsigned R : {3u, 6u, 7u})
      if (x86::regNum(Map[R]) != R)
        ++Stats.RegsRemapped;
  }
  assert(mir::verify(M).empty() &&
         "register shuffling broke the module");
  assert(analysis::checkEflags(M).ok() &&
         "register shuffling broke a flag def-use chain");
  return Stats;
}
