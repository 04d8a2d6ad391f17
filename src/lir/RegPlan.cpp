//===-- lir/RegPlan.cpp - Register planning / frame layout ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "lir/RegPlan.h"

#include <algorithm>
#include <iterator>
#include <map>

using namespace pgsd;
using namespace pgsd::lir;
using namespace pgsd::ir;

namespace {

/// Calls \p Fn for every value read by \p I.
template <typename Callback>
void forEachUse(const Instr &I, Callback Fn) {
  switch (I.Op) {
  case Opcode::Const:
  case Opcode::GlobalAddr:
  case Opcode::FrameAddr:
    break;
  case Opcode::Copy:
  case Opcode::Neg:
  case Opcode::Not:
  case Opcode::Load:
    Fn(I.A);
    break;
  case Opcode::Store:
    Fn(I.A);
    Fn(I.B);
    break;
  case Opcode::Call:
    for (ValueId Arg : I.Args)
      Fn(Arg);
    break;
  case Opcode::Br:
    break;
  case Opcode::CondBr:
    Fn(I.A);
    break;
  case Opcode::Ret:
    if (I.A != NoValue)
      Fn(I.A);
    break;
  default: // binary arithmetic / comparisons
    Fn(I.A);
    Fn(I.B);
    break;
  }
}

/// Returns the value written by \p I, or NoValue.
ValueId defOf(const Instr &I) {
  switch (I.Op) {
  case Opcode::Store:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    return NoValue;
  default:
    return I.Dst; // Call may also return NoValue
  }
}

} // namespace

std::vector<LiveSet> lir::computeLiveIn(const Function &F) {
  size_t NumBlocks = F.Blocks.size();

  // Per-block USE (read before any write) and DEF sets, sorted. The
  // stamps name the last block that defined or used each value, so each
  // set is collected in one walk of the block without a per-block
  // bitset over every value.
  std::vector<LiveSet> Use(NumBlocks), Def(NumBlocks);
  std::vector<size_t> DefStamp(F.NumValues, ~size_t(0));
  std::vector<size_t> UseStamp(F.NumValues, ~size_t(0));
  for (size_t B = 0; B != NumBlocks; ++B) {
    for (const Instr &I : F.Blocks[B].Instrs) {
      forEachUse(I, [&](ValueId V) {
        if (DefStamp[V] != B && UseStamp[V] != B) {
          UseStamp[V] = B;
          Use[B].push_back(V);
        }
      });
      if (ValueId D = defOf(I); D != NoValue && DefStamp[D] != B) {
        DefStamp[D] = B;
        Def[B].push_back(D);
      }
    }
    std::sort(Use[B].begin(), Use[B].end());
    std::sort(Def[B].begin(), Def[B].end());
  }

  // The least fixpoint of LiveIn = Use | (LiveOut & ~Def), LiveOut =
  // union of successor LiveIn. Sets only grow from one round to the
  // next, so a round changed something exactly when a LiveIn grew.
  std::vector<LiveSet> LiveIn(NumBlocks);
  LiveSet LiveOut, Merged, In;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t B = NumBlocks; B-- > 0;) {
      LiveOut.clear();
      for (BlockId S : successors(F.Blocks[B])) {
        Merged.clear();
        std::set_union(LiveOut.begin(), LiveOut.end(), LiveIn[S].begin(),
                       LiveIn[S].end(), std::back_inserter(Merged));
        LiveOut.swap(Merged);
      }
      Merged.clear();
      std::set_difference(LiveOut.begin(), LiveOut.end(), Def[B].begin(),
                          Def[B].end(), std::back_inserter(Merged));
      In.clear();
      std::set_union(Use[B].begin(), Use[B].end(), Merged.begin(),
                     Merged.end(), std::back_inserter(In));
      if (In.size() != LiveIn[B].size()) {
        LiveIn[B].swap(In);
        Changed = true;
      }
    }
  }
  return LiveIn;
}

FramePlan lir::planFunction(const Function &F) {
  FramePlan Plan;
  size_t NumValues = F.NumValues;
  size_t NumBlocks = F.Blocks.size();
  Plan.Values.resize(NumValues);

  // --- Loop depth from retreating edges. Lowering and simplifyCFG keep
  // loop headers before their bodies in block order, so an edge B -> H
  // with H <= B closes a loop spanning [H, B].
  Plan.LoopDepth.assign(NumBlocks, 0);
  for (size_t B = 0; B != NumBlocks; ++B)
    for (BlockId S : successors(F.Blocks[B]))
      if (S <= B)
        for (size_t Inner = S; Inner <= B; ++Inner)
          ++Plan.LoopDepth[Inner];

  // --- Liveness and interval hulls over a linear numbering.
  const std::vector<LiveSet> LiveIn = computeLiveIn(F);

  constexpr uint32_t NoPos = ~uint32_t(0);
  std::vector<uint32_t> Start(NumValues, NoPos);
  std::vector<uint32_t> End(NumValues, 0);
  std::vector<uint64_t> Weight(NumValues, 0);
  std::vector<uint32_t> RawCount(NumValues, 0);
  auto Extend = [&](ValueId V, uint32_t Pos) {
    if (Start[V] == NoPos || Pos < Start[V])
      Start[V] = Pos;
    if (Pos > End[V])
      End[V] = Pos;
  };

  uint32_t Pos = 0;
  // Parameters are defined at function entry.
  for (ValueId V = 0; V != F.NumParams; ++V)
    Extend(V, 0);
  for (size_t B = 0; B != NumBlocks; ++B) {
    uint32_t BlockStart = Pos;
    // Weight uses by estimated loop depth (capped to avoid overflow).
    uint32_t Depth = std::min(Plan.LoopDepth[B], 6u);
    uint64_t UseWeight = 1;
    for (uint32_t D = 0; D != Depth; ++D)
      UseWeight *= 10;

    for (const Instr &I : F.Blocks[B].Instrs) {
      forEachUse(I, [&](ValueId V) {
        Extend(V, Pos);
        Weight[V] += UseWeight;
        ++RawCount[V];
      });
      if (ValueId D = defOf(I); D != NoValue) {
        Extend(D, Pos);
        Weight[D] += UseWeight;
        ++RawCount[D];
      }
      ++Pos;
    }
    uint32_t BlockEnd = Pos == BlockStart ? BlockStart : Pos - 1;
    for (ValueId V : LiveIn[B])
      Extend(V, BlockStart);
    // LiveOut is the union of the successors' LiveIn.
    for (BlockId S : successors(F.Blocks[B]))
      for (ValueId V : LiveIn[S])
        Extend(V, BlockEnd);
  }

  // --- Greedy promotion to callee-saved registers by descending weight.
  struct Candidate {
    ValueId V;
    uint64_t W;
  };
  // Single-use temporaries (one def + one use) flow through the scratch
  // registers anyway; promoting them only adds register moves and steals
  // callee-saved registers from genuinely reused values.
  std::vector<Candidate> Candidates;
  for (size_t V = 0; V != NumValues; ++V)
    if (Start[V] != NoPos && Weight[V] > 1 && RawCount[V] >= 3)
      Candidates.push_back({static_cast<ValueId>(V), Weight[V]});
  std::sort(Candidates.begin(), Candidates.end(),
            [](const Candidate &A, const Candidate &B) {
              if (A.W != B.W)
                return A.W > B.W;
              return A.V < B.V; // deterministic tie-break
            });

  const x86::Reg Pool[3] = {x86::Reg::EBX, x86::Reg::ESI, x86::Reg::EDI};
  // Each register's intervals, by start. They are disjoint, so a new
  // one overlaps some interval exactly when it overlaps the last one
  // starting at or before its end.
  std::map<uint32_t, uint32_t> Assigned[3];
  for (const Candidate &C : Candidates) {
    for (unsigned R = 0; R != 3; ++R) {
      auto After = Assigned[R].upper_bound(End[C.V]);
      if (After != Assigned[R].begin() &&
          std::prev(After)->second >= Start[C.V])
        continue;
      Assigned[R].emplace_hint(After, Start[C.V], End[C.V]);
      Plan.Values[C.V].InReg = true;
      Plan.Values[C.V].R = Pool[R];
      break;
    }
  }
  Plan.UsesEbx = !Assigned[0].empty();
  Plan.UsesEsi = !Assigned[1].empty();
  Plan.UsesEdi = !Assigned[2].empty();

  // --- Frame layout. Incoming arguments live at positive offsets; every
  // value keeps a home slot (promoted parameters are loaded from theirs
  // in the prologue), locals and spills grow downward.
  int32_t NextSlot = 0;
  for (size_t V = 0; V != NumValues; ++V) {
    if (V < F.NumParams) {
      Plan.Values[V].FrameDisp = 8 + 4 * static_cast<int32_t>(V);
      continue;
    }
    NextSlot -= 4;
    Plan.Values[V].FrameDisp = NextSlot;
  }
  Plan.ValueSlotsLowDisp = NextSlot;
  Plan.ObjectDisp.resize(F.FrameObjects.size());
  for (size_t O = 0; O != F.FrameObjects.size(); ++O) {
    uint32_t Size = (F.FrameObjects[O].SizeBytes + 3u) & ~3u;
    NextSlot -= static_cast<int32_t>(Size);
    Plan.ObjectDisp[O] = NextSlot;
  }
  Plan.FrameBytes = static_cast<uint32_t>(-NextSlot);
  return Plan;
}
