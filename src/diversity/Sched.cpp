//===-- diversity/Sched.cpp - Schedule randomization -----------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "diversity/Sched.h"

#include "analysis/Analysis.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace pgsd;
using namespace pgsd::diversity;
using namespace pgsd::mir;

namespace {

bool isBranch(const MInstr &I) {
  return I.Op == MOp::Jmp || I.Op == MOp::Jcc || I.Op == MOp::Ret;
}

/// Event-producing non-read operations. Keeping these totally ordered --
/// against each other and against every memory read -- means a legal
/// schedule only ever permutes read-vs-read within one store epoch,
/// which is exactly the commutation the equivalence prover admits.
bool isBarrier(const MInstr &I) {
  switch (I.Op) {
  case MOp::Store:
  case MOp::StoreFrame:
  case MOp::Call:
  case MOp::Idiv:
  case MOp::ProfInc:
    return true;
  default:
    return false;
  }
}

bool isMemRead(const MInstr &I) {
  return I.Op == MOp::Load || I.Op == MOp::LoadFrame;
}

bool isStackOp(const MInstr &I) {
  switch (I.Op) {
  case MOp::Push:
  case MOp::PushI:
  case MOp::Pop:
  case MOp::AdjustSP:
  case MOp::Call:
    return true;
  default:
    return false;
  }
}

/// One schedulable unit: a [Begin, End) range of block instructions --
/// single instructions except for cdq..idiv fusions, which stay atomic
/// so the CallConv checker's adjacency rule survives any order.
struct Node {
  uint32_t Begin = 0;
  uint32_t End = 0;
  uint8_t Reads = 0;  ///< Register bitmask, implicit operands included.
  uint8_t Writes = 0;
  bool TouchesFlags = false; ///< flagEffect Defines or Clobbers.
  bool ReadsFlags = false;   ///< Setcc.
  bool Barrier = false;
  bool MemRead = false;
  bool StackOp = false;
  std::vector<uint32_t> Succs;
  uint32_t Preds = 0;
};

} // namespace

SchedStats diversity::randomizeSchedule(MModule &M,
                                        const DiversityOptions &Opts,
                                        Rng &Generator) {
  SchedStats Stats;

  // The paper's x_max, shared with NOP insertion: the hottest block in
  // the module anchors the hot end of the budget curve.
  uint64_t MaxCount = 0;
  for (const MFunction &F : M.Functions)
    for (const MBasicBlock &BB : F.Blocks)
      MaxCount = std::max(MaxCount, BB.ProfileCount);
  const NopProbability PNopOf(MaxCount, Opts);

  for (MFunction &F : M.Functions) {
    for (MBasicBlock &BB : F.Blocks) {
      // Body = everything before the trailing branch group; control
      // transfers keep their positions.
      uint32_t BodyEnd = 0;
      while (BodyEnd != BB.Instrs.size() && !isBranch(BB.Instrs[BodyEnd]))
        ++BodyEnd;

      std::vector<Node> Nodes;
      for (uint32_t I = 0; I != BodyEnd;) {
        Node N;
        N.Begin = I;
        uint32_t End = I + 1;
        if (BB.Instrs[I].Op == MOp::Cdq) {
          uint32_t J = I + 1;
          while (J != BodyEnd && BB.Instrs[J].Op == MOp::Nop)
            ++J;
          if (J != BodyEnd && BB.Instrs[J].Op == MOp::Idiv)
            End = J + 1;
        }
        N.End = End;
        for (uint32_t K = N.Begin; K != N.End; ++K) {
          const MInstr &Ins = BB.Instrs[K];
          N.Reads |= mir::readRegs(Ins);
          N.Writes |= mir::writtenRegs(Ins);
          if (analysis::flagEffect(Ins) != analysis::FlagEffect::Neutral)
            N.TouchesFlags = true;
          if (Ins.Op == MOp::Setcc)
            N.ReadsFlags = true;
          N.Barrier |= isBarrier(Ins);
          N.MemRead |= isMemRead(Ins);
          N.StackOp |= isStackOp(Ins);
        }
        Nodes.push_back(std::move(N));
        I = End;
      }
      if (Nodes.size() < 2)
        continue;
      ++Stats.BlocksConsidered;

      // Hot blocks keep their order with probability 1 - pNOP(count);
      // cold blocks reorder aggressively.
      double PNop = PNopOf(BB.ProfileCount);
      if (!Generator.nextBernoulli(PNop))
        continue;

      auto AddEdge = [&Nodes](uint32_t From, uint32_t To) {
        Nodes[From].Succs.push_back(To);
        ++Nodes[To].Preds;
      };

      // Register RAW/WAR/WAW chains, one pass per register.
      for (unsigned R = 0; R != x86::NumRegs; ++R) {
        uint8_t Bit = static_cast<uint8_t>(1u << R);
        int LastWrite = -1;
        std::vector<uint32_t> ReadsSince;
        for (uint32_t N = 0; N != Nodes.size(); ++N) {
          bool Rd = (Nodes[N].Reads & Bit) != 0;
          bool Wr = (Nodes[N].Writes & Bit) != 0;
          if (Rd && LastWrite >= 0)
            AddEdge(static_cast<uint32_t>(LastWrite), N);
          if (Wr) {
            for (uint32_t Rdr : ReadsSince)
              if (Rdr != N)
                AddEdge(Rdr, N);
            if (LastWrite >= 0)
              AddEdge(static_cast<uint32_t>(LastWrite), N);
            LastWrite = static_cast<int>(N);
            ReadsSince.clear();
          }
          if (Rd)
            ReadsSince.push_back(N);
        }
      }

      // EFLAGS: definers/clobberers form a chain (their clobber ordinals
      // and the final flag state are order-sensitive); Setcc consumers
      // are pinned between their producer and the next toucher.
      {
        int LastTouch = -1;
        std::vector<uint32_t> FlagReaders;
        for (uint32_t N = 0; N != Nodes.size(); ++N) {
          if (Nodes[N].ReadsFlags) {
            if (LastTouch >= 0)
              AddEdge(static_cast<uint32_t>(LastTouch), N);
            FlagReaders.push_back(N);
          }
          if (Nodes[N].TouchesFlags) {
            for (uint32_t Rdr : FlagReaders)
              if (Rdr != N)
                AddEdge(Rdr, N);
            if (LastTouch >= 0)
              AddEdge(static_cast<uint32_t>(LastTouch), N);
            LastTouch = static_cast<int>(N);
            FlagReaders.clear();
          }
        }
      }

      // Memory: barriers chain with each other and fence every read.
      {
        int LastBarrier = -1;
        std::vector<uint32_t> ReadsSinceBarrier;
        for (uint32_t N = 0; N != Nodes.size(); ++N) {
          if (Nodes[N].Barrier) {
            if (LastBarrier >= 0)
              AddEdge(static_cast<uint32_t>(LastBarrier), N);
            for (uint32_t Rdr : ReadsSinceBarrier)
              AddEdge(Rdr, N);
            LastBarrier = static_cast<int>(N);
            ReadsSinceBarrier.clear();
          } else if (Nodes[N].MemRead) {
            if (LastBarrier >= 0)
              AddEdge(static_cast<uint32_t>(LastBarrier), N);
            ReadsSinceBarrier.push_back(N);
          }
        }
      }

      // Stack traffic is a chain: depth and hole ordinals are
      // order-sensitive, and argument pushes must stay with their call.
      {
        int LastStack = -1;
        for (uint32_t N = 0; N != Nodes.size(); ++N) {
          if (!Nodes[N].StackOp)
            continue;
          if (LastStack >= 0)
            AddEdge(static_cast<uint32_t>(LastStack), N);
          LastStack = static_cast<int>(N);
        }
      }

      // Random topological order: Kahn's algorithm with a uniformly
      // random draw from the ready list. The list is kept in ascending
      // original order so the walk is a pure function of the stream.
      std::vector<uint32_t> Ready, Order;
      Order.reserve(Nodes.size());
      for (uint32_t N = 0; N != Nodes.size(); ++N)
        if (Nodes[N].Preds == 0)
          Ready.push_back(N);
      while (!Ready.empty()) {
        size_t Pick = Ready.size() == 1
                          ? 0
                          : static_cast<size_t>(
                                Generator.nextBelow(Ready.size()));
        uint32_t N = Ready[Pick];
        Ready.erase(Ready.begin() + static_cast<ptrdiff_t>(Pick));
        Order.push_back(N);
        for (uint32_t S : Nodes[N].Succs)
          if (--Nodes[S].Preds == 0)
            Ready.insert(std::lower_bound(Ready.begin(), Ready.end(), S),
                         S);
      }
      assert(Order.size() == Nodes.size() &&
             "dependence graph has a cycle");

      uint64_t MovedInstrs = 0;
      {
        uint32_t Slot = 0;
        for (uint32_t N : Order)
          for (uint32_t K = Nodes[N].Begin; K != Nodes[N].End;
               ++K, ++Slot)
            if (K != Slot)
              ++MovedInstrs;
      }
      if (MovedInstrs == 0)
        continue;

      std::vector<MInstr> Out;
      Out.reserve(BB.Instrs.size());
      for (uint32_t N : Order)
        for (uint32_t K = Nodes[N].Begin; K != Nodes[N].End; ++K)
          Out.push_back(BB.Instrs[K]);
      for (uint32_t K = BodyEnd;
           K != static_cast<uint32_t>(BB.Instrs.size()); ++K)
        Out.push_back(BB.Instrs[K]);
      BB.Instrs = std::move(Out);
      ++Stats.BlocksRandomized;
      Stats.InstrsPermuted += MovedInstrs;
    }
  }
  assert(mir::verify(M).empty() &&
         "schedule randomization broke the module");
  assert(analysis::checkEflags(M).ok() &&
         "schedule randomization broke a flag def-use chain");
  return Stats;
}
