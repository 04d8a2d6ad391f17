//===-- mexec/Precompiled.cpp - Direct-threaded execution engine -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Two halves: a one-shot lowering pass (the constructor) that flattens
// an MModule into segment-charged PInstr records, and the executor,
// which dispatches them with computed gotos (a GNU extension, like the
// __int128 and __builtin_popcount the code base already relies on).
// Heads charge whole segments up front; the rare paths rebuild the
// reference engine's exact counts at a trap or a limit crossing --
// cost-before-trap on stores/pushes/idiv/calls, cost-after-read on
// loads/pops, prologue cost only after the stack limit check -- because
// the bit-identity contract includes Cycles10 and Instructions on
// trapping runs, not just clean ones.
//
//===----------------------------------------------------------------------===//

#include "mexec/Precompiled.h"

#include "codegen/Layout.h"
#include "mexec/Flags.h"
#include "x86/Nops.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

using namespace pgsd;
using namespace pgsd::mexec;
using namespace pgsd::mexec::detail;
using namespace pgsd::mir;

namespace {

/// Dense register indices (x86 hardware encoding, same as x86::regNum).
constexpr unsigned RegEAX = 0;
constexpr unsigned RegECX = 1;
constexpr unsigned RegEDX = 2;
constexpr unsigned RegEBX = 3;
constexpr unsigned RegESP = 4;
constexpr unsigned RegEBP = 5;
constexpr unsigned RegESI = 6;
constexpr unsigned RegEDI = 7;

/// Reusable per-thread run memory. A fresh 16 MiB zero fill per run
/// would dominate short runs, so writes mark 64 KiB pages dirty and the
/// next run on this thread clears only those.
constexpr uint32_t PageShift = 16;
constexpr uint32_t NumPages = codegen::MemorySize >> PageShift;

struct Scratch {
  std::vector<uint8_t> Mem;
  uint8_t Dirty[NumPages] = {};
};

Scratch &acquireScratch() {
  thread_local Scratch S;
  if (S.Mem.empty()) {
    S.Mem.assign(codegen::MemorySize, 0);
  } else {
    for (uint32_t P = 0; P != NumPages; ++P) {
      if (S.Dirty[P]) {
        std::memset(S.Mem.data() + (static_cast<size_t>(P) << PageShift),
                    0, static_cast<size_t>(1) << PageShift);
        S.Dirty[P] = 0;
      }
    }
  }
  return S;
}

} // namespace

Precompiled::Precompiled(const MModule &M, const CostModel &C)
    : Costs(C) {
  assert(M.EntryFunction >= 0 && "module has no entry function");
  assert(mir::verify(M).empty() && "machine module must verify");
  EntryFunc = static_cast<uint32_t>(M.EntryFunction);
  NumCounters = M.NumProfCounters;

  // Global address layout, identical to the reference engine's.
  std::vector<uint32_t> GlobalAddrs;
  GlobalAddrs.reserve(M.Globals.size());
  {
    uint32_t Addr = codegen::GlobalsBase;
    for (const ir::Global &G : M.Globals) {
      GlobalAddrs.push_back(Addr);
      Addr += (G.SizeBytes + 3u) & ~3u;
    }
  }
  // Pre-check the init writes the reference engine performs one by one;
  // a write that would trap there makes every run of this module trap
  // before executing anything (replayed by the executor's early-out).
  for (size_t GI = 0; GI != M.Globals.size() && !InitTraps; ++GI) {
    const ir::Global &G = M.Globals[GI];
    for (size_t W = 0; W != G.Init.size(); ++W) {
      uint32_t WAddr = GlobalAddrs[GI] + static_cast<uint32_t>(4 * W);
      if (static_cast<uint64_t>(WAddr) + 4 > codegen::MemorySize ||
          WAddr < 0x1000) {
        InitTraps = true;
        break;
      }
      InitWrites.push_back({WAddr, G.Init[W]});
    }
  }
  if (InitTraps)
    InitWrites.clear();

  size_t NumFuncs = M.Functions.size();
  FlatBase.resize(NumFuncs);
  BlocksPerFunc.resize(NumFuncs);
  for (size_t FI = 0; FI != NumFuncs; ++FI) {
    FlatBase[FI] = NumFlatBlocks;
    BlocksPerFunc[FI] = static_cast<uint32_t>(M.Functions[FI].Blocks.size());
    NumFlatBlocks += BlocksPerFunc[FI];
  }
  // Segments are numbered as forEachSegmentInstr numbers them: a block's
  // first segment by its flat block index, the rest after every block.
  NumSegments = NumFlatBlocks;

  // The open segment: its head's offset, its running count and cycle
  // sum, and its records with the cycles the reference engine has
  // charged when each of them traps. Undo entries are filled in once the
  // segment closes and its totals are known.
  uint32_t HeadPC = 0;
  uint32_t SegInstrs = 0;
  uint32_t SegCycles = 0;
  struct Charged {
    uint32_t PC;
    uint32_t Keep;
  };
  std::vector<Charged> Records;
  auto openSegment = [&](POp Op, uint32_t Ext) {
    PInstr Head;
    Head.Op = Op;
    Head.Ext = Ext;
    HeadPC = static_cast<uint32_t>(Code.size());
    Code.push_back(Head);
    Side.push_back({static_cast<uint32_t>(SegPrefix.size()), 0, 0});
    SegInstrs = 0;
    SegCycles = 0;
    Records.clear();
  };
  auto closeSegment = [&] {
    Code[HeadPC].Imm = static_cast<int32_t>(SegInstrs);
    Code[HeadPC].Cost = SegCycles;
    for (const Charged &R : Records) {
      PSide &S = Side[R.PC];
      S.UndoInstrs = SegInstrs - (S.Row - Side[HeadPC].Row) - 1;
      S.UndoCycles = SegCycles - R.Keep;
    }
  };

  Funcs.resize(NumFuncs);
  for (size_t FI = 0; FI != NumFuncs; ++FI) {
    const MFunction &F = M.Functions[FI];
    uint32_t Saved = (F.UsesEbx ? 1 : 0) + (F.UsesEsi ? 1 : 0) +
                     (F.UsesEdi ? 1 : 0);
    uint32_t RetCost = Saved * C.Pop + C.Pop /*leave*/ + C.Ret;
    Funcs[FI].Entry = static_cast<uint32_t>(Code.size());
    Funcs[FI].FrameDrop = F.FrameBytes + 4 * Saved;
    Funcs[FI].PrologueCost = C.Push + C.MovRR + C.Alu + Saved * C.Push;

    // Branch targets are block heads not yet emitted; patched below.
    std::vector<uint32_t> BlockPC(F.Blocks.size());
    std::vector<std::pair<uint32_t, uint32_t>> Fixups; // (PC, block)
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      BlockPC[B] = static_cast<uint32_t>(Code.size());
      openSegment(POp::BlockHead, FlatBase[FI] + static_cast<uint32_t>(B));
      const std::vector<MInstr> &Instrs = F.Blocks[B].Instrs;
      for (size_t I = 0; I != Instrs.size(); ++I) {
        const MInstr &MI = Instrs[I];
        PInstr P;
        P.Op = POp::FellOff; // overwritten below; trap if a case is missed
        uint32_t Own = 0;         // static Cycles10 charge
        bool Dropped = false;     // no record: the head charges it
        bool ChargedAfter = false; // charged only after a successful read
        const bool EndsSegment = endsSegment(MI);
        switch (MI.Op) {
        case MOp::MovRR:
          P.Op = POp::MovRR;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          Own = C.MovRR;
          break;
        case MOp::MovRI:
          P.Op = POp::MovRI;
          P.A = x86::regNum(MI.Dst);
          P.Imm = MI.Imm;
          Own = C.MovRI;
          break;
        case MOp::MovGlobal:
          // Address resolved now; at run time this is a plain MovRI.
          P.Op = POp::MovRI;
          P.A = x86::regNum(MI.Dst);
          P.Imm = static_cast<int32_t>(
              GlobalAddrs[static_cast<size_t>(MI.Imm)]);
          Own = C.MovRI;
          break;
        case MOp::Load:
          P.Op = POp::Load;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          P.Imm = MI.Imm;
          Own = C.Load;
          ChargedAfter = true;
          break;
        case MOp::Store:
          P.Op = POp::Store;
          P.A = x86::regNum(MI.Dst); // base address register
          P.B = x86::regNum(MI.Src); // value
          P.Imm = MI.Imm;
          Own = C.Store;
          break;
        case MOp::LoadFrame:
          P.Op = POp::LoadFrame;
          P.A = x86::regNum(MI.Dst);
          P.Imm = MI.Imm;
          Own = C.FrameLoad;
          ChargedAfter = true;
          break;
        case MOp::StoreFrame:
          P.Op = POp::StoreFrame;
          P.B = x86::regNum(MI.Src);
          P.Imm = MI.Imm;
          Own = C.FrameStore;
          break;
        case MOp::LeaFrame:
          P.Op = POp::LeaFrame;
          P.A = x86::regNum(MI.Dst);
          P.Imm = MI.Imm;
          Own = C.Lea;
          break;
        case MOp::AluRR:
        case MOp::AluRI: {
          bool RR = MI.Op == MOp::AluRR;
          switch (MI.Alu) {
          case x86::AluOp::Add:
            P.Op = RR ? POp::AddRR : POp::AddRI;
            break;
          case x86::AluOp::Sub:
            P.Op = RR ? POp::SubRR : POp::SubRI;
            break;
          case x86::AluOp::And:
            P.Op = RR ? POp::AndRR : POp::AndRI;
            break;
          case x86::AluOp::Or:
            P.Op = RR ? POp::OrRR : POp::OrRI;
            break;
          case x86::AluOp::Xor:
            P.Op = RR ? POp::XorRR : POp::XorRI;
            break;
          case x86::AluOp::Cmp:
            P.Op = RR ? POp::CmpRR : POp::CmpRI;
            break;
          case x86::AluOp::Adc:
          case x86::AluOp::Sbb:
            P.Op = POp::AdcSbbTrap;
            break;
          }
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          P.Imm = MI.Imm;
          Own = C.Alu;
          break;
        }
        case MOp::ImulRR:
          P.Op = POp::ImulRR;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          Own = C.Imul;
          break;
        case MOp::Cdq:
          P.Op = POp::Cdq;
          Own = C.Alu;
          break;
        case MOp::Idiv:
          P.Op = POp::Idiv;
          P.B = x86::regNum(MI.Src);
          Own = C.Idiv;
          break;
        case MOp::Neg:
          P.Op = POp::Neg;
          P.A = x86::regNum(MI.Dst);
          Own = C.Alu;
          break;
        case MOp::Not:
          P.Op = POp::Not;
          P.A = x86::regNum(MI.Dst);
          Own = C.Alu;
          break;
        case MOp::ShiftRI:
        case MOp::ShiftRC: {
          bool RI = MI.Op == MOp::ShiftRI;
          switch (MI.Shift) {
          case x86::ShiftOp::Shl:
            P.Op = RI ? POp::ShlRI : POp::ShlRC;
            break;
          case x86::ShiftOp::Shr:
            P.Op = RI ? POp::ShrRI : POp::ShrRC;
            break;
          case x86::ShiftOp::Sar:
            P.Op = RI ? POp::SarRI : POp::SarRC;
            break;
          }
          P.A = x86::regNum(MI.Dst);
          if (RI)
            P.Ext = static_cast<uint32_t>(MI.Imm) & 31; // pre-masked
          Own = C.Alu;
          break;
        }
        case MOp::TestRR:
          P.Op = POp::TestRR;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          Own = C.Alu;
          break;
        case MOp::Setcc:
          P.Op = POp::Setcc;
          P.A = x86::regNum(MI.Dst);
          P.B = static_cast<uint8_t>(MI.CC);
          Own = C.Alu;
          break;
        case MOp::Movzx8:
          P.Op = POp::Movzx8;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          Own = C.Alu;
          break;
        case MOp::Push:
          P.Op = POp::Push;
          P.A = x86::regNum(MI.Src);
          Own = C.Push;
          break;
        case MOp::PushI:
          P.Op = POp::PushI;
          P.Imm = MI.Imm;
          Own = C.Push;
          break;
        case MOp::Pop:
          P.Op = POp::Pop;
          P.A = x86::regNum(MI.Dst);
          Own = C.Pop;
          ChargedAfter = true;
          break;
        case MOp::AdjustSP:
          P.Op = POp::AdjustSP;
          P.Imm = MI.Imm;
          Own = C.Alu;
          break;
        case MOp::Call:
          if (MI.Target.IsIntrinsic) {
            switch (MI.Target.Intr) {
            case ir::Intrinsic::PrintI32:
              P.Op = POp::PrintI32;
              break;
            case ir::Intrinsic::PrintChar:
              P.Op = POp::PrintChar;
              break;
            case ir::Intrinsic::ReadI32:
              P.Op = POp::ReadI32;
              break;
            case ir::Intrinsic::InputLen:
              P.Op = POp::InputLen;
              break;
            case ir::Intrinsic::Sink:
              P.Op = POp::Sink;
              break;
            }
            Own = C.Call + C.Intrinsic;
          } else {
            P.Op = POp::CallFunc;
            P.Ext = static_cast<uint32_t>(MI.Target.Func);
            Own = C.Call;
          }
          break;
        case MOp::Jmp:
          if (static_cast<uint32_t>(MI.Imm) ==
              static_cast<uint32_t>(B) + 1) {
            // Lexically-next target: free by the cost model, and the
            // target's BlockHead is the next record anyway.
            Dropped = true;
          } else {
            P.Op = POp::Jmp;
            Fixups.emplace_back(static_cast<uint32_t>(Code.size()),
                                static_cast<uint32_t>(MI.Imm));
            Own = C.JmpTaken;
          }
          break;
        case MOp::Jcc:
          // Taken or not is known only at run time: the handler charges.
          P.Op = POp::Jcc;
          P.A = static_cast<uint8_t>(MI.CC);
          Fixups.emplace_back(static_cast<uint32_t>(Code.size()),
                              static_cast<uint32_t>(MI.Imm));
          P.Cost = C.JccTaken;
          P.Imm = static_cast<int32_t>(C.JccNotTaken);
          break;
        case MOp::Ret:
          P.Op = POp::Ret;
          Own = RetCost;
          break;
        case MOp::Nop:
          Dropped = true;
          Own = x86::nopInfo(MI.NopK).LocksBus ? C.XchgNop : C.Nop;
          break;
        case MOp::ProfInc:
          P.Op = POp::ProfInc;
          P.Ext = static_cast<uint32_t>(MI.Imm);
          Own = C.ProfInc;
          break;
        }
        // A segment's cycle sum must fit its head; split a run that
        // would overflow it (only absurd cost models get here).
        if (SegCycles > UINT32_MAX - Own) {
          closeSegment();
          openSegment(POp::SegHead, NumSegments++);
        }
        uint32_t Row = static_cast<uint32_t>(SegPrefix.size());
        SegPrefix.push_back(SegCycles);
        if (!Dropped) {
          Records.push_back({static_cast<uint32_t>(Code.size()),
                             SegCycles + (ChargedAfter ? 0 : Own)});
          Code.push_back(P);
          Side.push_back({Row, 0, 0});
        }
        ++SegInstrs;
        SegCycles += Own;
        if (EndsSegment && I + 1 != Instrs.size()) {
          closeSegment();
          openSegment(POp::SegHead, NumSegments++);
        }
      }
      closeSegment();
    }
    for (const auto &[PC, Block] : Fixups)
      Code[PC].Ext = BlockPC[Block];
    PInstr Guard;
    Guard.Op = POp::FellOff;
    Code.push_back(Guard);
    Side.push_back({static_cast<uint32_t>(SegPrefix.size()), 0, 0});
  }
}

RunResult Precompiled::run(const RunOptions &Opts) const {
  assert(Opts.Costs == Costs && "the stream's charges need the baked costs");
  return execute(Opts, nullptr);
}

RunResult
Precompiled::runCountingSegments(const RunOptions &Opts,
                                 std::vector<uint64_t> &SegmentEntries) const {
  assert(Opts.Costs == Costs && "segment counts need the baked costs");
  return execute(Opts, &SegmentEntries);
}

// The dispatch loop uses GNU computed gotos; silence -Wpedantic for the
// extension while keeping it on everywhere else.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"

// Cache-line aligned: the dispatch loop's speed depends on where its
// handlers fall relative to 64-byte lines, and without the alignment
// that placement moves whenever unrelated code linked before it changes
// size (a 16-byte shift measured 6% slower on the 19-program suite's
// training runs, RelWithDebInfo, GCC 12).
__attribute__((aligned(64))) RunResult
Precompiled::execute(const RunOptions &Opts,
                     std::vector<uint64_t> *SegmentEntries) const {
  RunResult Result;
  Result.Counters.assign(NumCounters, 0);
  if (Opts.CollectOutput)
    Result.Output.reserve(OutputReserveBytes);

  // One count per segment; the first NumFlatBlocks are the block counts.
  std::vector<uint64_t> FlatCounts;
  const bool Collect = Opts.CollectBlockCounts;
  if (Collect || SegmentEntries)
    FlatCounts.assign(NumSegments, 0);
  auto Unflatten = [&] {
    if (Collect) {
      Result.BlockCounts.resize(BlocksPerFunc.size());
      for (size_t F = 0; F != BlocksPerFunc.size(); ++F) {
        const uint64_t *Base = FlatCounts.data() + FlatBase[F];
        Result.BlockCounts[F].assign(Base, Base + BlocksPerFunc[F]);
      }
    }
    if (SegmentEntries)
      *SegmentEntries = std::move(FlatCounts);
  };

  if (InitTraps) {
    // The reference engine traps while writing global initializers,
    // before the first instruction executes.
    Result.Trapped = true;
    Result.Trap = TrapKind::BadMemory;
    Result.TrapReason = "memory write out of bounds";
    Unflatten();
    return Result;
  }

  Scratch &S = acquireScratch();
  uint8_t *const Mem = S.Mem.data();
  uint8_t *const Dirty = S.Dirty;

  // Replay the (pre-bounds-checked) data segment initialization.
  for (const InitWrite &W : InitWrites) {
    uint32_t V = static_cast<uint32_t>(W.Value);
    Mem[W.Addr] = static_cast<uint8_t>(V);
    Mem[W.Addr + 1] = static_cast<uint8_t>(V >> 8);
    Mem[W.Addr + 2] = static_cast<uint8_t>(V >> 16);
    Mem[W.Addr + 3] = static_cast<uint8_t>(V >> 24);
    Dirty[W.Addr >> PageShift] = 1;
    Dirty[(W.Addr + 3) >> PageShift] = 1;
  }

  int32_t Regs[x86::NumRegs] = {0};
  FlagState Flags;
  uint64_t Cycles = 0;
  uint64_t Instrs = 0;
  uint32_t Checksum = 1;
  size_t InputPos = 0;
  const int32_t *const InputData = Opts.Input.data();
  const size_t InputSize = Opts.Input.size();
  const uint64_t MaxSteps = Opts.MaxSteps;
  const std::atomic<bool> *const Cancel = Opts.Cancel;
  const size_t MaxDepth = Opts.MaxCallDepth;
  uint64_t *const CountsFlat = FlatCounts.empty() ? nullptr
                                                 : FlatCounts.data();
  uint64_t *const Counters = Result.Counters.data();
  const bool CollectOutput = Opts.CollectOutput;

  // Heads compare the running count against one limit: the step budget
  // or the count just before the next cancel poll, whichever is nearer.
  // Both engines poll at every CancelPollStride-th counted instruction.
  uint64_t PollLimit = Cancel ? CancelPollStride - 1 : UINT64_MAX;
  uint64_t Limit = std::min(MaxSteps, PollLimit);
  // Set by a limit crossing: the record at which the segment stops, and
  // the trap and counts the reference engine reports there.
  const PInstr *StopAt = nullptr;
  TrapKind StopKind = TrapKind::None;
  uint64_t StopInstrs = 0;
  uint64_t StopCycles = 0;

  struct PFrame {
    uint32_t ReturnPC;
    int32_t SavedRegs[4]; ///< EBX, ESI, EDI, EBP.
    uint32_t SavedESP;
  };
  std::vector<PFrame> Frames;
  Frames.reserve(64);

  const PInstr *const Code0 = Code.data();
  const PInstr *In = Code0;

  auto trapSet = [&](TrapKind K, const char *Why) {
    Result.Trapped = true;
    Result.Trap = K;
    Result.TrapReason = Why;
    return false;
  };
  auto read32 = [&](uint32_t Addr, int32_t &Out) {
    if (static_cast<uint64_t>(Addr) + 4 > codegen::MemorySize ||
        Addr < 0x1000)
      return trapSet(TrapKind::BadMemory, "memory read out of bounds");
    Out = static_cast<int32_t>(
        static_cast<uint32_t>(Mem[Addr]) |
        (static_cast<uint32_t>(Mem[Addr + 1]) << 8) |
        (static_cast<uint32_t>(Mem[Addr + 2]) << 16) |
        (static_cast<uint32_t>(Mem[Addr + 3]) << 24));
    return true;
  };
  auto write32 = [&](uint32_t Addr, int32_t Value) {
    if (static_cast<uint64_t>(Addr) + 4 > codegen::MemorySize ||
        Addr < 0x1000)
      return trapSet(TrapKind::BadMemory, "memory write out of bounds");
    uint32_t V = static_cast<uint32_t>(Value);
    Mem[Addr] = static_cast<uint8_t>(V);
    Mem[Addr + 1] = static_cast<uint8_t>(V >> 8);
    Mem[Addr + 2] = static_cast<uint8_t>(V >> 16);
    Mem[Addr + 3] = static_cast<uint8_t>(V >> 24);
    Dirty[Addr >> PageShift] = 1;
    Dirty[(Addr + 3) >> PageShift] = 1;
    return true;
  };
  auto push = [&](int32_t Value) {
    uint32_t ESP = static_cast<uint32_t>(Regs[RegESP]) - 4;
    if (ESP < codegen::StackLimit)
      return trapSet(TrapKind::StackOverflow, "stack overflow");
    Regs[RegESP] = static_cast<int32_t>(ESP);
    return write32(ESP, Value);
  };
  auto fold = [&](uint32_t V) { Checksum = (Checksum ^ V) * 16777619u; };
  auto enter = [&](const PFunc &F) {
    // Prologue: push ebp; mov ebp, esp; sub esp, frame; push saved.
    if (!push(Regs[RegEBP]))
      return false;
    Regs[RegEBP] = Regs[RegESP];
    uint32_t NewESP = static_cast<uint32_t>(Regs[RegESP]) - F.FrameDrop;
    if (NewESP < codegen::StackLimit)
      return trapSet(TrapKind::StackOverflow, "stack overflow");
    Regs[RegESP] = static_cast<int32_t>(NewESP);
    Cycles += F.PrologueCost;
    return true;
  };

  // Order must match POp exactly; the static_asserts pin the count.
  static const void *const Targets[] = {
      &&L_BlockHead,  &&L_SegHead,   &&L_MovRR,     &&L_MovRI,
      &&L_Load,       &&L_Store,     &&L_LoadFrame, &&L_StoreFrame,
      &&L_LeaFrame,   &&L_AddRR,     &&L_SubRR,     &&L_AndRR,
      &&L_OrRR,       &&L_XorRR,     &&L_CmpRR,     &&L_AddRI,
      &&L_SubRI,      &&L_AndRI,     &&L_OrRI,      &&L_XorRI,
      &&L_CmpRI,      &&L_AdcSbbTrap, &&L_ImulRR,   &&L_Cdq,
      &&L_Idiv,       &&L_Neg,       &&L_Not,       &&L_ShlRI,
      &&L_ShrRI,      &&L_SarRI,     &&L_ShlRC,     &&L_ShrRC,
      &&L_SarRC,      &&L_TestRR,    &&L_Setcc,     &&L_Movzx8,
      &&L_Push,       &&L_PushI,     &&L_Pop,       &&L_AdjustSP,
      &&L_CallFunc,   &&L_PrintI32,  &&L_PrintChar, &&L_ReadI32,
      &&L_InputLen,   &&L_Sink,      &&L_Jmp,       &&L_Jcc,
      &&L_Ret,        &&L_ProfInc,   &&L_FellOff,
  };
  static_assert(sizeof(Targets) / sizeof(Targets[0]) == NumPOps,
                "dispatch table out of sync with POp");
  // While a segment runs up to a limit crossing, every opcode dispatches
  // through L_Check first.
#define PGSD_CHECK4 &&L_Check, &&L_Check, &&L_Check, &&L_Check
  static const void *const CheckTargets[] = {
      PGSD_CHECK4, PGSD_CHECK4, PGSD_CHECK4, PGSD_CHECK4, PGSD_CHECK4,
      PGSD_CHECK4, PGSD_CHECK4, PGSD_CHECK4, PGSD_CHECK4, PGSD_CHECK4,
      PGSD_CHECK4, PGSD_CHECK4, &&L_Check,   &&L_Check,   &&L_Check,
  };
#undef PGSD_CHECK4
  static_assert(sizeof(CheckTargets) / sizeof(CheckTargets[0]) == NumPOps,
                "check table out of sync with POp");
  const void *const *Tab = Targets;

#define PGSD_DISPATCH() goto *Tab[static_cast<size_t>(In->Op)]
#define PGSD_NEXT()                                                          \
  do {                                                                       \
    ++In;                                                                    \
    PGSD_DISPATCH();                                                         \
  } while (0)

  Regs[RegESP] = static_cast<int32_t>(codegen::StackTop);
  // _start pushes a fake return address before entering main.
  if (!push(0) || !enter(Funcs[EntryFunc]))
    goto done;
  In = Code0 + Funcs[EntryFunc].Entry;
  PGSD_DISPATCH();

L_BlockHead:
L_SegHead:
  // Jump targets, fallthrough edges and calls land on a BlockHead, and a
  // not-taken Jcc or a return on a SegHead, so a counted run counts every
  // block entry and every segment entry; then the segment is charged.
  if (CountsFlat)
    ++CountsFlat[In->Ext];
  Instrs += static_cast<uint32_t>(In->Imm);
  Cycles += In->Cost;
  if (Instrs > Limit)
    goto cross;
  PGSD_NEXT();

cross: {
  // The segment's count crosses the limit: the first instruction past
  // it, at segment index J, is a cancel poll or the budget trap. Each
  // poll that finds the flag clear moves the limit on by one stride.
  const uint64_t Base = Instrs - static_cast<uint32_t>(In->Imm);
  for (;;) {
    if (Limit == MaxSteps) {
      StopKind = TrapKind::StepBudget;
      break;
    }
    if (Cancel->load(std::memory_order_relaxed)) {
      StopKind = TrapKind::Cancelled;
      break;
    }
    PollLimit += CancelPollStride;
    Limit = std::min(MaxSteps, PollLimit);
    if (Instrs <= Limit)
      PGSD_NEXT();
  }
  // Like the reference engine, the trapping fetch is counted but
  // neither executed nor charged. Records before index J still run; the
  // first record at or past it is where the segment stops.
  const uint64_t J = Limit - Base;
  const uint32_t Row = Side[In - Code0].Row + static_cast<uint32_t>(J);
  StopInstrs = Limit + 1;
  StopCycles = Cycles - In->Cost + SegPrefix[Row];
  StopAt = In + 1;
  while (Side[StopAt - Code0].Row < Row)
    ++StopAt;
  Tab = CheckTargets;
  PGSD_NEXT();
}

L_Check:
  if (In == StopAt) {
    Instrs = StopInstrs;
    Cycles = StopCycles;
    trapSet(StopKind, StopKind == TrapKind::StepBudget
                          ? "instruction budget exceeded"
                          : "cancelled by monitor");
    goto done;
  }
  goto *Targets[static_cast<size_t>(In->Op)];

L_MovRR:
  Regs[In->A] = Regs[In->B];
  PGSD_NEXT();
L_MovRI:
  Regs[In->A] = In->Imm;
  PGSD_NEXT();
L_Load: {
  int32_t V;
  if (!read32(static_cast<uint32_t>(Regs[In->B] + In->Imm), V))
    goto undo;
  Regs[In->A] = V;
  PGSD_NEXT();
}
L_Store:
  if (!write32(static_cast<uint32_t>(Regs[In->A] + In->Imm), Regs[In->B]))
    goto undo;
  PGSD_NEXT();
L_LoadFrame: {
  int32_t V;
  if (!read32(static_cast<uint32_t>(Regs[RegEBP] + In->Imm), V))
    goto undo;
  Regs[In->A] = V;
  PGSD_NEXT();
}
L_StoreFrame:
  if (!write32(static_cast<uint32_t>(Regs[RegEBP] + In->Imm), Regs[In->B]))
    goto undo;
  PGSD_NEXT();
L_LeaFrame:
  Regs[In->A] = Regs[RegEBP] + In->Imm;
  PGSD_NEXT();
L_AddRR:
  Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) +
                                     static_cast<uint32_t>(Regs[In->B]));
  PGSD_NEXT();
L_SubRR:
  Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) -
                                     static_cast<uint32_t>(Regs[In->B]));
  PGSD_NEXT();
L_AndRR:
  Regs[In->A] &= Regs[In->B];
  PGSD_NEXT();
L_OrRR:
  Regs[In->A] |= Regs[In->B];
  PGSD_NEXT();
L_XorRR:
  Regs[In->A] ^= Regs[In->B];
  PGSD_NEXT();
L_CmpRR:
  Flags.IsTest = false;
  Flags.A = Regs[In->A];
  Flags.B = Regs[In->B];
  PGSD_NEXT();
L_AddRI:
  Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) +
                                     static_cast<uint32_t>(In->Imm));
  PGSD_NEXT();
L_SubRI:
  Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) -
                                     static_cast<uint32_t>(In->Imm));
  PGSD_NEXT();
L_AndRI:
  Regs[In->A] &= In->Imm;
  PGSD_NEXT();
L_OrRI:
  Regs[In->A] |= In->Imm;
  PGSD_NEXT();
L_XorRI:
  Regs[In->A] ^= In->Imm;
  PGSD_NEXT();
L_CmpRI:
  Flags.IsTest = false;
  Flags.A = Regs[In->A];
  Flags.B = In->Imm;
  PGSD_NEXT();
L_AdcSbbTrap:
  trapSet(TrapKind::BadInstruction, "ADC/SBB not produced by codegen");
  goto undo;
L_ImulRR:
  Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) *
                                     static_cast<uint32_t>(Regs[In->B]));
  PGSD_NEXT();
L_Cdq:
  Regs[RegEDX] = Regs[RegEAX] < 0 ? -1 : 0;
  PGSD_NEXT();
L_Idiv: {
  int64_t Dividend = (static_cast<int64_t>(Regs[RegEDX]) << 32) |
                     static_cast<uint32_t>(Regs[RegEAX]);
  int32_t Divisor = Regs[In->B];
  if (Divisor == 0) {
    trapSet(TrapKind::DivideByZero, "integer division by zero (#DE)");
    goto undo;
  }
  int64_t Quot = Dividend / Divisor;
  if (Quot > INT32_MAX || Quot < INT32_MIN) {
    trapSet(TrapKind::DivideByZero, "integer division overflow (#DE)");
    goto undo;
  }
  Regs[RegEAX] = static_cast<int32_t>(Quot);
  Regs[RegEDX] = static_cast<int32_t>(Dividend % Divisor);
  PGSD_NEXT();
}
L_Neg:
  Regs[In->A] = static_cast<int32_t>(0u - static_cast<uint32_t>(Regs[In->A]));
  PGSD_NEXT();
L_Not:
  Regs[In->A] = ~Regs[In->A];
  PGSD_NEXT();
L_ShlRI:
  Regs[In->A] =
      static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) << In->Ext);
  PGSD_NEXT();
L_ShrRI:
  Regs[In->A] =
      static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) >> In->Ext);
  PGSD_NEXT();
L_SarRI:
  Regs[In->A] = Regs[In->A] >> In->Ext;
  PGSD_NEXT();
L_ShlRC:
  Regs[In->A] = static_cast<int32_t>(
      static_cast<uint32_t>(Regs[In->A])
      << (static_cast<uint32_t>(Regs[RegECX]) & 31));
  PGSD_NEXT();
L_ShrRC:
  Regs[In->A] = static_cast<int32_t>(
      static_cast<uint32_t>(Regs[In->A]) >>
      (static_cast<uint32_t>(Regs[RegECX]) & 31));
  PGSD_NEXT();
L_SarRC:
  Regs[In->A] = Regs[In->A] >> (static_cast<uint32_t>(Regs[RegECX]) & 31);
  PGSD_NEXT();
L_TestRR:
  Flags.IsTest = true;
  Flags.A = Regs[In->A];
  Flags.B = Regs[In->B];
  PGSD_NEXT();
L_Setcc:
  Regs[In->A] = (Regs[In->A] & ~0xFF) |
                (Flags.eval(static_cast<x86::CondCode>(In->B)) ? 1 : 0);
  PGSD_NEXT();
L_Movzx8:
  Regs[In->A] = Regs[In->B] & 0xFF;
  PGSD_NEXT();
L_Push:
  if (!push(Regs[In->A]))
    goto undo;
  PGSD_NEXT();
L_PushI:
  if (!push(In->Imm))
    goto undo;
  PGSD_NEXT();
L_Pop: {
  int32_t V;
  if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
    goto undo;
  Regs[In->A] = V;
  Regs[RegESP] += 4;
  PGSD_NEXT();
}
L_AdjustSP:
  Regs[RegESP] += In->Imm;
  PGSD_NEXT();
L_CallFunc: {
  if (Frames.size() >= MaxDepth) {
    trapSet(TrapKind::CallDepth, "call depth exceeded");
    goto undo;
  }
  PFrame Fr;
  Fr.SavedRegs[0] = Regs[RegEBX];
  Fr.SavedRegs[1] = Regs[RegESI];
  Fr.SavedRegs[2] = Regs[RegEDI];
  Fr.SavedRegs[3] = Regs[RegEBP];
  if (!push(0 /* return address */))
    goto undo;
  Fr.SavedESP = static_cast<uint32_t>(Regs[RegESP]) + 4;
  Fr.ReturnPC = static_cast<uint32_t>(In - Code0) + 1;
  Frames.push_back(Fr);
  const PFunc &F = Funcs[In->Ext];
  if (!enter(F))
    goto undo;
  In = Code0 + F.Entry;
  PGSD_DISPATCH();
}
L_PrintI32: {
  int32_t V;
  if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
    goto undo;
  fold(static_cast<uint32_t>(V));
  if (CollectOutput && Result.Output.size() < OutputCapBytes) {
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "%d\n", V);
    Result.Output += Buf;
  }
  Regs[RegEAX] = 0;
  PGSD_NEXT();
}
L_PrintChar: {
  int32_t V;
  if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
    goto undo;
  fold(0x10000u + static_cast<uint8_t>(V));
  if (CollectOutput && Result.Output.size() < OutputCapBytes)
    Result.Output += static_cast<char>(V);
  Regs[RegEAX] = 0;
  PGSD_NEXT();
}
L_ReadI32:
  Regs[RegEAX] = InputPos < InputSize ? InputData[InputPos++] : 0;
  PGSD_NEXT();
L_InputLen:
  Regs[RegEAX] = static_cast<int32_t>(InputSize - InputPos);
  PGSD_NEXT();
L_Sink: {
  int32_t V;
  if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
    goto undo;
  fold(static_cast<uint32_t>(V));
  Regs[RegEAX] = 0;
  PGSD_NEXT();
}
L_Jmp:
  In = Code0 + In->Ext; // lands on the target's BlockHead
  PGSD_DISPATCH();
L_Jcc:
  if (Flags.eval(static_cast<x86::CondCode>(In->A))) {
    Cycles += In->Cost;
    In = Code0 + In->Ext;
  } else {
    Cycles += static_cast<uint32_t>(In->Imm);
    ++In;
  }
  PGSD_DISPATCH();
L_Ret: {
  if (Frames.empty()) {
    Result.ExitCode = Regs[RegEAX];
    goto done;
  }
  const PFrame &Fr = Frames.back();
  Regs[RegEBX] = Fr.SavedRegs[0];
  Regs[RegESI] = Fr.SavedRegs[1];
  Regs[RegEDI] = Fr.SavedRegs[2];
  Regs[RegEBP] = Fr.SavedRegs[3];
  Regs[RegESP] = static_cast<int32_t>(Fr.SavedESP);
  In = Code0 + Fr.ReturnPC;
  Frames.pop_back();
  PGSD_DISPATCH();
}
L_ProfInc:
  ++Counters[In->Ext];
  PGSD_NEXT();
L_FellOff:
  // Unreachable on verified modules (every function's last block ends
  // in Jmp/Ret); trap instead of running off the stream.
  trapSet(TrapKind::BadInstruction, "fell off function end");
  goto done;

#undef PGSD_DISPATCH
#undef PGSD_NEXT

undo:
  // The record at In trapped: take back what its head charged for the
  // rest of the segment.
  Instrs -= Side[In - Code0].UndoInstrs;
  Cycles -= Side[In - Code0].UndoCycles;
done:
  Result.Cycles10 = Cycles;
  Result.Instructions = Instrs;
  Result.Checksum = Checksum;
  Unflatten();
  return Result;
}

#pragma GCC diagnostic pop
