//===-- mexec/Interp.cpp - Machine-IR execution engine ---------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "mexec/Interp.h"

#include "codegen/Layout.h"
#include "mexec/Flags.h"

#include <cassert>
#include <cstdio>

using namespace pgsd;
using namespace pgsd::mexec;
using namespace pgsd::mir;
using x86::Reg;

namespace {

/// One shadow call-stack frame (models the prologue/epilogue contract).
struct Frame {
  uint32_t Func;
  uint32_t Block;
  uint32_t InstrIndex; ///< Resume position (index after the Call).
  int32_t SavedRegs[4]; ///< EBX, ESI, EDI, EBP.
  uint32_t SavedESP;    ///< ESP right after the call pushed its slot.
};

class Machine {
public:
  Machine(const MModule &Mod, const RunOptions &RunOpts)
      : M(Mod), Opts(RunOpts), Memory(codegen::MemorySize, 0) {
    GlobalAddrs.reserve(M.Globals.size());
    uint32_t Addr = codegen::GlobalsBase;
    for (const ir::Global &G : M.Globals) {
      GlobalAddrs.push_back(Addr);
      Addr += (G.SizeBytes + 3u) & ~3u;
    }
  }

  RunResult run();

private:
  bool trap(TrapKind Kind, const char *Reason) {
    Result.Trapped = true;
    Result.Trap = Kind;
    Result.TrapReason = Reason;
    return false;
  }

  int32_t &reg(Reg R) { return Regs[x86::regNum(R)]; }

  bool read32(uint32_t Addr, int32_t &Out) {
    // 64-bit arithmetic: Addr + 4 would wrap for Addr >= 0xFFFFFFFC and
    // slip past the bounds check.
    if (static_cast<uint64_t>(Addr) + 4 > Memory.size() || Addr < 0x1000)
      return trap(TrapKind::BadMemory, "memory read out of bounds");
    Out = static_cast<int32_t>(
        static_cast<uint32_t>(Memory[Addr]) |
        (static_cast<uint32_t>(Memory[Addr + 1]) << 8) |
        (static_cast<uint32_t>(Memory[Addr + 2]) << 16) |
        (static_cast<uint32_t>(Memory[Addr + 3]) << 24));
    return true;
  }

  bool write32(uint32_t Addr, int32_t Value) {
    if (static_cast<uint64_t>(Addr) + 4 > Memory.size() || Addr < 0x1000)
      return trap(TrapKind::BadMemory, "memory write out of bounds");
    uint32_t V = static_cast<uint32_t>(Value);
    Memory[Addr] = static_cast<uint8_t>(V);
    Memory[Addr + 1] = static_cast<uint8_t>(V >> 8);
    Memory[Addr + 2] = static_cast<uint8_t>(V >> 16);
    Memory[Addr + 3] = static_cast<uint8_t>(V >> 24);
    return true;
  }

  bool push(int32_t Value) {
    uint32_t ESP = static_cast<uint32_t>(reg(Reg::ESP)) - 4;
    if (ESP < codegen::StackLimit)
      return trap(TrapKind::StackOverflow, "stack overflow");
    reg(Reg::ESP) = static_cast<int32_t>(ESP);
    return write32(ESP, Value);
  }

  void foldChecksum(uint32_t V) {
    Result.Checksum = (Result.Checksum ^ V) * 16777619u;
  }

  bool enterFunction(uint32_t Func);
  bool callIntrinsic(ir::Intrinsic Intr);
  bool step(const MInstr &I, const MFunction &F);

  const MModule &M;
  const RunOptions &Opts;
  RunResult Result;

  std::vector<uint8_t> Memory;
  std::vector<uint32_t> GlobalAddrs;
  int32_t Regs[x86::NumRegs] = {0};
  FlagState Flags;
  std::vector<Frame> CallStack;

  // Program position.
  uint32_t CurFunc = 0;
  uint32_t CurBlock = 0;
  uint32_t CurInstr = 0;
  bool Finished = false;

  size_t InputPos = 0;
};

bool Machine::enterFunction(uint32_t Func) {
  const MFunction &F = M.Functions[Func];
  // Prologue: push ebp; mov ebp, esp; sub esp, frame; push callee-saved.
  if (!push(reg(Reg::EBP)))
    return false;
  reg(Reg::EBP) = reg(Reg::ESP);
  uint32_t Saved = (F.UsesEbx ? 1 : 0) + (F.UsesEsi ? 1 : 0) +
                   (F.UsesEdi ? 1 : 0);
  uint32_t NewESP = static_cast<uint32_t>(reg(Reg::ESP)) - F.FrameBytes -
                    4 * Saved;
  if (NewESP < codegen::StackLimit)
    return trap(TrapKind::StackOverflow, "stack overflow");
  reg(Reg::ESP) = static_cast<int32_t>(NewESP);
  Result.Cycles10 += Opts.Costs.Push + Opts.Costs.MovRR + Opts.Costs.Alu +
                     Saved * Opts.Costs.Push;

  CurFunc = Func;
  CurBlock = 0;
  CurInstr = 0;
  if (Opts.CollectBlockCounts)
    ++Result.BlockCounts[CurFunc][0];
  return true;
}

bool Machine::callIntrinsic(ir::Intrinsic Intr) {
  Result.Cycles10 += Opts.Costs.Intrinsic;
  // Arguments sit at [esp], [esp+4], ... exactly as pushed.
  auto Arg = [&](unsigned Index, int32_t &Out) {
    return read32(static_cast<uint32_t>(reg(Reg::ESP)) + 4 * Index, Out);
  };
  switch (Intr) {
  case ir::Intrinsic::PrintI32: {
    int32_t V;
    if (!Arg(0, V))
      return false;
    foldChecksum(static_cast<uint32_t>(V));
    if (Opts.CollectOutput && Result.Output.size() < OutputCapBytes) {
      char Buf[16];
      std::snprintf(Buf, sizeof(Buf), "%d\n", V);
      Result.Output += Buf;
    }
    reg(Reg::EAX) = 0;
    return true;
  }
  case ir::Intrinsic::PrintChar: {
    int32_t V;
    if (!Arg(0, V))
      return false;
    foldChecksum(0x10000u + static_cast<uint8_t>(V));
    if (Opts.CollectOutput && Result.Output.size() < OutputCapBytes)
      Result.Output += static_cast<char>(V);
    reg(Reg::EAX) = 0;
    return true;
  }
  case ir::Intrinsic::ReadI32:
    reg(Reg::EAX) =
        InputPos < Opts.Input.size() ? Opts.Input[InputPos++] : 0;
    return true;
  case ir::Intrinsic::InputLen:
    reg(Reg::EAX) = static_cast<int32_t>(Opts.Input.size() - InputPos);
    return true;
  case ir::Intrinsic::Sink: {
    int32_t V;
    if (!Arg(0, V))
      return false;
    foldChecksum(static_cast<uint32_t>(V));
    reg(Reg::EAX) = 0;
    return true;
  }
  }
  return trap(TrapKind::BadInstruction, "unknown intrinsic");
}

bool Machine::step(const MInstr &I, const MFunction &F) {
  const CostModel &C = Opts.Costs;
  switch (I.Op) {
  case MOp::MovRR:
    reg(I.Dst) = reg(I.Src);
    Result.Cycles10 += C.MovRR;
    return true;
  case MOp::MovRI:
    reg(I.Dst) = I.Imm;
    Result.Cycles10 += C.MovRI;
    return true;
  case MOp::MovGlobal:
    reg(I.Dst) = static_cast<int32_t>(GlobalAddrs[static_cast<size_t>(I.Imm)]);
    Result.Cycles10 += C.MovRI;
    return true;
  case MOp::Load: {
    int32_t V;
    if (!read32(static_cast<uint32_t>(reg(I.Src) + I.Imm), V))
      return false;
    reg(I.Dst) = V;
    Result.Cycles10 += C.Load;
    return true;
  }
  case MOp::Store:
    Result.Cycles10 += C.Store;
    return write32(static_cast<uint32_t>(reg(I.Dst) + I.Imm), reg(I.Src));
  case MOp::LoadFrame: {
    int32_t V;
    if (!read32(static_cast<uint32_t>(reg(Reg::EBP) + I.Imm), V))
      return false;
    reg(I.Dst) = V;
    Result.Cycles10 += C.FrameLoad;
    return true;
  }
  case MOp::StoreFrame:
    Result.Cycles10 += C.FrameStore;
    return write32(static_cast<uint32_t>(reg(Reg::EBP) + I.Imm),
                   reg(I.Src));
  case MOp::LeaFrame:
    reg(I.Dst) = reg(Reg::EBP) + I.Imm;
    Result.Cycles10 += C.Lea;
    return true;
  case MOp::AluRR:
  case MOp::AluRI: {
    int32_t A = reg(I.Dst);
    int32_t B = I.Op == MOp::AluRR ? reg(I.Src) : I.Imm;
    uint32_t UA = static_cast<uint32_t>(A);
    uint32_t UB = static_cast<uint32_t>(B);
    Result.Cycles10 += C.Alu;
    switch (I.Alu) {
    case x86::AluOp::Add:
      reg(I.Dst) = static_cast<int32_t>(UA + UB);
      return true;
    case x86::AluOp::Sub:
      reg(I.Dst) = static_cast<int32_t>(UA - UB);
      return true;
    case x86::AluOp::And:
      reg(I.Dst) = A & B;
      return true;
    case x86::AluOp::Or:
      reg(I.Dst) = A | B;
      return true;
    case x86::AluOp::Xor:
      reg(I.Dst) = A ^ B;
      return true;
    case x86::AluOp::Cmp:
      Flags.IsTest = false;
      Flags.A = A;
      Flags.B = B;
      return true;
    case x86::AluOp::Adc:
    case x86::AluOp::Sbb:
      return trap(TrapKind::BadInstruction, "ADC/SBB not produced by codegen");
    }
    return trap(TrapKind::BadInstruction, "bad ALU op");
  }
  case MOp::ImulRR:
    reg(I.Dst) = static_cast<int32_t>(
        static_cast<uint32_t>(reg(I.Dst)) *
        static_cast<uint32_t>(reg(I.Src)));
    Result.Cycles10 += C.Imul;
    return true;
  case MOp::Cdq:
    reg(Reg::EDX) = reg(Reg::EAX) < 0 ? -1 : 0;
    Result.Cycles10 += C.Alu;
    return true;
  case MOp::Idiv: {
    int64_t Dividend = (static_cast<int64_t>(reg(Reg::EDX)) << 32) |
                       static_cast<uint32_t>(reg(Reg::EAX));
    int32_t Divisor = reg(I.Src);
    Result.Cycles10 += C.Idiv;
    if (Divisor == 0)
      return trap(TrapKind::DivideByZero, "integer division by zero (#DE)");
    int64_t Quot = Dividend / Divisor;
    if (Quot > INT32_MAX || Quot < INT32_MIN)
      return trap(TrapKind::DivideByZero, "integer division overflow (#DE)");
    reg(Reg::EAX) = static_cast<int32_t>(Quot);
    reg(Reg::EDX) = static_cast<int32_t>(Dividend % Divisor);
    return true;
  }
  case MOp::Neg:
    reg(I.Dst) = static_cast<int32_t>(0u - static_cast<uint32_t>(reg(I.Dst)));
    Result.Cycles10 += C.Alu;
    return true;
  case MOp::Not:
    reg(I.Dst) = ~reg(I.Dst);
    Result.Cycles10 += C.Alu;
    return true;
  case MOp::ShiftRI:
  case MOp::ShiftRC: {
    uint32_t Count = I.Op == MOp::ShiftRI
                         ? static_cast<uint32_t>(I.Imm) & 31
                         : static_cast<uint32_t>(reg(Reg::ECX)) & 31;
    int32_t V = reg(I.Dst);
    Result.Cycles10 += C.Alu;
    switch (I.Shift) {
    case x86::ShiftOp::Shl:
      reg(I.Dst) = static_cast<int32_t>(static_cast<uint32_t>(V) << Count);
      return true;
    case x86::ShiftOp::Shr:
      reg(I.Dst) = static_cast<int32_t>(static_cast<uint32_t>(V) >> Count);
      return true;
    case x86::ShiftOp::Sar:
      reg(I.Dst) = V >> Count;
      return true;
    }
    return trap(TrapKind::BadInstruction, "bad shift op");
  }
  case MOp::TestRR:
    Flags.IsTest = true;
    Flags.A = reg(I.Dst);
    Flags.B = reg(I.Src);
    Result.Cycles10 += C.Alu;
    return true;
  case MOp::Setcc:
    reg(I.Dst) = (reg(I.Dst) & ~0xFF) | (Flags.eval(I.CC) ? 1 : 0);
    Result.Cycles10 += C.Alu;
    return true;
  case MOp::Movzx8:
    reg(I.Dst) = reg(I.Src) & 0xFF;
    Result.Cycles10 += C.Alu;
    return true;
  case MOp::Push:
    Result.Cycles10 += C.Push;
    return push(reg(I.Src));
  case MOp::PushI:
    Result.Cycles10 += C.Push;
    return push(I.Imm);
  case MOp::Pop: {
    int32_t V;
    if (!read32(static_cast<uint32_t>(reg(Reg::ESP)), V))
      return false;
    reg(I.Dst) = V;
    reg(Reg::ESP) += 4;
    Result.Cycles10 += C.Pop;
    return true;
  }
  case MOp::AdjustSP:
    reg(Reg::ESP) += I.Imm;
    Result.Cycles10 += C.Alu;
    return true;
  case MOp::Call: {
    Result.Cycles10 += C.Call;
    if (I.Target.IsIntrinsic)
      return callIntrinsic(I.Target.Intr);
    if (CallStack.size() >= Opts.MaxCallDepth)
      return trap(TrapKind::CallDepth, "call depth exceeded");
    Frame Fr;
    Fr.Func = CurFunc;
    Fr.Block = CurBlock;
    Fr.InstrIndex = CurInstr; // already advanced past the Call
    Fr.SavedRegs[0] = reg(Reg::EBX);
    Fr.SavedRegs[1] = reg(Reg::ESI);
    Fr.SavedRegs[2] = reg(Reg::EDI);
    Fr.SavedRegs[3] = reg(Reg::EBP);
    if (!push(0 /* return address */))
      return false;
    Fr.SavedESP = static_cast<uint32_t>(reg(Reg::ESP)) + 4;
    CallStack.push_back(Fr);
    return enterFunction(I.Target.Func);
  }
  case MOp::Jmp:
    if (static_cast<uint32_t>(I.Imm) != CurBlock + 1)
      Result.Cycles10 += C.JmpTaken;
    CurBlock = static_cast<uint32_t>(I.Imm);
    CurInstr = 0;
    if (Opts.CollectBlockCounts)
      ++Result.BlockCounts[CurFunc][CurBlock];
    return true;
  case MOp::Jcc:
    if (Flags.eval(I.CC)) {
      Result.Cycles10 += C.JccTaken;
      CurBlock = static_cast<uint32_t>(I.Imm);
      CurInstr = 0;
      if (Opts.CollectBlockCounts)
        ++Result.BlockCounts[CurFunc][CurBlock];
    } else {
      Result.Cycles10 += C.JccNotTaken;
    }
    return true;
  case MOp::Ret: {
    // Epilogue: pops + leave + ret.
    uint32_t Saved = (F.UsesEbx ? 1 : 0) + (F.UsesEsi ? 1 : 0) +
                     (F.UsesEdi ? 1 : 0);
    Result.Cycles10 += Saved * C.Pop + C.Pop /*leave*/ + C.Ret;
    if (CallStack.empty()) {
      Finished = true;
      Result.ExitCode = reg(Reg::EAX);
      return true;
    }
    const Frame &Fr = CallStack.back();
    reg(Reg::EBX) = Fr.SavedRegs[0];
    reg(Reg::ESI) = Fr.SavedRegs[1];
    reg(Reg::EDI) = Fr.SavedRegs[2];
    reg(Reg::EBP) = Fr.SavedRegs[3];
    reg(Reg::ESP) = static_cast<int32_t>(Fr.SavedESP);
    CurFunc = Fr.Func;
    CurBlock = Fr.Block;
    CurInstr = Fr.InstrIndex;
    CallStack.pop_back();
    return true;
  }
  case MOp::Nop:
    Result.Cycles10 +=
        x86::nopInfo(I.NopK).LocksBus ? C.XchgNop : C.Nop;
    return true;
  case MOp::ProfInc:
    ++Result.Counters[static_cast<size_t>(I.Imm)];
    Result.Cycles10 += C.ProfInc;
    return true;
  }
  return trap(TrapKind::BadInstruction, "unknown machine opcode");
}

RunResult Machine::run() {
  assert(M.EntryFunction >= 0 && "module has no entry function");
  assert(mir::verify(M).empty() && "machine module must verify");

  Result.Counters.assign(M.NumProfCounters, 0);
  if (Opts.CollectOutput)
    Result.Output.reserve(OutputReserveBytes);
  if (Opts.CollectBlockCounts) {
    Result.BlockCounts.resize(M.Functions.size());
    for (size_t F = 0; F != M.Functions.size(); ++F)
      Result.BlockCounts[F].assign(M.Functions[F].Blocks.size(), 0);
  }

  // Initialize the data segment.
  uint32_t Addr = codegen::GlobalsBase;
  for (const ir::Global &G : M.Globals) {
    for (size_t W = 0; W != G.Init.size(); ++W)
      if (!write32(Addr + static_cast<uint32_t>(4 * W), G.Init[W]))
        return std::move(Result);
    Addr += (G.SizeBytes + 3u) & ~3u;
  }

  reg(Reg::ESP) = static_cast<int32_t>(codegen::StackTop);
  reg(Reg::EBP) = 0;
  // _start pushes a fake return address before entering main.
  if (!push(0))
    return std::move(Result);
  if (!enterFunction(static_cast<uint32_t>(M.EntryFunction)))
    return std::move(Result);

  while (!Finished) {
    const MFunction &F = M.Functions[CurFunc];
    const MBasicBlock &BB = F.Blocks[CurBlock];
    if (CurInstr >= BB.Instrs.size()) {
      // Fallthrough into the lexically next block (free).
      ++CurBlock;
      CurInstr = 0;
      assert(CurBlock < F.Blocks.size() && "fell off function end");
      if (Opts.CollectBlockCounts)
        ++Result.BlockCounts[CurFunc][CurBlock];
      continue;
    }
    const MInstr &I = BB.Instrs[CurInstr++];
    ++Result.Instructions;
    if (Result.Instructions > Opts.MaxSteps) {
      trap(TrapKind::StepBudget, "instruction budget exceeded");
      break;
    }
    // Cooperative cancellation: polled at the same counted-instruction
    // positions as the fast engine (every CancelPollStride-th fetch),
    // so a pre-set flag traps bit-identically on both. Like the budget
    // trap, the fetch is counted but neither executed nor charged.
    if ((Result.Instructions & (CancelPollStride - 1)) == 0 &&
        Opts.Cancel && Opts.Cancel->load(std::memory_order_relaxed)) {
      trap(TrapKind::Cancelled, "cancelled by monitor");
      break;
    }
    if (!step(I, F))
      break;
  }
  return std::move(Result);
}

} // namespace

const char *mexec::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::StepBudget:
    return "step-budget";
  case TrapKind::CallDepth:
    return "call-depth";
  case TrapKind::DivideByZero:
    return "divide-by-zero";
  case TrapKind::BadMemory:
    return "bad-memory";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::BadInstruction:
    return "bad-instruction";
  case TrapKind::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

RunResult mexec::run(const MModule &M, const RunOptions &Opts) {
  Machine Mach(M, Opts);
  return Mach.run();
}
