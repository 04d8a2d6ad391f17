//===-- lir/MIR.cpp - Low-level machine IR (IA-32) -------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "lir/MIR.h"

#include <cassert>
#include <cstdarg>
#include <cstdio>

using namespace pgsd;
using namespace pgsd::mir;
using x86::Reg;

const char *mir::mopName(MOp Op) {
  switch (Op) {
  case MOp::MovRR:
    return "mov";
  case MOp::MovRI:
    return "movi";
  case MOp::MovGlobal:
    return "movglobal";
  case MOp::Load:
    return "load";
  case MOp::Store:
    return "store";
  case MOp::LoadFrame:
    return "loadframe";
  case MOp::StoreFrame:
    return "storeframe";
  case MOp::LeaFrame:
    return "leaframe";
  case MOp::AluRR:
    return "alurr";
  case MOp::AluRI:
    return "aluri";
  case MOp::ImulRR:
    return "imul";
  case MOp::Cdq:
    return "cdq";
  case MOp::Idiv:
    return "idiv";
  case MOp::Neg:
    return "neg";
  case MOp::Not:
    return "not";
  case MOp::ShiftRI:
    return "shiftri";
  case MOp::ShiftRC:
    return "shiftrc";
  case MOp::TestRR:
    return "test";
  case MOp::Setcc:
    return "setcc";
  case MOp::Movzx8:
    return "movzx8";
  case MOp::Push:
    return "push";
  case MOp::PushI:
    return "pushi";
  case MOp::Pop:
    return "pop";
  case MOp::AdjustSP:
    return "adjustsp";
  case MOp::Call:
    return "call";
  case MOp::Jmp:
    return "jmp";
  case MOp::Jcc:
    return "jcc";
  case MOp::Ret:
    return "ret";
  case MOp::Nop:
    return "nop";
  case MOp::ProfInc:
    return "profinc";
  }
  return "<bad>";
}

bool mir::isMTerminator(MOp Op) {
  return Op == MOp::Jmp || Op == MOp::Jcc || Op == MOp::Ret;
}

namespace {

uint8_t bit(Reg R) { return static_cast<uint8_t>(1u << x86::regNum(R)); }

} // namespace

uint8_t mir::readRegs(const MInstr &I) {
  switch (I.Op) {
  case MOp::MovRR:
  case MOp::Movzx8:
  case MOp::Load:
  case MOp::StoreFrame:
  case MOp::Push:
    return bit(I.Src);
  case MOp::Store:   // address base and stored value
  case MOp::AluRR:
  case MOp::ImulRR:
  case MOp::TestRR:
    return bit(I.Dst) | bit(I.Src);
  case MOp::AluRI:
  case MOp::Neg:
  case MOp::Not:
  case MOp::ShiftRI:
    return bit(I.Dst);
  case MOp::ShiftRC: // shift count in CL
    return bit(I.Dst) | bit(Reg::ECX);
  case MOp::Cdq:
  case MOp::Ret: // return value
    return bit(Reg::EAX);
  case MOp::Idiv: // divisor and the EDX:EAX dividend
    return bit(I.Src) | bit(Reg::EAX) | bit(Reg::EDX);
  case MOp::Setcc:
  case MOp::MovRI:
  case MOp::MovGlobal:
  case MOp::LoadFrame:
  case MOp::LeaFrame:
  case MOp::PushI:
  case MOp::Pop:
  case MOp::AdjustSP:
  case MOp::Call:
  case MOp::Jmp:
  case MOp::Jcc:
  case MOp::Nop:
  case MOp::ProfInc:
    return 0;
  }
  return 0;
}

uint8_t mir::writtenRegs(const MInstr &I) {
  switch (I.Op) {
  case MOp::MovRR:
  case MOp::MovRI:
  case MOp::MovGlobal:
  case MOp::Load:
  case MOp::LoadFrame:
  case MOp::LeaFrame:
  case MOp::Setcc:
  case MOp::Movzx8:
  case MOp::Pop:
  case MOp::ImulRR:
  case MOp::Neg:
  case MOp::Not:
  case MOp::ShiftRI:
  case MOp::ShiftRC:
    return bit(I.Dst);
  case MOp::AluRR:
  case MOp::AluRI:
    return I.Alu == x86::AluOp::Cmp ? 0 : bit(I.Dst);
  case MOp::Cdq:
    return bit(Reg::EDX);
  case MOp::Idiv:
    return bit(Reg::EAX) | bit(Reg::EDX);
  case MOp::Call:
    return bit(Reg::EAX) | bit(Reg::ECX) | bit(Reg::EDX);
  case MOp::Store:
  case MOp::StoreFrame:
  case MOp::Push:
  case MOp::PushI:
  case MOp::AdjustSP:
  case MOp::TestRR:
  case MOp::Jmp:
  case MOp::Jcc:
  case MOp::Ret:
  case MOp::Nop:
  case MOp::ProfInc:
    return 0;
  }
  return 0;
}

std::vector<uint32_t> MFunction::successors(uint32_t B) const {
  std::vector<uint32_t> Succs;
  appendSuccessors(B, Succs);
  return Succs;
}

void MFunction::appendSuccessors(uint32_t B,
                                 std::vector<uint32_t> &Succs) const {
  assert(B < Blocks.size() && "block out of range");
  const MBasicBlock &BB = Blocks[B];
  bool SeenJmpOrRet = false;
  for (const MInstr &I : BB.Instrs) {
    if (I.Op == MOp::Jcc)
      Succs.push_back(static_cast<uint32_t>(I.Imm));
    else if (I.Op == MOp::Jmp) {
      Succs.push_back(static_cast<uint32_t>(I.Imm));
      SeenJmpOrRet = true;
    } else if (I.Op == MOp::Ret) {
      SeenJmpOrRet = true;
    }
  }
  if (!SeenJmpOrRet && B + 1 < Blocks.size())
    Succs.push_back(B + 1); // fallthrough
}

namespace {

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, static_cast<size_t>(N) < sizeof(Buf)
                        ? static_cast<size_t>(N)
                        : sizeof(Buf) - 1);
}

const char *aluName(x86::AluOp Op) {
  switch (Op) {
  case x86::AluOp::Add:
    return "add";
  case x86::AluOp::Or:
    return "or";
  case x86::AluOp::Adc:
    return "adc";
  case x86::AluOp::Sbb:
    return "sbb";
  case x86::AluOp::And:
    return "and";
  case x86::AluOp::Sub:
    return "sub";
  case x86::AluOp::Xor:
    return "xor";
  case x86::AluOp::Cmp:
    return "cmp";
  }
  return "<bad>";
}

const char *shiftName(x86::ShiftOp Op) {
  switch (Op) {
  case x86::ShiftOp::Shl:
    return "shl";
  case x86::ShiftOp::Shr:
    return "shr";
  case x86::ShiftOp::Sar:
    return "sar";
  }
  return "<bad>";
}

} // namespace

std::string mir::printInstr(const MInstr &I) {
  std::string Out;
  switch (I.Op) {
  case MOp::MovRR:
    appendf(Out, "mov %s, %s", regName(I.Dst), regName(I.Src));
    break;
  case MOp::MovRI:
    appendf(Out, "mov %s, %d", regName(I.Dst), I.Imm);
    break;
  case MOp::MovGlobal:
    appendf(Out, "mov %s, offset global#%d", regName(I.Dst), I.Imm);
    break;
  case MOp::Load:
    appendf(Out, "mov %s, [%s%+d]", regName(I.Dst), regName(I.Src),
            I.Imm);
    break;
  case MOp::Store:
    appendf(Out, "mov [%s%+d], %s", regName(I.Dst), I.Imm,
            regName(I.Src));
    break;
  case MOp::LoadFrame:
    appendf(Out, "mov %s, [ebp%+d]", regName(I.Dst), I.Imm);
    break;
  case MOp::StoreFrame:
    appendf(Out, "mov [ebp%+d], %s", I.Imm, regName(I.Src));
    break;
  case MOp::LeaFrame:
    appendf(Out, "lea %s, [ebp%+d]", regName(I.Dst), I.Imm);
    break;
  case MOp::AluRR:
    appendf(Out, "%s %s, %s", aluName(I.Alu), regName(I.Dst),
            regName(I.Src));
    break;
  case MOp::AluRI:
    appendf(Out, "%s %s, %d", aluName(I.Alu), regName(I.Dst), I.Imm);
    break;
  case MOp::ImulRR:
    appendf(Out, "imul %s, %s", regName(I.Dst), regName(I.Src));
    break;
  case MOp::Cdq:
    Out += "cdq";
    break;
  case MOp::Idiv:
    appendf(Out, "idiv %s", regName(I.Src));
    break;
  case MOp::Neg:
    appendf(Out, "neg %s", regName(I.Dst));
    break;
  case MOp::Not:
    appendf(Out, "not %s", regName(I.Dst));
    break;
  case MOp::ShiftRI:
    appendf(Out, "%s %s, %d", shiftName(I.Shift), regName(I.Dst),
            I.Imm);
    break;
  case MOp::ShiftRC:
    appendf(Out, "%s %s, cl", shiftName(I.Shift), regName(I.Dst));
    break;
  case MOp::TestRR:
    appendf(Out, "test %s, %s", regName(I.Dst), regName(I.Src));
    break;
  case MOp::Setcc:
    appendf(Out, "set%s %s(8)", condName(I.CC), regName(I.Dst));
    break;
  case MOp::Movzx8:
    appendf(Out, "movzx %s, %s(8)", regName(I.Dst), regName(I.Src));
    break;
  case MOp::Push:
    appendf(Out, "push %s", regName(I.Src));
    break;
  case MOp::PushI:
    appendf(Out, "push %d", I.Imm);
    break;
  case MOp::Pop:
    appendf(Out, "pop %s", regName(I.Dst));
    break;
  case MOp::AdjustSP:
    appendf(Out, "add esp, %d", I.Imm);
    break;
  case MOp::Call:
    if (I.Target.IsIntrinsic)
      appendf(Out, "call %s", ir::intrinsicName(I.Target.Intr));
    else
      appendf(Out, "call func#%u", I.Target.Func);
    break;
  case MOp::Jmp:
    appendf(Out, "jmp mbb%d", I.Imm);
    break;
  case MOp::Jcc:
    appendf(Out, "j%s mbb%d", condName(I.CC), I.Imm);
    break;
  case MOp::Ret:
    Out += "ret";
    break;
  case MOp::Nop:
    appendf(Out, "nop ; %s", x86::nopInfo(I.NopK).Mnemonic);
    break;
  case MOp::ProfInc:
    appendf(Out, "add dword [counter#%d], 1", I.Imm);
    break;
  }
  return Out;
}

std::string mir::print(const MModule &M) {
  std::string Out;
  appendf(Out, "mmodule: entry=%d counters=%u\n", M.EntryFunction,
          M.NumProfCounters);
  for (size_t G = 0; G != M.Globals.size(); ++G) {
    const ir::Global &Gl = M.Globals[G];
    appendf(Out, "global#%zu %s: size=%u init={", G, Gl.Name.c_str(),
            Gl.SizeBytes);
    for (size_t W = 0; W != Gl.Init.size(); ++W)
      appendf(Out, W ? ",%d" : "%d", Gl.Init[W]);
    Out += "}\n";
  }
  for (const MFunction &F : M.Functions) {
    appendf(Out, "mfunc %s: params=%u frame=%u slots=%d%s%s%s\n",
            F.Name.c_str(), F.NumParams, F.FrameBytes, F.ValueSlotsLowDisp,
            F.UsesEbx ? " ebx" : "", F.UsesEsi ? " esi" : "",
            F.UsesEdi ? " edi" : "");
    for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
      const MBasicBlock &BB = F.Blocks[B];
      appendf(Out, "mbb%u:  ; %s count=%llu\n", B, BB.Name.c_str(),
              static_cast<unsigned long long>(BB.ProfileCount));
      for (const MInstr &I : BB.Instrs) {
        Out += "  ";
        Out += printInstr(I);
        Out += '\n';
      }
    }
  }
  return Out;
}

bool mir::sameShape(const MModule &Baseline, const MModule &Variant) {
  if (Baseline.EntryFunction != Variant.EntryFunction ||
      Baseline.NumProfCounters != Variant.NumProfCounters ||
      Baseline.Globals.size() != Variant.Globals.size() ||
      Baseline.Functions.size() != Variant.Functions.size())
    return false;
  for (size_t G = 0; G != Baseline.Globals.size(); ++G)
    if (Baseline.Globals[G].SizeBytes != Variant.Globals[G].SizeBytes ||
        Baseline.Globals[G].Init != Variant.Globals[G].Init)
      return false;
  for (size_t I = 0; I != Baseline.Functions.size(); ++I) {
    const MFunction &FB = Baseline.Functions[I];
    const MFunction &FV = Variant.Functions[I];
    if (FB.NumParams != FV.NumParams || FB.FrameBytes != FV.FrameBytes ||
        FB.ValueSlotsLowDisp != FV.ValueSlotsLowDisp ||
        FB.UsesEbx != FV.UsesEbx || FB.UsesEsi != FV.UsesEsi ||
        FB.UsesEdi != FV.UsesEdi || FB.Blocks.size() != FV.Blocks.size())
      return false;
  }
  return true;
}

bool mir::equalModuloNops(const MModule &Baseline, const MModule &Variant) {
  return equalModuloNops(Baseline, Variant,
                         [](uint32_t, const MInstr &, bool) {});
}

namespace {

/// Folds one 64-bit word into a running digest (a multiply-xorshift
/// step: cheap, and every input bit reaches the high half).
void mix(uint64_t &H, uint64_t V) {
  H = (H ^ V) * 0x9e3779b97f4a7c15ull;
  H ^= H >> 29;
}

} // namespace

uint64_t mir::hashModuloNops(const MModule &M) {
  uint64_t H = 0x6a09e667f3bcc909ull;
  mix(H, static_cast<uint32_t>(M.EntryFunction));
  mix(H, M.NumProfCounters);
  mix(H, M.Globals.size());
  for (const ir::Global &G : M.Globals) {
    mix(H, G.SizeBytes);
    mix(H, G.Init.size());
    for (int32_t W : G.Init)
      mix(H, static_cast<uint32_t>(W));
  }
  mix(H, M.Functions.size());
  for (const MFunction &F : M.Functions) {
    mix(H, F.NumParams | static_cast<uint64_t>(F.FrameBytes) << 32);
    mix(H, static_cast<uint32_t>(F.ValueSlotsLowDisp) |
               static_cast<uint64_t>(F.UsesEbx) << 32 |
               static_cast<uint64_t>(F.UsesEsi) << 33 |
               static_cast<uint64_t>(F.UsesEdi) << 34);
    mix(H, F.Blocks.size());
    for (const MBasicBlock &BB : F.Blocks) {
      uint64_t Kept = 0;
      for (const MInstr &I : BB.Instrs) {
        if (I.Op == MOp::Nop)
          continue;
        ++Kept;
        mix(H, static_cast<uint64_t>(I.Op) |
                   static_cast<uint64_t>(I.Dst) << 8 |
                   static_cast<uint64_t>(I.Src) << 16 |
                   static_cast<uint64_t>(I.Alu) << 24 |
                   static_cast<uint64_t>(I.Shift) << 32 |
                   static_cast<uint64_t>(I.CC) << 40 |
                   static_cast<uint64_t>(I.NopK) << 48 |
                   static_cast<uint64_t>(I.Target.IsIntrinsic) << 56 |
                   static_cast<uint64_t>(I.Target.Intr) << 57);
        mix(H, static_cast<uint32_t>(I.Imm) |
                   static_cast<uint64_t>(I.Target.Func) << 32);
      }
      mix(H, Kept); // block boundary
    }
  }
  return H;
}

std::string mir::verify(const MModule &M) {
  std::string Problem;
  for (const MFunction &F : M.Functions) {
    if (F.Blocks.empty())
      return F.Name + ": machine function has no blocks";
    for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
      const MBasicBlock &BB = F.Blocks[B];
      bool InBranchGroup = false;
      bool Ended = false;
      for (const MInstr &I : BB.Instrs) {
        if (Ended) {
          appendf(Problem, "%s: mbb%u: instruction after jmp/ret",
                  F.Name.c_str(), B);
          return Problem;
        }
        if (I.Op == MOp::Jcc) {
          InBranchGroup = true;
        } else if (I.Op == MOp::Jmp || I.Op == MOp::Ret) {
          Ended = true;
        } else if (InBranchGroup && I.Op != MOp::Nop) {
          // NOPs may be interleaved with branches by the diversity pass.
          appendf(Problem, "%s: mbb%u: non-branch after jcc",
                  F.Name.c_str(), B);
          return Problem;
        }
        if ((I.Op == MOp::Jmp || I.Op == MOp::Jcc) &&
            (I.Imm < 0 || static_cast<size_t>(I.Imm) >= F.Blocks.size())) {
          appendf(Problem, "%s: mbb%u: branch target out of range",
                  F.Name.c_str(), B);
          return Problem;
        }
        if ((I.Op == MOp::Setcc && x86::regNum(I.Dst) >= 4) ||
            (I.Op == MOp::Movzx8 && x86::regNum(I.Src) >= 4)) {
          appendf(Problem, "%s: mbb%u: 8-bit subregister constraint",
                  F.Name.c_str(), B);
          return Problem;
        }
        if (I.Op == MOp::Call && !I.Target.IsIntrinsic &&
            I.Target.Func >= M.Functions.size()) {
          appendf(Problem, "%s: mbb%u: call target out of range",
                  F.Name.c_str(), B);
          return Problem;
        }
        if (I.Op == MOp::ProfInc &&
            (I.Imm < 0 ||
             static_cast<uint32_t>(I.Imm) >= M.NumProfCounters)) {
          appendf(Problem, "%s: mbb%u: counter index out of range",
                  F.Name.c_str(), B);
          return Problem;
        }
      }
      // The final block may not fall off the end of the function.
      if (!Ended && B + 1 == F.Blocks.size()) {
        appendf(Problem, "%s: last block falls through function end",
                F.Name.c_str());
        return Problem;
      }
    }
  }
  return Problem;
}
