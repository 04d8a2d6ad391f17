//===-- codegen/Emitter.cpp - Machine-IR to object code --------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "codegen/Emitter.h"

#include "x86/Decoder.h"
#include "x86/Encoder.h"
#include "x86/Nops.h"

#include <array>
#include <cassert>
#include <cstring>

using namespace pgsd;
using namespace pgsd::codegen;
using namespace pgsd::mir;
using x86::Encoder;
using x86::Mem;
using x86::Reg;

FunctionCode codegen::emitFunction(const MFunction &F) {
  FunctionCode Code;
  emitFunction(F, Code);
  return Code;
}

void codegen::emitFunction(const MFunction &F, FunctionCode &Out) {
  FunctionCode &Code = Out;
  Code.Bytes.clear();
  Code.Relocs.clear();
  Code.Fixups.clear();
  Code.InstrOffsets.clear();
  Encoder E(Code.Bytes);
  // Each MIR instruction encodes to one IA-32 instruction of at most
  // MaxInstrLen bytes (a Ret's epilogue fits in its own), after a
  // prologue of at most 12: the buffer grows once per function.
  size_t NumInstrs = 0;
  for (const MBasicBlock &BB : F.Blocks)
    NumInstrs += BB.Instrs.size();
  E.reserve(12 + NumInstrs * x86::MaxInstrLen);
  Code.InstrOffsets.reserve(NumInstrs + 1);

  // Prologue: standard frame plus callee-saved spills. The pushes come
  // after the frame allocation so [ebp-..] addressing is unaffected.
  E.pushR(Reg::EBP);
  E.movRR(Reg::EBP, Reg::ESP);
  if (F.FrameBytes != 0)
    E.aluRI(x86::AluOp::Sub, Reg::ESP, static_cast<int32_t>(F.FrameBytes));
  if (F.UsesEbx)
    E.pushR(Reg::EBX);
  if (F.UsesEsi)
    E.pushR(Reg::ESI);
  if (F.UsesEdi)
    E.pushR(Reg::EDI);

  // Two-pass branch resolution: record block start offsets and branch
  // fixups, patch at the end.
  std::vector<size_t> BlockOffset(F.Blocks.size(), 0);
  // The index of the instruction being encoded, for relocations and
  // fixups: InstrOffsets holds one entry per instruction begun.
  auto Instr = [&Code] {
    return static_cast<uint32_t>(Code.InstrOffsets.size() - 1);
  };
  auto Fixup = [&](size_t Field, int32_t Target) {
    Code.Fixups.push_back({static_cast<uint32_t>(Field),
                           static_cast<uint32_t>(Target), Instr()});
  };

  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    BlockOffset[B] = E.offset();
    for (const MInstr &I : F.Blocks[B].Instrs) {
      Code.InstrOffsets.push_back(static_cast<uint32_t>(E.offset()));
      switch (I.Op) {
      case MOp::MovRR:
        E.movRR(I.Dst, I.Src);
        break;
      case MOp::MovRI:
        E.movRI(I.Dst, I.Imm);
        break;
      case MOp::MovGlobal: {
        E.movRI(I.Dst, 0);
        Code.Relocs.push_back({RelocKind::GlobalAbs,
                               static_cast<uint32_t>(E.offset() - 4),
                               static_cast<uint32_t>(I.Imm), Instr()});
        break;
      }
      case MOp::Load:
        E.movLoad(I.Dst, Mem::base(I.Src, I.Imm));
        break;
      case MOp::Store:
        E.movStore(Mem::base(I.Dst, I.Imm), I.Src);
        break;
      case MOp::LoadFrame:
        E.movLoad(I.Dst, Mem::base(Reg::EBP, I.Imm));
        break;
      case MOp::StoreFrame:
        E.movStore(Mem::base(Reg::EBP, I.Imm), I.Src);
        break;
      case MOp::LeaFrame:
        E.leaRM(I.Dst, Mem::base(Reg::EBP, I.Imm));
        break;
      case MOp::AluRR:
        E.aluRR(I.Alu, I.Dst, I.Src);
        break;
      case MOp::AluRI:
        E.aluRI(I.Alu, I.Dst, I.Imm);
        break;
      case MOp::ImulRR:
        E.imulRR(I.Dst, I.Src);
        break;
      case MOp::Cdq:
        E.cdq();
        break;
      case MOp::Idiv:
        E.idivR(I.Src);
        break;
      case MOp::Neg:
        E.negR(I.Dst);
        break;
      case MOp::Not:
        E.notR(I.Dst);
        break;
      case MOp::ShiftRI:
        E.shiftRI(I.Shift, I.Dst, static_cast<uint8_t>(I.Imm & 31));
        break;
      case MOp::ShiftRC:
        E.shiftRCL(I.Shift, I.Dst);
        break;
      case MOp::TestRR:
        E.testRR(I.Dst, I.Src);
        break;
      case MOp::Setcc:
        E.setccR8(I.CC, I.Dst);
        break;
      case MOp::Movzx8:
        E.movzxR8(I.Dst, I.Src);
        break;
      case MOp::Push:
        E.pushR(I.Src);
        break;
      case MOp::PushI:
        E.pushI(I.Imm);
        break;
      case MOp::Pop:
        E.popR(I.Dst);
        break;
      case MOp::AdjustSP:
        E.aluRI(x86::AluOp::Add, Reg::ESP, I.Imm);
        break;
      case MOp::Call: {
        size_t Field = E.callRel();
        if (I.Target.IsIntrinsic)
          Code.Relocs.push_back({RelocKind::CallIntr,
                                 static_cast<uint32_t>(Field),
                                 static_cast<uint32_t>(I.Target.Intr),
                                 Instr()});
        else
          Code.Relocs.push_back({RelocKind::CallFunc,
                                 static_cast<uint32_t>(Field),
                                 I.Target.Func, Instr()});
        break;
      }
      case MOp::Jmp:
        // Fallthrough jumps to the lexically next block are elided,
        // exactly like a real block-layout pass would.
        if (static_cast<size_t>(I.Imm) != B + 1)
          Fixup(E.jmpRel(), I.Imm);
        break;
      case MOp::Jcc:
        Fixup(E.jccRel(I.CC), I.Imm);
        break;
      case MOp::Ret:
        // Epilogue mirrors the prologue.
        if (F.UsesEdi)
          E.popR(Reg::EDI);
        if (F.UsesEsi)
          E.popR(Reg::ESI);
        if (F.UsesEbx)
          E.popR(Reg::EBX);
        E.leave();
        E.ret();
        break;
      case MOp::Nop:
        E.nop(I.NopK);
        break;
      case MOp::ProfInc: {
        size_t Field = E.incMem(Mem::abs(0));
        Code.Relocs.push_back({RelocKind::CounterAbs,
                               static_cast<uint32_t>(Field),
                               static_cast<uint32_t>(I.Imm), Instr()});
        break;
      }
      }
    }
  }

  Code.InstrOffsets.push_back(static_cast<uint32_t>(E.offset()));
  for (const BranchFixup &Fix : Code.Fixups) {
    assert(Fix.TargetBlock < F.Blocks.size() && "bad branch target");
    E.patchRel32(Fix.FieldOffset, BlockOffset[Fix.TargetBlock]);
  }
  E.finish();
}

namespace {

/// Every splice copy moves this many bytes: at least any one baseline
/// instruction (a Ret's epilogue included) or Table 1 NOP. Fixed-width
/// copies need no length-dependent branch; the bytes past an
/// instruction's end are overwritten by what follows it or cut off.
constexpr uint32_t CopyWidth = 16;

/// The Table 1 NOPs as splice sources, one CopyWidth row per kind.
struct NopRow {
  uint8_t Bytes[CopyWidth];
  uint32_t Length;
};

const std::array<NopRow, 8> &nopRows() {
  static const std::array<NopRow, 8> Rows = [] {
    std::array<NopRow, 8> R{};
    for (unsigned K = 0; K != x86::NumNopKinds; ++K) {
      const x86::NopInfo &Info = x86::nopInfo(static_cast<x86::NopKind>(K));
      std::memcpy(R[K].Bytes, Info.Bytes, sizeof Info.Bytes);
      R[K].Length = Info.Length;
    }
    return R;
  }();
  return Rows;
}

} // namespace

bool codegen::spliceFunction(const MFunction &Variant,
                             const MFunction &Baseline,
                             const FunctionCode &Base, FunctionCode &Out) {
  // The prologue and every epilogue are the baseline's only if the frame
  // is; the block walk below checks the rest.
  const size_t NumBlocks = Baseline.Blocks.size();
  if (Variant.Blocks.size() != NumBlocks ||
      Variant.FrameBytes != Baseline.FrameBytes ||
      Variant.UsesEbx != Baseline.UsesEbx ||
      Variant.UsesEsi != Baseline.UsesEsi ||
      Variant.UsesEdi != Baseline.UsesEdi)
    return false;
  size_t BaseInstrs = 0;
  size_t VariantInstrs = 0;
  for (size_t B = 0; B != NumBlocks; ++B) {
    BaseInstrs += Baseline.Blocks[B].Instrs.size();
    VariantInstrs += Variant.Blocks[B].Instrs.size();
  }
  if (Base.InstrOffsets.size() != BaseInstrs + 1 ||
      VariantInstrs < BaseInstrs)
    return false;

  // Room for every NOP at its longest, and for the last copy's width.
  const uint32_t SrcSize = static_cast<uint32_t>(Base.Bytes.size());
  Out.Bytes.resize(SrcSize + 2 * (VariantInstrs - BaseInstrs) + CopyWidth);
  uint8_t *Dst = Out.Bytes.data();
  const uint8_t *Src = Base.Bytes.data();
  const uint32_t *Start = Base.InstrOffsets.data();
  const std::array<NopRow, 8> &Nops = nopRows();
  // Per baseline instruction, its variant offset minus its own; per
  // block, its variant offset. Written through raw pointers, not the
  // vectors: the byte stores below may alias any memory, so a vector's
  // data pointer would be reloaded after each one.
  thread_local std::vector<uint32_t> ShiftBuf;
  thread_local std::vector<uint32_t> BlockOffsetBuf;
  ShiftBuf.resize(BaseInstrs + 1);
  BlockOffsetBuf.resize(NumBlocks);
  uint32_t *Shift = ShiftBuf.data();
  uint32_t *BlockOffset = BlockOffsetBuf.data();

  // The prologue, then one fixed-width copy per variant instruction: a
  // NOP from its Table 1 row, anything else from the next baseline
  // instruction's bytes. The NOP test indexes the source and length
  // rather than branching, since NOPs fall at random.
  std::memcpy(Dst, Src, Start[0]);
  uint32_t Pos = Start[0];
  size_t K = 0; // The next baseline instruction.
  for (size_t B = 0; B != NumBlocks; ++B) {
    BlockOffset[B] = Pos;
    const size_t BlockEnd = K + Baseline.Blocks[B].Instrs.size();
    for (const MInstr &I : Variant.Blocks[B].Instrs) {
      const bool IsNop = I.Op == MOp::Nop;
      if (!IsNop && K == BlockEnd)
        return false;
      const NopRow &Row = Nops[static_cast<unsigned>(I.NopK) & 7];
      const uint32_t At = Start[K];
      const uint32_t Lengths[2] = {Start[K + (K != BaseInstrs)] - At,
                                   Row.Length};
      const uint8_t *const Sources[2] = {Src + At, Row.Bytes};
      const uint32_t Len = Lengths[IsNop];
      const uint8_t *From = Sources[IsNop];
      if (Len > CopyWidth)
        return false;
      if (At + CopyWidth <= SrcSize)
        std::memcpy(Dst + Pos, From, CopyWidth);
      else
        std::memcpy(Dst + Pos, From, Len);
      Shift[K] = Pos - At; // A NOP's is overwritten by the next copy.
      Pos += Len;
      K += !IsNop;
    }
    if (K != BlockEnd)
      return false;
  }

  // Relocations and branch fields move with their instruction; the
  // branches are re-patched from the variant's block offsets.
  Out.Relocs.resize(Base.Relocs.size());
  for (size_t R = 0; R != Base.Relocs.size(); ++R) {
    const Reloc &From = Base.Relocs[R];
    Out.Relocs[R] = {From.Kind, From.Offset + Shift[From.Instr], From.Index,
                     From.Instr};
  }
  Out.Fixups.resize(Base.Fixups.size());
  for (size_t X = 0; X != Base.Fixups.size(); ++X) {
    const BranchFixup &From = Base.Fixups[X];
    const uint32_t Field = From.FieldOffset + Shift[From.Instr];
    Out.Fixups[X] = {Field, From.TargetBlock, From.Instr};
    const uint32_t Rel = BlockOffset[From.TargetBlock] - (Field + 4);
    Dst[Field] = static_cast<uint8_t>(Rel);
    Dst[Field + 1] = static_cast<uint8_t>(Rel >> 8);
    Dst[Field + 2] = static_cast<uint8_t>(Rel >> 16);
    Dst[Field + 3] = static_cast<uint8_t>(Rel >> 24);
  }
  Out.InstrOffsets.clear();
  Out.Bytes.resize(Pos);
  return true;
}
