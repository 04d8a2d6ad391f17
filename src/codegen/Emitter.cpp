//===-- codegen/Emitter.cpp - Machine-IR to object code --------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "codegen/Emitter.h"

#include "x86/Decoder.h"
#include "x86/Encoder.h"

#include <cassert>

using namespace pgsd;
using namespace pgsd::codegen;
using namespace pgsd::mir;
using x86::Encoder;
using x86::Mem;
using x86::Reg;

FunctionCode codegen::emitFunction(const MFunction &F, const MModule &M) {
  FunctionCode Code;
  emitFunction(F, M, Code);
  return Code;
}

void codegen::emitFunction(const MFunction &F, const MModule &M,
                           FunctionCode &Out) {
  (void)M;
  FunctionCode &Code = Out;
  Code.Bytes.clear();
  Code.Relocs.clear();
  Encoder E(Code.Bytes);
  // Each MIR instruction encodes to one IA-32 instruction of at most
  // MaxInstrLen bytes (a Ret's epilogue fits in its own), after a
  // prologue of at most 12: the buffer grows once per function.
  size_t NumInstrs = 0;
  for (const MBasicBlock &BB : F.Blocks)
    NumInstrs += BB.Instrs.size();
  E.reserve(12 + NumInstrs * x86::MaxInstrLen);

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
  struct BranchFixup {
    size_t FieldOffset;
    uint32_t TargetBlock;
  };
  std::vector<BranchFixup> Fixups;

  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    BlockOffset[B] = E.offset();
    for (const MInstr &I : F.Blocks[B].Instrs) {
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
                               static_cast<uint32_t>(I.Imm)});
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
                                 static_cast<uint32_t>(I.Target.Intr)});
        else
          Code.Relocs.push_back({RelocKind::CallFunc,
                                 static_cast<uint32_t>(Field),
                                 I.Target.Func});
        break;
      }
      case MOp::Jmp:
        // Fallthrough jumps to the lexically next block are elided,
        // exactly like a real block-layout pass would.
        if (static_cast<size_t>(I.Imm) != B + 1)
          Fixups.push_back({E.jmpRel(), static_cast<uint32_t>(I.Imm)});
        break;
      case MOp::Jcc:
        Fixups.push_back({E.jccRel(I.CC), static_cast<uint32_t>(I.Imm)});
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
                               static_cast<uint32_t>(I.Imm)});
        break;
      }
      }
    }
  }

  for (const BranchFixup &Fix : Fixups) {
    assert(Fix.TargetBlock < F.Blocks.size() && "bad branch target");
    E.patchRel32(Fix.FieldOffset, BlockOffset[Fix.TargetBlock]);
  }
  E.finish();
}
