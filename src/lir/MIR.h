//===-- lir/MIR.h - Low-level machine IR (IA-32) -----------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The low-level representation ("LR" in the paper's Figure 3). Machine
/// instructions here correspond one-to-one to IA-32 instructions emitted
/// by codegen/Emitter -- the property the paper relies on when inserting
/// NOPs at this stage: "most LR operations in a compiler have a
/// one-to-one correspondence to the native code instructions in the
/// object files" (Section 4).
///
/// All register operands are physical IA-32 registers: instruction
/// selection runs after the register planner has decided which IR values
/// live in callee-saved registers and which in frame slots, so no virtual
/// registers survive to this level. Three passes operate on MIR before
/// emission: peephole cleanup, profile instrumentation (profile/), and
/// the paper's NOP insertion (diversity/).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_LIR_MIR_H
#define PGSD_LIR_MIR_H

#include "ir/IR.h"
#include "x86/Encoder.h"
#include "x86/Nops.h"
#include "x86/X86.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pgsd {
namespace mir {

/// Machine opcodes. Every non-pseudo opcode encodes to exactly one IA-32
/// instruction.
enum class MOp : uint8_t {
  MovRR,     ///< mov Dst, Src
  MovRI,     ///< mov Dst, Imm
  MovGlobal, ///< mov Dst, offset global#Imm (imm32 with relocation)
  Load,      ///< mov Dst, [Src + Imm]
  Store,     ///< mov [Dst + Imm], Src
  LoadFrame, ///< mov Dst, [ebp + Imm]
  StoreFrame,///< mov [ebp + Imm], Src
  LeaFrame,  ///< lea Dst, [ebp + Imm]
  AluRR,     ///< alu Dst, Src (Alu field: add/sub/and/or/xor/cmp)
  AluRI,     ///< alu Dst, Imm
  ImulRR,    ///< imul Dst, Src
  Cdq,       ///< cdq (EAX -> EDX:EAX)
  Idiv,      ///< idiv Src (EDX:EAX / Src -> EAX rem EDX)
  Neg,       ///< neg Dst
  Not,       ///< not Dst
  ShiftRI,   ///< shift Dst, Imm (Shift field)
  ShiftRC,   ///< shift Dst, CL
  TestRR,    ///< test Dst, Src
  Setcc,     ///< setCC Dst8 (Dst must have an 8-bit subregister)
  Movzx8,    ///< movzx Dst, Src8
  Push,      ///< push Src
  PushI,     ///< push Imm
  Pop,       ///< pop Dst
  AdjustSP,  ///< add esp, Imm (argument cleanup)
  Call,      ///< call Target (direct, rel32)
  Jmp,       ///< jmp block #Imm
  Jcc,       ///< jCC block #Imm
  Ret,       ///< ret (the emitter expands the epilogue before it)
  Nop,       ///< one NOP from paper Table 1 (NopKind field)
  ProfInc,   ///< pseudo: add dword [counter #Imm], 1 (edge profiling)
};

/// Returns a stable mnemonic for \p Op.
const char *mopName(MOp Op);

/// One machine instruction. Field use depends on MOp (see MOp docs);
/// unused fields hold defaults.
struct MInstr {
  MOp Op = MOp::Nop;
  x86::Reg Dst = x86::Reg::EAX;
  x86::Reg Src = x86::Reg::EAX;
  int32_t Imm = 0; ///< Immediate / frame disp / block id / counter id.
  x86::AluOp Alu = x86::AluOp::Add;
  x86::ShiftOp Shift = x86::ShiftOp::Shl;
  x86::CondCode CC = x86::CondCode::E;
  x86::NopKind NopK = x86::NopKind::Nop90;
  ir::Callee Target; ///< For Call.
};

/// Returns true for Jmp/Jcc/Ret.
bool isMTerminator(MOp Op);

/// The register-effect table: the registers \p I reads, as a bitmask
/// with bit x86::regNum(R) set for each, explicit operands and implicit
/// uses (CDQ/IDIV/Ret read EAX, ShiftRC reads CL, ...) alike. ESP/EBP
/// uses by push/pop/frame instructions are not included; those
/// registers are maintained by the prologue and tracked structurally.
/// Setcc counts as a pure definition: it writes only the low byte, and
/// the generated code always masks through MOVZX before the value
/// escapes. analysis::forEachReadReg visits the same set in operand
/// order, for diagnostics.
uint8_t readRegs(const MInstr &I);

/// The registers \p I writes, as a bitmask (see readRegs). A Call
/// writes EAX/ECX/EDX, the cdecl caller-saved set: EAX carries the
/// return value, ECX/EDX hold garbage. CMP writes nothing.
uint8_t writtenRegs(const MInstr &I);

/// A machine basic block. Control transfers appear only in the trailing
/// branch group: zero or more Jcc followed by at most one Jmp, or a Ret.
/// Execution falls through to the next block when no Jmp/Ret is present.
struct MBasicBlock {
  std::string Name;
  std::vector<MInstr> Instrs;
  uint64_t ProfileCount = 0; ///< Execution count, once profiling ran.
};

/// A machine function.
struct MFunction {
  std::string Name;
  uint32_t NumParams = 0;
  uint32_t FrameBytes = 0;       ///< Locals + spill area below EBP.
  /// Lowest (most negative) EBP-relative displacement used by scalar
  /// value slots; frame *objects* (arrays, reachable through LeaFrame
  /// pointers) live strictly below this. Lets the peephole prove a
  /// StoreFrame dead without aliasing concerns.
  int32_t ValueSlotsLowDisp = 0;
  bool UsesEbx = false;          ///< Callee-saved registers to preserve.
  bool UsesEsi = false;
  bool UsesEdi = false;
  std::vector<MBasicBlock> Blocks;

  /// Successor block ids of block \p B, in branch order; the fallthrough
  /// successor (when the block does not end in Jmp/Ret) comes last.
  std::vector<uint32_t> successors(uint32_t B) const;

  /// Appends successors(B) to \p Out without allocating a vector of its
  /// own (dataflow solvers build one flat successor table per solve).
  void appendSuccessors(uint32_t B, std::vector<uint32_t> &Out) const;
};

/// A machine module: functions plus the global memory image layout.
struct MModule {
  std::string Name;
  std::vector<MFunction> Functions;
  std::vector<ir::Global> Globals; ///< Copied from the IR module.
  int EntryFunction = -1;          ///< Index of main.
  uint32_t NumProfCounters = 0;    ///< Edge counters when instrumented.
};

/// Renders one instruction in the same assembler-like syntax print()
/// uses for whole modules ("mov eax, ecx", "jl mbb3", ...). Diagnostics
/// from the static analyzer embed this next to the instruction's
/// function/block/index coordinates.
std::string printInstr(const MInstr &I);

/// Renders \p M as text for tests, debugging, and content addressing.
/// The text covers everything execution, emission, and verification
/// read from the module -- entry function, counter count, global layout
/// and initializers, per-function frame shape and value-slot floor, and
/// every instruction -- so two modules with equal prints run and link
/// identically. The variant store keys (serve/VariantStore.h) rely on
/// that.
std::string print(const MModule &M);

/// Structural validity check; empty string when OK. Verifies branch
/// grouping (control flow only in the trailing branch group), block id
/// ranges, SETcc/MOVZX subregister constraints, and frame-slot alignment.
std::string verify(const MModule &M);

/// True when \p Variant is \p Baseline plus NOPs, as NOP insertion
/// builds it:
///  * with every MOp::Nop deleted from both, the modules are equal in
///    every field print() shows that execution reads -- entry function,
///    counter count, global sizes and initializers, per-function params,
///    frame shape, value-slot floor and callee-saved flags, and every
///    field of every other instruction. Names and ProfileCount are not
///    compared: no engine reads them;
///  * every NOP of the variant is immediately followed by a non-NOP
///    instruction of its own block, so no block holds more NOPs than
///    other instructions.
/// Both engines only charge cycles and count a step for a NOP, so the
/// two modules then trap, print, checksum and exit alike on every input,
/// and the variant's steps are at most twice the baseline's plus one.
bool equalModuloNops(const MModule &Baseline, const MModule &Variant);

/// Every field of \p A equals the same field of \p B.
inline bool sameInstr(const MInstr &A, const MInstr &B) {
  return A.Op == B.Op && A.Dst == B.Dst && A.Src == B.Src &&
         A.Imm == B.Imm && A.Alu == B.Alu && A.Shift == B.Shift &&
         A.CC == B.CC && A.NopK == B.NopK &&
         A.Target.IsIntrinsic == B.Target.IsIntrinsic &&
         A.Target.Func == B.Target.Func && A.Target.Intr == B.Target.Intr;
}

/// The part of equalModuloNops that reads no instruction: entry
/// function, counter count, globals, and per function its params, frame
/// shape, value-slot floor, callee-saved flags and block count.
bool sameShape(const MModule &Baseline, const MModule &Variant);

/// equalModuloNops in one walk that also visits the variant: calls
/// \p Visit(FlatBlock, I, Last) for each instruction I of \p Variant in
/// stream order (FlatBlock numbers blocks across functions in order;
/// Last is true for a block's last instruction) while it compares.
/// A false return may follow some visits; the caller drops what they
/// gathered. equalModuloNops(B, V) is this walk with a visitor that does
/// nothing.
template <typename Fn>
bool equalModuloNops(const MModule &Baseline, const MModule &Variant,
                     Fn &&Visit) {
  if (!sameShape(Baseline, Variant))
    return false;
  uint32_t Flat = 0;
  for (size_t F = 0; F != Baseline.Functions.size(); ++F) {
    const std::vector<MBasicBlock> &BBs = Baseline.Functions[F].Blocks;
    const std::vector<MBasicBlock> &VBs = Variant.Functions[F].Blocks;
    for (size_t B = 0; B != BBs.size(); ++B, ++Flat) {
      // Block B of the variant, NOPs deleted, must equal block B of the
      // baseline, NOPs deleted, and every NOP of the variant must
      // precede a non-NOP.
      auto BI = BBs[B].Instrs.begin(), BE = BBs[B].Instrs.end();
      auto VI = VBs[B].Instrs.begin(), VE = VBs[B].Instrs.end();
      for (;;) {
        while (BI != BE && BI->Op == MOp::Nop)
          ++BI;
        if (VI != VE && VI->Op == MOp::Nop) {
          const MInstr &Nop = *VI++;
          if (VI == VE || VI->Op == MOp::Nop)
            return false; // A trailing NOP, or two in a row.
          Visit(Flat, Nop, false);
        }
        if (BI == BE || VI == VE) {
          if (BI != BE || VI != VE)
            return false;
          break;
        }
        if (!sameInstr(*BI++, *VI))
          return false;
        const MInstr &I = *VI++;
        Visit(Flat, I, VI == VE);
      }
    }
  }
  return true;
}

/// A 64-bit digest of everything equalModuloNops compares, NOPs skipped:
/// modules that are equal modulo NOPs have equal digests. It only picks
/// candidates; a match still needs equalModuloNops.
uint64_t hashModuloNops(const MModule &M);

} // namespace mir
} // namespace pgsd

#endif // PGSD_LIR_MIR_H
