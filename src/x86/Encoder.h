//===-- x86/Encoder.h - IA-32 machine-code emitter ---------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits real IA-32 machine code for the instruction subset produced by
/// the code generator. The NOP insertion pass runs on the machine IR just
/// before these bytes are produced (paper Section 4: "our strategy is to
/// insert NOPs into the lower-level representation, after the compiler
/// performs all optimizations and just before it emits native code"), so
/// the byte-level output is what the gadget scanner and Survivor analyze.
///
/// Branch and call targets are emitted as rel32 placeholders; the caller
/// records the returned fixup offsets and patches them once block/function
/// layout is final (see codegen/Emitter).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_X86_ENCODER_H
#define PGSD_X86_ENCODER_H

#include "x86/Nops.h"
#include "x86/X86.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pgsd {
namespace x86 {

/// Two-operand ALU operations sharing the classic opcode-row layout.
enum class AluOp : uint8_t {
  Add = 0,
  Or = 1,
  Adc = 2,
  Sbb = 3,
  And = 4,
  Sub = 5,
  Xor = 6,
  Cmp = 7,
};

/// Shift operations (group 2 /reg selectors).
enum class ShiftOp : uint8_t {
  Shl = 4,
  Shr = 5,
  Sar = 7,
};

/// Encodes IA-32 instructions at the end of a byte buffer through a
/// cursor. Each encoder makes room for its longest form, then writes its
/// bytes through a local pointer and moves the cursor once. The buffer
/// is grown ahead of the cursor, so a caller that knows a bound calls
/// reserve() once (the emitter: x86::MaxInstrLen per MIR instruction)
/// and no encoder grows it again. The room ahead of the cursor stays in
/// the buffer until finish() (or the destructor) trims it to offset():
/// read the buffer only after that.
class Encoder {
public:
  explicit Encoder(std::vector<uint8_t> &Buffer)
      : Out(Buffer), Pos(Buffer.size()) {}
  ~Encoder() { finish(); }
  Encoder(const Encoder &) = delete;
  Encoder &operator=(const Encoder &) = delete;

  /// Current offset, i.e. the position the next instruction starts at.
  size_t offset() const { return Pos; }

  /// Makes room for \p Bytes more bytes ahead of the cursor.
  void reserve(size_t Bytes) {
    if (Out.size() - Pos < Bytes)
      grow(Bytes);
  }

  /// Trims the buffer to the bytes encoded so far. Encoding may go on
  /// afterwards; it grows the buffer again.
  void finish() { Out.resize(Pos); }

  // Moves.
  void movRR(Reg Dst, Reg Src) { ///< MOV Dst, Src       (89 /r)
    uint8_t *P = at(2);
    P[0] = 0x89; // MOV r/m32, r32
    P[1] = modRMReg(regNum(Src), Dst);
    Pos += 2;
  }
  void movRI(Reg Dst, int32_t Imm) { ///< MOV Dst, imm32     (B8+rd)
    uint8_t *P = at(5);
    P[0] = static_cast<uint8_t>(0xB8 + regNum(Dst));
    put32(P + 1, static_cast<uint32_t>(Imm));
    Pos += 5;
  }
  void movLoad(Reg Dst, const Mem &Src) { ///< MOV Dst, [Src]     (8B /r)
    op(0x8B, regNum(Dst), Src); // MOV r32, r/m32
  }
  void movStore(const Mem &Dst, Reg Src) { ///< MOV [Dst], Src     (89 /r)
    op(0x89, regNum(Src), Dst); // MOV r/m32, r32
  }
  void movStoreImm(const Mem &Dst, int32_t Imm); ///< MOV [Dst], imm (C7 /0)
  void leaRM(Reg Dst, const Mem &Src) { ///< LEA Dst, [Src]     (8D /r)
    assert(Src.HasBase && "LEA of an absolute address is just MOV imm");
    op(0x8D, regNum(Dst), Src);
  }

  // ALU.
  void aluRR(AluOp Op, Reg Dst, Reg Src) { ///< op Dst, Src
    // Row base + 1: op r/m32, r32.
    opReg(static_cast<uint8_t>((static_cast<uint8_t>(Op) << 3) | 0x01),
          regNum(Src), Dst);
  }
  void aluRI(AluOp Op, Reg Dst, int32_t Imm) { ///< op Dst, imm (81/83 /n)
    uint8_t *P = at(6);
    P[1] = modRMReg(static_cast<uint8_t>(Op), Dst);
    if (fitsInt8(Imm)) {
      P[0] = 0x83; // op r/m32, imm8 (sign-extended)
      P[2] = static_cast<uint8_t>(static_cast<int8_t>(Imm));
      Pos += 3;
      return;
    }
    P[0] = 0x81; // op r/m32, imm32
    put32(P + 2, static_cast<uint32_t>(Imm));
    Pos += 6;
  }
  void aluRM(AluOp Op, Reg Dst, const Mem &Src); ///< op Dst, [Src]
  void imulRR(Reg Dst, Reg Src) { ///< IMUL Dst, Src      (0F AF /r)
    uint8_t *P = at(3);
    P[0] = 0x0F;
    P[1] = 0xAF;
    P[2] = modRMReg(regNum(Dst), Src);
    Pos += 3;
  }
  void cdq() { oneByte(0x99); } ///< CDQ                (99)
  void idivR(Reg Src) { opReg(0xF7, 7, Src); } ///< IDIV Src (F7 /7)
  void negR(Reg R) { opReg(0xF7, 3, R); }      ///< NEG R    (F7 /3)
  void notR(Reg R) { opReg(0xF7, 2, R); }      ///< NOT R    (F7 /2)
  void shiftRI(ShiftOp Op, Reg R, uint8_t Amount) { ///< shift R, imm8
    uint8_t *P = at(3);
    P[0] = 0xC1;
    P[1] = modRMReg(static_cast<uint8_t>(Op), R);
    P[2] = Amount;
    Pos += 3;
  }
  void shiftRCL(ShiftOp Op, Reg R) { ///< shift R, CL        (D3 /n)
    opReg(0xD3, static_cast<uint8_t>(Op), R);
  }
  void testRR(Reg A, Reg B) { opReg(0x85, regNum(B), A); } ///< TEST (85 /r)

  // Flag materialization: SETcc writes the low byte of a register, so the
  // destination must be EAX..EBX (which have 8-bit subregisters).
  void setccR8(CondCode CC, Reg Dst) { ///< SETcc Dst8      (0F 90+cc)
    assert(regNum(Dst) < 4 && "SETcc needs a register with an 8-bit subreg");
    uint8_t *P = at(3);
    P[0] = 0x0F;
    P[1] = static_cast<uint8_t>(0x90 + static_cast<uint8_t>(CC));
    P[2] = modRMReg(0, Dst);
    Pos += 3;
  }
  void movzxR8(Reg Dst, Reg Src) { ///< MOVZX Dst, Src8 (0F B6 /r)
    assert(regNum(Src) < 4 && "MOVZX source must have an 8-bit subreg");
    uint8_t *P = at(3);
    P[0] = 0x0F;
    P[1] = 0xB6;
    P[2] = modRMReg(regNum(Dst), Src);
    Pos += 3;
  }

  // Stack.
  void pushR(Reg R) { oneByte(static_cast<uint8_t>(0x50 + regNum(R))); }
  void pushI(int32_t Imm) { ///< PUSH imm32         (68)
    uint8_t *P = at(5);
    P[0] = 0x68;
    put32(P + 1, static_cast<uint32_t>(Imm));
    Pos += 5;
  }
  void popR(Reg R) { oneByte(static_cast<uint8_t>(0x58 + regNum(R))); }
  void leave() { oneByte(0xC9); } ///< LEAVE              (C9)

  // Control flow. The *Rel forms emit a rel32 placeholder and return the
  /// byte offset of that placeholder for later patching.
  size_t callRel() { return rel32(0xE8); } ///< CALL rel32         (E8)
  size_t jmpRel() { return rel32(0xE9); }  ///< JMP rel32          (E9)
  size_t jccRel(CondCode CC) {              ///< Jcc rel32       (0F 80+cc)
    uint8_t *P = at(6);
    P[0] = 0x0F;
    P[1] = static_cast<uint8_t>(0x80 + static_cast<uint8_t>(CC));
    put32(P + 2, 0);
    Pos += 6;
    return Pos - 4;
  }
  void callInd(Reg R) { opReg(0xFF, 2, R); } ///< CALL R             (FF /2)
  void jmpInd(Reg R) { opReg(0xFF, 4, R); }  ///< JMP R              (FF /4)
  void ret() { oneByte(0xC3); }              ///< RET                (C3)
  void retImm(uint16_t PopBytes);            ///< RET imm16          (C2)
  void intN(uint8_t Vector);                 ///< INT imm8           (CD)

  /// INC dword [M] (FF /0) -- the classic profiling-counter increment.
  /// Returns the byte offset of the disp32 field so the linker can
  /// relocate absolute counter addresses.
  size_t incMem(const Mem &M) {
    assert(!M.HasBase && "counter increments use absolute addresses");
    op(0xFF, 0, M); // group 5, /0 = INC r/m32
    return Pos - 4;
  }

  // Diversity NOPs (paper Table 1).
  void nop(NopKind Kind) {
    const NopInfo &Info = nopInfo(Kind);
    uint8_t *P = at(2);
    P[0] = Info.Bytes[0];
    P[1] = Info.Bytes[1];
    Pos += Info.Length;
  }

  /// Patches a previously emitted rel32 placeholder at \p FixupOffset so
  /// the branch lands on \p TargetOffset (both relative to buffer start).
  void patchRel32(size_t FixupOffset, size_t TargetOffset) {
    assert(FixupOffset + 4 <= Pos && "fixup out of range");
    // rel32 is relative to the end of the instruction, i.e. the byte
    // after the displacement field.
    put32(Out.data() + FixupOffset,
          static_cast<uint32_t>(static_cast<int32_t>(TargetOffset) -
                                static_cast<int32_t>(FixupOffset + 4)));
  }

  /// Writes a raw byte (used by the libc-stub builder for data padding).
  void rawByte(uint8_t Byte) { oneByte(Byte); }

private:
  static bool fitsInt8(int32_t V) { return V >= -128 && V <= 127; }

  /// The cursor, with room for \p Bytes more bytes.
  uint8_t *at(size_t Bytes) {
    reserve(Bytes);
    return Out.data() + Pos;
  }
  void grow(size_t Bytes);

  static void put32(uint8_t *P, uint32_t V) {
    P[0] = static_cast<uint8_t>(V);
    P[1] = static_cast<uint8_t>(V >> 8);
    P[2] = static_cast<uint8_t>(V >> 16);
    P[3] = static_cast<uint8_t>(V >> 24);
  }
  /// A ModRM byte with register-direct rm (mod = 11).
  static uint8_t modRMReg(uint8_t RegField, Reg RM) {
    assert(RegField < 8 && "reg field out of range");
    return static_cast<uint8_t>(0xC0 | (RegField << 3) | regNum(RM));
  }
  /// Writes ModRM (+SIB +disp) for a memory operand at \p P; returns the
  /// byte after it.
  static uint8_t *modRMMem(uint8_t *P, uint8_t RegField, const Mem &M);

  void oneByte(uint8_t B) {
    *at(1) = B;
    ++Pos;
  }
  /// Opcode \p Opc, then ModRM with register-direct \p RM.
  void opReg(uint8_t Opc, uint8_t RegField, Reg RM) {
    uint8_t *P = at(2);
    P[0] = Opc;
    P[1] = modRMReg(RegField, RM);
    Pos += 2;
  }
  /// Opcode \p Opc, then ModRM (+SIB +disp) for memory operand \p M.
  void op(uint8_t Opc, uint8_t RegField, const Mem &M) {
    uint8_t *P = at(7);
    P[0] = Opc;
    Pos = static_cast<size_t>(modRMMem(P + 1, RegField, M) - Out.data());
  }
  /// Opcode \p Opc, then a zero rel32; returns the rel32's offset.
  size_t rel32(uint8_t Opc) {
    uint8_t *P = at(5);
    P[0] = Opc;
    put32(P + 1, 0);
    Pos += 5;
    return Pos - 4;
  }

  std::vector<uint8_t> &Out;
  size_t Pos; ///< The cursor: bytes encoded so far.
};

} // namespace x86
} // namespace pgsd

#endif // PGSD_X86_ENCODER_H
