//===-- x86/Decoder.cpp - IA-32 instruction-stream decoder ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "x86/Decoder.h"

#include <algorithm>
#include <array>

using namespace pgsd;
using namespace pgsd::x86;

namespace {

/// Operand-shape flags for one opcode-table entry.
enum : uint8_t {
  FNone = 0,
  FModRM = 1 << 0, ///< ModRM byte (plus SIB/displacement) follows.
  FImm8 = 1 << 1,  ///< 8-bit immediate.
  FImmZ = 1 << 2,  ///< 16/32-bit immediate (by operand size).
  FImm16 = 1 << 3, ///< Fixed 16-bit immediate (RET imm16, ENTER).
  FRel8 = 1 << 4,  ///< 8-bit branch displacement.
  FRelZ = 1 << 5,  ///< 16/32-bit branch displacement (by operand size).
  FMoffs = 1 << 6, ///< Address-sized memory offset (MOV AL, moffs).
  FFarPtr = 1 << 7,///< ptr16:16/ptr16:32 far pointer (by operand size).
};

/// One opcode-map entry.
struct OpInfo {
  uint8_t Flags = FNone;
  InstrClass Class = InstrClass::Invalid;
};

using OpTable = std::array<OpInfo, 256>;

constexpr OpInfo entry(uint8_t Flags, InstrClass Class = InstrClass::Normal) {
  return OpInfo{Flags, Class};
}

/// Builds the one-byte opcode map. Opcodes with per-ModRM behaviour
/// (groups F6/F7/FE/FF, LEA, C6/C7, ...) are refined in decodeInstr.
constexpr OpTable buildOneByteTable() {
  OpTable T{};

  // ALU row pattern: op rm8,r8 / rm32,r32 / r8,rm8 / r32,rm32 /
  // AL,imm8 / eAX,immZ. Rows: ADD 00, OR 08, ADC 10, SBB 18, AND 20,
  // SUB 28, XOR 30, CMP 38.
  for (unsigned Row = 0x00; Row <= 0x38; Row += 0x08) {
    for (unsigned I = 0; I < 4; ++I)
      T[Row + I] = entry(FModRM);
    T[Row + 4] = entry(FImm8);
    T[Row + 5] = entry(FImmZ);
  }
  // PUSH/POP of segment registers share the ALU rows' last columns.
  T[0x06] = entry(FNone); // PUSH ES
  T[0x07] = entry(FNone); // POP ES
  T[0x0E] = entry(FNone); // PUSH CS
  // 0x0F is the two-byte escape, handled in decodeInstr.
  T[0x16] = entry(FNone); // PUSH SS
  T[0x17] = entry(FNone); // POP SS
  T[0x1E] = entry(FNone); // PUSH DS
  T[0x1F] = entry(FNone); // POP DS
  T[0x27] = entry(FNone); // DAA
  T[0x2F] = entry(FNone); // DAS
  T[0x37] = entry(FNone); // AAA
  T[0x3F] = entry(FNone); // AAS

  for (unsigned I = 0x40; I <= 0x4F; ++I)
    T[I] = entry(FNone); // INC/DEC r32
  for (unsigned I = 0x50; I <= 0x5F; ++I)
    T[I] = entry(FNone); // PUSH/POP r32

  T[0x60] = entry(FNone);  // PUSHA
  T[0x61] = entry(FNone);  // POPA
  T[0x62] = entry(FModRM); // BOUND (mod=11 invalid, refined later)
  T[0x63] = entry(FModRM); // ARPL
  T[0x68] = entry(FImmZ);  // PUSH immZ
  T[0x69] = entry(FModRM | FImmZ); // IMUL r, rm, immZ
  T[0x6A] = entry(FImm8);  // PUSH imm8
  T[0x6B] = entry(FModRM | FImm8); // IMUL r, rm, imm8
  // INS/OUTS touch I/O ports: fault outside ring 0 (with IOPL 0).
  for (unsigned I = 0x6C; I <= 0x6F; ++I)
    T[I] = entry(FNone, InstrClass::Privileged);

  for (unsigned I = 0x70; I <= 0x7F; ++I)
    T[I] = entry(FRel8, InstrClass::Jcc);

  T[0x80] = entry(FModRM | FImm8);  // ALU group rm8, imm8
  T[0x81] = entry(FModRM | FImmZ);  // ALU group rm32, immZ
  T[0x82] = entry(FModRM | FImm8);  // alias of 0x80 (valid in IA-32)
  T[0x83] = entry(FModRM | FImm8);  // ALU group rm32, imm8
  T[0x84] = entry(FModRM);          // TEST rm8, r8
  T[0x85] = entry(FModRM);          // TEST rm32, r32
  T[0x86] = entry(FModRM);          // XCHG rm8, r8
  T[0x87] = entry(FModRM);          // XCHG rm32, r32
  for (unsigned I = 0x88; I <= 0x8B; ++I)
    T[I] = entry(FModRM);           // MOV forms
  T[0x8C] = entry(FModRM);          // MOV rm, sreg
  T[0x8D] = entry(FModRM);          // LEA (mod=11 invalid, refined later)
  T[0x8E] = entry(FModRM);          // MOV sreg, rm (reg=CS refined later)
  T[0x8F] = entry(FModRM);          // POP rm (group 1A, /0 only)

  for (unsigned I = 0x90; I <= 0x97; ++I)
    T[I] = entry(FNone); // NOP / XCHG eAX, r32
  T[0x98] = entry(FNone); // CWDE
  T[0x99] = entry(FNone); // CDQ
  T[0x9A] = entry(FFarPtr, InstrClass::CallRel); // CALL far direct
  T[0x9B] = entry(FNone); // WAIT/FWAIT
  T[0x9C] = entry(FNone); // PUSHF
  T[0x9D] = entry(FNone); // POPF
  T[0x9E] = entry(FNone); // SAHF
  T[0x9F] = entry(FNone); // LAHF

  T[0xA0] = entry(FMoffs); // MOV AL, moffs8
  T[0xA1] = entry(FMoffs); // MOV eAX, moffsZ
  T[0xA2] = entry(FMoffs); // MOV moffs8, AL
  T[0xA3] = entry(FMoffs); // MOV moffsZ, eAX
  for (unsigned I = 0xA4; I <= 0xA7; ++I)
    T[I] = entry(FNone); // MOVS/CMPS
  T[0xA8] = entry(FImm8); // TEST AL, imm8
  T[0xA9] = entry(FImmZ); // TEST eAX, immZ
  for (unsigned I = 0xAA; I <= 0xAF; ++I)
    T[I] = entry(FNone); // STOS/LODS/SCAS

  for (unsigned I = 0xB0; I <= 0xB7; ++I)
    T[I] = entry(FImm8); // MOV r8, imm8
  for (unsigned I = 0xB8; I <= 0xBF; ++I)
    T[I] = entry(FImmZ); // MOV r32, immZ

  T[0xC0] = entry(FModRM | FImm8); // shift group rm8, imm8
  T[0xC1] = entry(FModRM | FImm8); // shift group rm32, imm8
  T[0xC2] = entry(FImm16, InstrClass::RetImm);
  T[0xC3] = entry(FNone, InstrClass::Ret);
  T[0xC4] = entry(FModRM); // LES (mod=11 invalid, refined later)
  T[0xC5] = entry(FModRM); // LDS (mod=11 invalid, refined later)
  T[0xC6] = entry(FModRM | FImm8); // MOV rm8, imm8 (/0 only)
  T[0xC7] = entry(FModRM | FImmZ); // MOV rm32, immZ (/0 only)
  T[0xC8] = entry(FImm16 | FImm8); // ENTER imm16, imm8
  T[0xC9] = entry(FNone);          // LEAVE
  T[0xCA] = entry(FImm16, InstrClass::RetFar);
  T[0xCB] = entry(FNone, InstrClass::RetFar);
  T[0xCC] = entry(FNone, InstrClass::IntN);  // INT3
  T[0xCD] = entry(FImm8, InstrClass::IntN);  // INT imm8
  T[0xCE] = entry(FNone, InstrClass::IntN);  // INTO
  T[0xCF] = entry(FNone, InstrClass::IntN);  // IRET

  for (unsigned I = 0xD0; I <= 0xD3; ++I)
    T[I] = entry(FModRM); // shift groups by 1 / by CL
  T[0xD4] = entry(FImm8); // AAM
  T[0xD5] = entry(FImm8); // AAD
  T[0xD6] = entry(FNone, InstrClass::Invalid); // SALC (undocumented)
  T[0xD7] = entry(FNone); // XLAT
  for (unsigned I = 0xD8; I <= 0xDF; ++I)
    T[I] = entry(FModRM); // x87 escape

  for (unsigned I = 0xE0; I <= 0xE3; ++I)
    T[I] = entry(FRel8, InstrClass::Loop); // LOOPcc / JECXZ
  T[0xE4] = entry(FImm8, InstrClass::Privileged); // IN AL, imm8
  T[0xE5] = entry(FImm8, InstrClass::Privileged); // IN eAX, imm8
  T[0xE6] = entry(FImm8, InstrClass::Privileged); // OUT imm8, AL
  T[0xE7] = entry(FImm8, InstrClass::Privileged); // OUT imm8, eAX
  T[0xE8] = entry(FRelZ, InstrClass::CallRel);
  T[0xE9] = entry(FRelZ, InstrClass::JmpRel);
  T[0xEA] = entry(FFarPtr, InstrClass::JmpRel); // JMP far direct
  T[0xEB] = entry(FRel8, InstrClass::JmpRel);
  for (unsigned I = 0xEC; I <= 0xEF; ++I)
    T[I] = entry(FNone, InstrClass::Privileged); // IN/OUT via DX

  // F0/F2/F3 are prefixes (handled before table lookup).
  T[0xF1] = entry(FNone, InstrClass::Privileged); // INT1/ICEBP
  T[0xF4] = entry(FNone, InstrClass::Privileged); // HLT
  T[0xF5] = entry(FNone); // CMC
  T[0xF6] = entry(FModRM); // group 3 rm8 (TEST imm refined later)
  T[0xF7] = entry(FModRM); // group 3 rm32 (TEST imm refined later)
  T[0xF8] = entry(FNone); // CLC
  T[0xF9] = entry(FNone); // STC
  T[0xFA] = entry(FNone, InstrClass::Privileged); // CLI
  T[0xFB] = entry(FNone, InstrClass::Privileged); // STI
  T[0xFC] = entry(FNone); // CLD
  T[0xFD] = entry(FNone); // STD
  T[0xFE] = entry(FModRM); // group 4 (INC/DEC rm8, refined later)
  T[0xFF] = entry(FModRM); // group 5 (class refined later)

  return T;
}

/// Builds the two-byte (0F xx) opcode map.
constexpr OpTable buildTwoByteTable() {
  OpTable T{};

  T[0x00] = entry(FModRM, InstrClass::Privileged); // SLDT/LTR group
  T[0x01] = entry(FModRM, InstrClass::Privileged); // SGDT/LGDT group
  T[0x02] = entry(FModRM); // LAR
  T[0x03] = entry(FModRM); // LSL
  T[0x06] = entry(FNone, InstrClass::Privileged); // CLTS
  T[0x08] = entry(FNone, InstrClass::Privileged); // INVD
  T[0x09] = entry(FNone, InstrClass::Privileged); // WBINVD
  T[0x0B] = entry(FNone, InstrClass::Invalid);    // UD2
  T[0x0D] = entry(FModRM); // prefetch hints
  for (unsigned I = 0x10; I <= 0x17; ++I)
    T[I] = entry(FModRM); // SSE moves
  for (unsigned I = 0x18; I <= 0x1F; ++I)
    T[I] = entry(FModRM); // hint NOPs (incl. canonical 0F 1F NOP)
  for (unsigned I = 0x20; I <= 0x23; ++I)
    T[I] = entry(FModRM, InstrClass::Privileged); // MOV to/from CR/DR
  for (unsigned I = 0x28; I <= 0x2F; ++I)
    T[I] = entry(FModRM); // SSE converts/compares
  T[0x30] = entry(FNone, InstrClass::Privileged); // WRMSR
  T[0x31] = entry(FNone); // RDTSC
  T[0x32] = entry(FNone, InstrClass::Privileged); // RDMSR
  T[0x33] = entry(FNone, InstrClass::Privileged); // RDPMC
  // SYSENTER transfers control into the kernel: the standard 32-bit
  // Linux syscall path; classify with INT so the attack checker can
  // treat it as a potential syscall gadget terminator.
  T[0x34] = entry(FNone, InstrClass::IntN); // SYSENTER
  T[0x35] = entry(FNone, InstrClass::Privileged); // SYSEXIT
  for (unsigned I = 0x40; I <= 0x4F; ++I)
    T[I] = entry(FModRM); // CMOVcc
  for (unsigned I = 0x50; I <= 0x6F; ++I)
    T[I] = entry(FModRM); // SSE/MMX arithmetic
  T[0x70] = entry(FModRM | FImm8); // PSHUFW/PSHUFD
  T[0x71] = entry(FModRM | FImm8); // PS shift group
  T[0x72] = entry(FModRM | FImm8); // PS shift group
  T[0x73] = entry(FModRM | FImm8); // PS shift group
  for (unsigned I = 0x74; I <= 0x7F; ++I)
    T[I] = entry(FModRM); // PCMPEQ/MOVD/MOVQ/EMMS
  T[0x77] = entry(FNone); // EMMS takes no ModRM
  for (unsigned I = 0x80; I <= 0x8F; ++I)
    T[I] = entry(FRelZ, InstrClass::Jcc);
  for (unsigned I = 0x90; I <= 0x9F; ++I)
    T[I] = entry(FModRM); // SETcc
  T[0xA0] = entry(FNone); // PUSH FS
  T[0xA1] = entry(FNone); // POP FS
  T[0xA2] = entry(FNone); // CPUID
  T[0xA3] = entry(FModRM); // BT
  T[0xA4] = entry(FModRM | FImm8); // SHLD imm8
  T[0xA5] = entry(FModRM); // SHLD CL
  T[0xA8] = entry(FNone); // PUSH GS
  T[0xA9] = entry(FNone); // POP GS
  T[0xAA] = entry(FNone, InstrClass::Privileged); // RSM
  T[0xAB] = entry(FModRM); // BTS
  T[0xAC] = entry(FModRM | FImm8); // SHRD imm8
  T[0xAD] = entry(FModRM); // SHRD CL
  T[0xAE] = entry(FModRM); // fences / FXSAVE group
  T[0xAF] = entry(FModRM); // IMUL r32, rm32
  T[0xB0] = entry(FModRM); // CMPXCHG rm8
  T[0xB1] = entry(FModRM); // CMPXCHG rm32
  T[0xB2] = entry(FModRM); // LSS (mod=11 invalid, refined later)
  T[0xB3] = entry(FModRM); // BTR
  T[0xB4] = entry(FModRM); // LFS (mod=11 invalid, refined later)
  T[0xB5] = entry(FModRM); // LGS (mod=11 invalid, refined later)
  T[0xB6] = entry(FModRM); // MOVZX r32, rm8
  T[0xB7] = entry(FModRM); // MOVZX r32, rm16
  T[0xB9] = entry(FModRM, InstrClass::Invalid); // UD1
  T[0xBA] = entry(FModRM | FImm8); // BT group imm8
  T[0xBB] = entry(FModRM); // BTC
  T[0xBC] = entry(FModRM); // BSF
  T[0xBD] = entry(FModRM); // BSR
  T[0xBE] = entry(FModRM); // MOVSX r32, rm8
  T[0xBF] = entry(FModRM); // MOVSX r32, rm16
  T[0xC0] = entry(FModRM); // XADD rm8
  T[0xC1] = entry(FModRM); // XADD rm32
  T[0xC2] = entry(FModRM | FImm8); // CMPPS imm8
  T[0xC3] = entry(FModRM); // MOVNTI
  T[0xC4] = entry(FModRM | FImm8); // PINSRW
  T[0xC5] = entry(FModRM | FImm8); // PEXTRW
  T[0xC6] = entry(FModRM | FImm8); // SHUFPS
  T[0xC7] = entry(FModRM); // CMPXCHG8B group
  for (unsigned I = 0xC8; I <= 0xCF; ++I)
    T[I] = entry(FNone); // BSWAP r32
  for (unsigned I = 0xD0; I <= 0xFE; ++I)
    T[I] = entry(FModRM); // MMX/SSE arithmetic block
  T[0xFF] = entry(FModRM, InstrClass::Invalid); // UD0

  return T;
}

constexpr OpTable OneByteTable = buildOneByteTable();
constexpr OpTable TwoByteTable = buildTwoByteTable();

/// Returns true if \p Byte is a legacy prefix.
constexpr bool isPrefixByte(uint8_t Byte) {
  switch (Byte) {
  case 0xF0: // LOCK
  case 0xF2: // REPNE
  case 0xF3: // REP
  case 0x2E: // CS
  case 0x36: // SS
  case 0x3E: // DS
  case 0x26: // ES
  case 0x64: // FS
  case 0x65: // GS
  case 0x66: // operand size
  case 0x67: // address size
    return true;
  default:
    return false;
  }
}

/// Consumes the ModRM byte plus SIB and displacement; returns the number
/// of bytes consumed, or 0 when truncated.
constexpr size_t modRMSize(const uint8_t *Bytes, size_t Size, bool Addr16) {
  if (Size < 1)
    return 0;
  uint8_t ModRM = Bytes[0];
  uint8_t Mod = ModRM >> 6;
  uint8_t RM = ModRM & 7;
  if (Mod == 3)
    return 1;

  if (Addr16) {
    // 16-bit addressing: no SIB; mod=00 rm=110 is disp16.
    size_t Disp = Mod == 1 ? 1 : Mod == 2 ? 2 : (RM == 6 ? 2 : 0);
    return 1 + Disp <= Size ? 1 + Disp : 0;
  }

  size_t Consumed = 1;
  size_t Disp = Mod == 1 ? 1 : Mod == 2 ? 4 : 0;
  if (RM == 4) {
    // SIB byte follows.
    if (Size < 2)
      return 0;
    uint8_t SIB = Bytes[1];
    ++Consumed;
    if (Mod == 0 && (SIB & 7) == 5)
      Disp = 4; // no-base form with disp32
  } else if (Mod == 0 && RM == 5) {
    Disp = 4; // absolute disp32
  }
  Consumed += Disp;
  return Consumed <= Size ? Consumed : 0;
}

/// Immediate, displacement and far-pointer bytes an entry with \p Flags
/// takes under the given operand and address sizes.
constexpr size_t immBytes(uint8_t Flags, bool Op16, bool Addr16) {
  size_t Bytes = 0;
  if (Flags & FImm8)
    Bytes += 1;
  if (Flags & FImm16)
    Bytes += 2;
  if (Flags & FImmZ)
    Bytes += Op16 ? 2 : 4;
  if (Flags & FRel8)
    Bytes += 1;
  if (Flags & FRelZ)
    Bytes += Op16 ? 2 : 4;
  if (Flags & FMoffs)
    Bytes += Addr16 ? 2 : 4;
  if (Flags & FFarPtr)
    Bytes += (Op16 ? 2 : 4) + 2;
  return Bytes;
}

using detail::FastRefine;

/// Per-ModRM refinements of groups and special cases: the class of
/// opcode \p Op (from the 0F map when \p TwoByte) with table class
/// \p Class once its /reg field and register form are known, and the
/// immediate bytes the refinement adds. decodeImpl applies this per
/// decode and buildFastTables compiles it into rows, so the rules live
/// here only.
constexpr FastRefine refine(bool TwoByte, uint8_t Op, uint8_t ModRM,
                            bool Op16, InstrClass Class) {
  const uint8_t ModField = ModRM >> 6;
  const uint8_t RegField = (ModRM >> 3) & 7;
  FastRefine R{Class, 0};
  if (!TwoByte) {
    switch (Op) {
    case 0x62: // BOUND: register form undefined
    case 0xC4: // LES: register form undefined
    case 0xC5: // LDS: register form undefined
    case 0x8D: // LEA: register form undefined
      if (ModField == 3)
        R.Class = InstrClass::Invalid;
      break;
    case 0x8E: // MOV sreg, rm: loading CS is undefined
      if (RegField == 1)
        R.Class = InstrClass::Invalid;
      break;
    case 0x8F: // POP rm: only /0 defined
      if (RegField != 0)
        R.Class = InstrClass::Invalid;
      break;
    case 0xC6:
    case 0xC7: // MOV rm, imm: only /0 defined
      if (RegField != 0)
        R.Class = InstrClass::Invalid;
      break;
    case 0xF6: // group 3 rm8: /0,/1 TEST take imm8
    case 0xF7: // group 3 rm32: /0,/1 TEST take immZ
      if (RegField <= 1)
        R.ExtraImm = Op == 0xF6 ? 1 : (Op16 ? 2 : 4);
      break;
    case 0xFE: // group 4: only INC/DEC rm8
      if (RegField > 1)
        R.Class = InstrClass::Invalid;
      break;
    case 0xFF: // group 5
      switch (RegField) {
      case 0:
      case 1: // INC/DEC rm32
        break;
      case 2: // CALL rm32
        R.Class = InstrClass::CallInd;
        break;
      case 3: // CALL far m16:32 (memory only)
        R.Class = ModField == 3 ? InstrClass::Invalid : InstrClass::CallInd;
        break;
      case 4: // JMP rm32
        R.Class = InstrClass::JmpInd;
        break;
      case 5: // JMP far m16:32 (memory only)
        R.Class = ModField == 3 ? InstrClass::Invalid : InstrClass::JmpInd;
        break;
      case 6: // PUSH rm32
        break;
      default: // /7 undefined
        R.Class = InstrClass::Invalid;
        break;
      }
      break;
    default:
      break;
    }
  } else {
    switch (Op) {
    case 0xB2: // LSS
    case 0xB4: // LFS
    case 0xB5: // LGS: register forms undefined
      if (ModField == 3)
        R.Class = InstrClass::Invalid;
      break;
    case 0xC7: // group 9: only CMPXCHG8B m64 (/1, memory)
      if (RegField != 1 || ModField == 3)
        R.Class = InstrClass::Invalid;
      break;
    default:
      break;
    }
  }
  return R;
}

/// True when two group rows refine every mod and /reg alike.
constexpr bool sameRow(const FastRefine (&A)[32], const FastRefine (&B)[32]) {
  for (unsigned I = 0; I != 32; ++I)
    if (A[I].Class != B[I].Class || A[I].ExtraImm != B[I].ExtraImm)
      return false;
  return true;
}

/// The prefixes decodeLenClass's fast path steps over: SS and LOCK.
constexpr uint8_t FastPrefixes[] = {0x36, 0xF0};
static_assert(std::all_of(std::begin(FastPrefixes), std::end(FastPrefixes),
                          [](uint8_t P) {
                            return isPrefixByte(P) && P != 0x66 && P != 0x67;
                          }),
              "stepped-over prefixes must be size-neutral legacy prefixes");

/// Compiles the opcode map into decodeLenClass's fast-path tables, for
/// inputs at 32-bit operand and address size and with enough bytes that
/// nothing is truncated. Each opcode's 32 classes by mod and /reg
/// (refined for ModRM opcodes, its table class repeated otherwise)
/// become a row; equal rows are shared, and constant evaluation rejects
/// more than MaxFastGroups of them. decodeImpl only counts a prefix
/// other than 0x66 and 0x67, so after SS or LOCK the same rows apply.
constexpr detail::FastTables buildFastTables() {
  using namespace detail;
  FastTables T{};
  for (const uint8_t P : FastPrefixes)
    T.StepsOver[P] = true;
  for (unsigned SibBase5 = 0; SibBase5 != 2; ++SibBase5)
    for (unsigned M = 0; M != 256; ++M) {
      const uint8_t Buf[MaxInstrLen] = {static_cast<uint8_t>(M),
                                        static_cast<uint8_t>(SibBase5 * 5)};
      T.ModRMLen[SibBase5][M] =
          static_cast<uint8_t>(modRMSize(Buf, MaxInstrLen, false));
    }
  unsigned NumGroups = 0;
  for (unsigned I = 0; I != 512; ++I) {
    const bool TwoByte = I >= 256;
    const uint8_t Op = static_cast<uint8_t>(I);
    if ((!TwoByte && (Op == 0x0F || isPrefixByte(Op))) ||
        (TwoByte && (Op == 0x38 || Op == 0x3A)))
      continue; // Fixed = 0: the escape, or the general decoder
    const OpInfo &Info = TwoByte ? TwoByteTable[Op] : OneByteTable[Op];
    const bool HasModRM = (Info.Flags & FModRM) != 0;
    FastOp &F = T.Ops[I];
    F.Fixed = static_cast<uint8_t>((TwoByte ? 2 : 1) +
                                   immBytes(Info.Flags, false, false));
    F.ModRMSel = HasModRM ? 0 : 2;
    FastRefine Row[32] = {};
    for (unsigned R = 0; R != 32; ++R)
      Row[R] = HasModRM ? refine(TwoByte, Op, static_cast<uint8_t>(R << 3),
                                 false, Info.Class)
                        : FastRefine{Info.Class, 0};
    unsigned G = 0;
    while (G != NumGroups && !sameRow(T.Groups[G], Row))
      ++G;
    if (G == NumGroups) {
      for (unsigned R = 0; R != 32; ++R)
        T.Groups[G][R] = Row[R];
      ++NumGroups;
    }
    F.Group = static_cast<uint8_t>(G);
  }
  return T;
}

} // namespace

constexpr detail::FastTables detail::Fast = buildFastTables();

namespace {

/// Longest instruction the fast path can report.
constexpr unsigned maxFastLength() {
  using namespace detail;
  unsigned Max = 0;
  for (const FastOp &F : Fast.Ops) {
    unsigned ModRMMax = 0, ExtraMax = 0;
    for (const auto &Row : {Fast.ModRMLen[F.ModRMSel],
                            Fast.ModRMLen[F.ModRMSel + 1]})
      for (unsigned M = 0; M != 256; ++M)
        ModRMMax = std::max<unsigned>(ModRMMax, Row[M]);
    for (const FastRefine &R : Fast.Groups[F.Group])
      ExtraMax = std::max<unsigned>(ExtraMax, R.ExtraImm);
    Max = std::max(Max, F.Fixed + ModRMMax + ExtraMax);
  }
  return Max;
}

// With at least FastMinBytes bytes and at most one stepped-over prefix,
// decodeImpl can neither run out of input nor exceed the architectural
// limit, so the fast path needs no bounds checks.
static_assert(1 + maxFastLength() <= detail::FastMinBytes &&
                  detail::FastMinBytes <= MaxInstrLen,
              "fast-path instructions must fit the bytes it requires");

} // namespace

static int64_t readImm(const uint8_t *Bytes, size_t Width) {
  uint32_t Value = 0;
  for (size_t I = 0; I < Width; ++I)
    Value |= static_cast<uint32_t>(Bytes[I]) << (8 * I);
  switch (Width) {
  case 1:
    return static_cast<int8_t>(Value);
  case 2:
    return static_cast<int16_t>(Value);
  default:
    return static_cast<int32_t>(Value);
  }
}

/// Shared decode body. \p WantFields selects between the full decode
/// (operand fields materialized into \p Out) and the length/class-only
/// variant behind decodeLenClass's fallback, which skips every write and
/// immediate read that does not affect (valid, Length, Class). The two
/// instantiations share all length and classification logic by
/// construction; the fast path's tables are compiled from the same
/// helpers (immBytes, modRMSize, refine), and DecoderTest pins it equal
/// to decodeInstr over every 3-byte prefix.
template <bool WantFields>
static bool decodeImpl(const uint8_t *Bytes, size_t Size, Decoded &Out) {
  if constexpr (WantFields)
    Out = Decoded();
  else {
    Out.Length = 0;
    Out.Class = InstrClass::Invalid;
  }
  if (Size == 0)
    return false;
  if (Size > MaxInstrLen)
    Size = MaxInstrLen;

  // Consume legacy prefixes.
  size_t Pos = 0;
  bool Op16 = false;
  bool Addr16 = false;
  while (Pos < Size && isPrefixByte(Bytes[Pos])) {
    if (Bytes[Pos] == 0x66)
      Op16 = true;
    if (Bytes[Pos] == 0x67)
      Addr16 = true;
    ++Pos;
  }
  if constexpr (WantFields)
    Out.NumPrefixes = static_cast<uint8_t>(Pos);
  if (Pos >= Size)
    return false; // all prefixes, no opcode

  // Fetch the opcode and its table entry.
  uint8_t Op = Bytes[Pos++];
  bool TwoByte = false;
  const OpInfo *Info;
  if (Op == 0x0F) {
    if (Pos >= Size)
      return false;
    Op = Bytes[Pos++];
    TwoByte = true;
    if constexpr (WantFields)
      Out.TwoByte = true;
    // Three-byte escapes (0F 38 / 0F 3A): SSSE3+ ModRM instructions.
    if (Op == 0x38 || Op == 0x3A) {
      bool HasImm = Op == 0x3A;
      if (Pos >= Size)
        return false;
      if constexpr (WantFields)
        Out.Opcode = Bytes[Pos]; // tertiary opcode
      ++Pos;
      size_t MSize = modRMSize(Bytes + Pos, Size - Pos, Addr16);
      if (MSize == 0)
        return false;
      if constexpr (WantFields) {
        Out.HasModRM = true;
        Out.ModRM = Bytes[Pos];
      }
      Pos += MSize;
      if (HasImm) {
        if (Pos >= Size)
          return false;
        if constexpr (WantFields) {
          Out.HasImm = true;
          Out.Imm = readImm(Bytes + Pos, 1);
        }
        ++Pos;
      }
      Out.Length = static_cast<uint8_t>(Pos);
      Out.Class = InstrClass::Normal;
      return true;
    }
    Info = &TwoByteTable[Op];
  } else {
    Info = &OneByteTable[Op];
  }
  if constexpr (WantFields)
    Out.Opcode = Op;
  Out.Class = Info->Class;

  // ModRM (+SIB +displacement).
  uint8_t ModRM = 0;
  if (Info->Flags & FModRM) {
    size_t MSize = modRMSize(Bytes + Pos, Size - Pos, Addr16);
    if (MSize == 0) {
      Out.Class = InstrClass::Invalid;
      return false;
    }
    ModRM = Bytes[Pos];
    if constexpr (WantFields) {
      Out.HasModRM = true;
      Out.ModRM = ModRM;
    }
    Pos += MSize;
  }

  // Immediates / displacements.
  const size_t ImmBytes = immBytes(Info->Flags, Op16, Addr16);
  if (Pos + ImmBytes > Size) {
    Out.Class = InstrClass::Invalid;
    return false;
  }
  if (ImmBytes != 0) {
    if constexpr (WantFields) {
      Out.HasImm = true;
      // For multi-part immediates (ENTER, far pointers) keep the first
      // component; the classifier only needs INT/RET-style immediates.
      size_t FirstWidth = ImmBytes;
      if (Info->Flags & FFarPtr)
        FirstWidth = Op16 ? 2 : 4;
      else if ((Info->Flags & FImm16) && (Info->Flags & FImm8))
        FirstWidth = 2; // ENTER imm16, imm8
      else if (FirstWidth > 4)
        FirstWidth = 4;
      Out.Imm = readImm(Bytes + Pos, FirstWidth);
    }
    Pos += ImmBytes;
  }
  if (Pos > MaxInstrLen) {
    Out.Class = InstrClass::Invalid;
    return false;
  }
  Out.Length = static_cast<uint8_t>(Pos);

  // Per-ModRM refinements of groups and special cases.
  const FastRefine R = refine(TwoByte, Op, ModRM, Op16, Out.Class);
  Out.Class = R.Class;
  if (R.ExtraImm != 0) {
    const size_t W = R.ExtraImm;
    if (Out.Length + W > Size || Out.Length + W > MaxInstrLen) {
      Out.Class = InstrClass::Invalid;
      return false;
    }
    if constexpr (WantFields) {
      Out.HasImm = true;
      Out.Imm = readImm(Bytes + Out.Length, W);
    }
    Out.Length = static_cast<uint8_t>(Out.Length + W);
  }

  return Out.Class != InstrClass::Invalid;
}

bool x86::decodeInstr(const uint8_t *Bytes, size_t Size, Decoded &Out) {
  return decodeImpl<true>(Bytes, Size, Out);
}

bool x86::detail::decodeLenClassSlow(const uint8_t *Bytes, size_t Size,
                                     uint8_t &LengthOut,
                                     InstrClass &ClassOut) {
  Decoded Scratch;
  bool Ok = decodeImpl<false>(Bytes, Size, Scratch);
  LengthOut = Scratch.Length;
  ClassOut = Scratch.Class;
  return Ok;
}
