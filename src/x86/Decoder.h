//===-- x86/Decoder.h - IA-32 instruction-stream decoder --------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A general IA-32 length decoder and instruction classifier.
///
/// The gadget scanner (paper Section 5.2) decodes the .text section at
/// *arbitrary byte offsets* -- x86 is densely encoded, so most offsets
/// yield some valid instruction sequence. This decoder therefore covers
/// the full one-byte opcode map and the common two-byte (0F) map,
/// including prefixes, ModRM/SIB forms, and 16-bit address-size
/// fallbacks. It reports:
///
///   * the instruction length (to advance the scan),
///   * a classification (normal / control flow kinds / privileged /
///     invalid) used to validate gadget candidates: a candidate must
///     "decompile to valid x86 code having no control-flow instructions
///     except a free branch at the end" (paper Section 5.2), and
///   * raw fields (opcode, ModRM, immediate) used by the semantic gadget
///     classifier in the attack-feasibility checker.
///
/// Undefined opcodes and opcodes that fault outside ring 0 (IN/OUT, HLT,
/// CLI, ...) are flagged so the scanner can reject sequences an attacker
/// could not execute -- the same property the paper exploits when picking
/// NOP candidates whose second byte decodes to IN.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_X86_DECODER_H
#define PGSD_X86_DECODER_H

#include <cstddef>
#include <cstdint>

namespace pgsd {
namespace x86 {

/// Coarse classification of a decoded instruction.
enum class InstrClass : uint8_t {
  Normal,     ///< No control-flow or privilege effect.
  Ret,        ///< RET (C3) -- free branch.
  RetImm,     ///< RET imm16 (C2) -- free branch.
  RetFar,     ///< RETF / RETF imm16 -- free branch (rarely useful).
  CallRel,    ///< CALL rel32 -- direct control flow.
  CallInd,    ///< CALL r/m32 (FF /2, /3) -- free branch.
  JmpRel,     ///< JMP rel8/rel32, direct far jump.
  JmpInd,     ///< JMP r/m32 (FF /4, /5) -- free branch.
  Jcc,        ///< Conditional branch (70+cc rel8, 0F 80+cc rel32).
  Loop,       ///< LOOP/LOOPE/LOOPNE/JCXZ rel8.
  IntN,       ///< INT imm8 / INT3 / INTO / SYSENTER -- software interrupt.
  Privileged, ///< Faults outside ring 0 (IN/OUT/HLT/CLI/...).
  Invalid,    ///< Undefined encoding or truncated instruction.
};

/// Result of decoding one instruction.
struct Decoded {
  uint8_t Length = 0;        ///< Total length in bytes (prefixes included).
  InstrClass Class = InstrClass::Invalid;
  uint8_t Opcode = 0;        ///< Primary opcode byte (after prefixes).
  bool TwoByte = false;      ///< True when the opcode came from the 0F map.
  bool HasModRM = false;
  uint8_t ModRM = 0;
  bool HasImm = false;
  int64_t Imm = 0;           ///< Sign-extended immediate, when present.
  uint8_t NumPrefixes = 0;

  /// ModRM field accessors (only meaningful when HasModRM).
  uint8_t modField() const { return ModRM >> 6; }
  uint8_t regField() const { return (ModRM >> 3) & 7; }
  uint8_t rmField() const { return ModRM & 7; }

  /// True for the "free branch" kinds the paper's scanner accepts as
  /// gadget terminators: "returns, indirect calls, or jumps".
  constexpr bool isFreeBranch() const {
    return Class == InstrClass::Ret || Class == InstrClass::RetImm ||
           Class == InstrClass::RetFar || Class == InstrClass::CallInd ||
           Class == InstrClass::JmpInd;
  }

  /// True for any control-transfer instruction (free or direct).
  bool isControlFlow() const {
    switch (Class) {
    case InstrClass::Ret:
    case InstrClass::RetImm:
    case InstrClass::RetFar:
    case InstrClass::CallRel:
    case InstrClass::CallInd:
    case InstrClass::JmpRel:
    case InstrClass::JmpInd:
    case InstrClass::Jcc:
    case InstrClass::Loop:
    case InstrClass::IntN:
      return true;
    case InstrClass::Normal:
    case InstrClass::Privileged:
    case InstrClass::Invalid:
      return false;
    }
    return false;
  }

  /// True when the instruction can appear inside a usable gadget body.
  constexpr bool isUsableBody() const { return Class == InstrClass::Normal; }
};

/// Architectural maximum instruction length; decodeInstr rejects longer
/// encodings, so every valid length is in [1, MaxInstrLen].
constexpr size_t MaxInstrLen = 15;

/// Decodes the instruction starting at \p Bytes (at most \p Size bytes).
///
/// \returns false when the bytes are not a valid instruction (undefined
/// opcode, truncated, or over the 15-byte architectural limit); \p Out is
/// still filled with Class == Invalid in that case.
bool decodeInstr(const uint8_t *Bytes, size_t Size, Decoded &Out);

namespace detail {

// Tables behind decodeLenClass's fast path. Decoder.cpp derives every
// entry at compile time from the one opcode map (its OneByteTable and
// TwoByteTable) and from the ModRM sizing and group-refinement rules
// decodeInstr itself runs, so they are a compiled form of that map, not
// a second one.

/// One opcode's descriptor, for 32-bit operand and address size.
struct FastOp {
  /// Opcode plus immediate bytes; 0 sends the input to the general
  /// decoder (legacy prefixes, 0F 38, 0F 3A; 0F itself is the escape).
  uint8_t Fixed = 0;
  /// First FastTables::ModRMLen row: 0 with a ModRM byte, 2 (zeros)
  /// without one.
  uint8_t ModRMSel = 0;
  /// FastTables::Groups row: the opcode's refinements by mod and /reg,
  /// or a row repeating its table class when it has none.
  uint8_t Group = 0;
};

/// One cell of a group row: the class after the /reg and register-form
/// rules, and the immediate bytes they add (group 3's TEST).
struct FastRefine {
  InstrClass Class = InstrClass::Invalid;
  uint8_t ExtraImm = 0;
};

/// Distinct group rows the builder may produce (checked statically).
constexpr unsigned MaxFastGroups = 32;

struct FastTables {
  /// [0, 256): one-byte map; [256, 512): the 0F map.
  FastOp Ops[512];
  /// True for the legacy prefixes the fast path steps over, SS (0x36)
  /// and LOCK (0xF0). Neither changes operand or address size, so the
  /// instruction after one decodes by the same rows, one byte longer.
  /// They are the prefixes a scan meets most: 0x36 is the second byte
  /// of Table 1's LEA ESI, [ESI].
  bool StepsOver[256];
  /// ModRM + SIB + displacement bytes, indexed by [FastOp::ModRMSel +
  /// (SIB base == 5)][ModRM]: row 1 adds the disp32 of a no-base SIB;
  /// rows 2 and 3 are zero, for opcodes without ModRM.
  uint8_t ModRMLen[4][256];
  /// Indexed by [FastOp::Group][ModRM >> 3], i.e. by mod and /reg.
  FastRefine Groups[MaxFastGroups][32];
};

extern const FastTables Fast;

/// Fewest bytes the fast path needs: with at most one stepped-over
/// prefix and 32-bit sizes no instruction is longer, so nothing it
/// decodes can be truncated.
constexpr size_t FastMinBytes = 15;

/// The general decoder's length/class entry (decodeInstr's template).
bool decodeLenClassSlow(const uint8_t *Bytes, size_t Size,
                        uint8_t &LengthOut, InstrClass &ClassOut);

/// The fast path for the opcode at \p Opcode, which follows \p Prefix
/// stepped-over prefix bytes: false when the opcode is not in the
/// tables, else the triple in \p Valid, \p LengthOut and \p ClassOut.
/// Opcodes without ModRM read the next bytes too, into zero lengths and
/// their class's identity row.
[[gnu::always_inline]] inline bool
decodeFast(const uint8_t *Opcode, unsigned Prefix, bool &Valid,
           uint8_t &LengthOut, InstrClass &ClassOut) {
  const unsigned Escape = Opcode[0] == 0x0F;
  const FastOp &Op = Fast.Ops[Escape ? 256 + Opcode[1] : Opcode[0]];
  if (Op.Fixed == 0)
    return false;
  const uint8_t *ModRM = Opcode + 1 + Escape;
  const FastRefine &R = Fast.Groups[Op.Group][ModRM[0] >> 3];
  LengthOut = static_cast<uint8_t>(
      Prefix + Op.Fixed + R.ExtraImm +
      Fast.ModRMLen[Op.ModRMSel + ((ModRM[1] & 7) == 5)][ModRM[0]]);
  ClassOut = R.Class;
  Valid = R.Class != InstrClass::Invalid;
  return true;
}

} // namespace detail

/// Length/class-only decode for bulk scanning: the same (valid, Length,
/// Class) triple as decodeInstr for every byte string, without operand
/// fields or immediate values. Inputs with at least 15 bytes, no 0F 38
/// / 0F 3A escape and no legacy prefix take three table lookups in
/// detail::Fast and no branch on the bytes beyond that test. A leading
/// SS or LOCK prefix costs one more test and runs the same lookups from
/// the next byte, so the common case pays nothing for it; every other
/// input runs decodeInstr's own template. DecoderTest pins the two equal
/// over every 3-byte prefix, bare and after SS or LOCK. Inline so the
/// gadget scanner, which calls it once per image offset, pays no call on
/// the fast path.
inline bool decodeLenClass(const uint8_t *Bytes, size_t Size,
                           uint8_t &LengthOut, InstrClass &ClassOut) {
  using namespace detail;
  if (Size >= FastMinBytes) {
    bool Valid = false;
    if (decodeFast(Bytes, 0, Valid, LengthOut, ClassOut) ||
        (Fast.StepsOver[Bytes[0]] &&
         decodeFast(Bytes + 1, 1, Valid, LengthOut, ClassOut)))
      return Valid;
  }
  return decodeLenClassSlow(Bytes, Size, LengthOut, ClassOut);
}

} // namespace x86
} // namespace pgsd

#endif // PGSD_X86_DECODER_H
