//===-- gadget/Attack.cpp - ROP attack feasibility checking ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "gadget/Attack.h"

#include "x86/Decoder.h"
#include "x86/Nops.h"

#include <unordered_set>

using namespace pgsd;
using namespace pgsd::gadget;
using x86::Decoded;

namespace {

/// A NOP-normalized, fully decoded gadget body.
struct NormalizedGadget {
  std::vector<Decoded> Instrs; ///< Without NOPs; terminator last.
  uint32_t Bytes = 0;          ///< Normalized byte length.
};

bool normalizeAt(const uint8_t *Text, size_t Size, uint32_t Offset,
                 const ImageScan &Scan, const ScanOptions &Opts,
                 std::vector<std::pair<uint32_t, uint8_t>> &Raw,
                 NormalizedGadget &Out) {
  if (!Scan.instructionsAt(Offset, Raw))
    return false;
  Out.Instrs.clear();
  Out.Bytes = 0;
  for (const auto &[At, Len] : Raw) {
    x86::NopKind Kind;
    if (x86::matchNopAt(Text + At, Len, Opts.IncludeXchgNops, Kind) &&
        x86::nopInfo(Kind).Length == Len)
      continue;
    Decoded D;
    bool OK = x86::decodeInstr(Text + At, Size - At, D);
    if (!OK && D.Class != x86::InstrClass::IntN)
      return false;
    Out.Instrs.push_back(D);
    Out.Bytes += Len;
  }
  return !Out.Instrs.empty();
}

/// Classifies a normalized gadget into a ROP-VM operation. Only simple,
/// directly chainable shapes count; anything else is Other.
ClassifiedGadget classify(const NormalizedGadget &G, uint32_t Offset) {
  ClassifiedGadget Result;
  Result.Offset = Offset;
  Result.ByteLength = G.Bytes;

  const Decoded &Term = G.Instrs.back();
  size_t BodyLen = G.Instrs.size() - 1;

  // Syscall gadget: INT 0x80 or SYSENTER as terminator with an empty
  // body (attacker sets registers with other gadgets first).
  if (Term.Class == x86::InstrClass::IntN) {
    bool IsInt80 = !Term.TwoByte && Term.Opcode == 0xCD &&
                   (Term.Imm & 0xFF) == 0x80;
    bool IsSysenter = Term.TwoByte && Term.Opcode == 0x34;
    if ((IsInt80 || IsSysenter) && BodyLen == 0) {
      Result.Class = GadgetClass::Syscall;
      return Result;
    }
    Result.Class = GadgetClass::Other;
    return Result;
  }

  // Payload gadgets must end in a plain near return to chain.
  bool PlainRet = Term.Class == x86::InstrClass::Ret ||
                  Term.Class == x86::InstrClass::RetImm;
  if (!PlainRet || BodyLen != 1) {
    Result.Class = GadgetClass::Other;
    return Result;
  }

  const Decoded &I = G.Instrs[0];
  if (I.TwoByte || I.NumPrefixes != 0) {
    Result.Class = GadgetClass::Other;
    return Result;
  }

  // pop r32; ret
  if (I.Opcode >= 0x58 && I.Opcode <= 0x5F) {
    Result.Class = GadgetClass::PopReg;
    Result.Dst = I.Opcode - 0x58;
    return Result;
  }
  // xchg eax, r32; ret
  if (I.Opcode >= 0x91 && I.Opcode <= 0x97) {
    Result.Class = GadgetClass::MoveReg;
    Result.Dst = 0;
    Result.Src = I.Opcode - 0x90;
    return Result;
  }
  if (I.HasModRM) {
    uint8_t Mod = I.modField();
    uint8_t RegF = I.regField();
    uint8_t RM = I.rmField();
    // mov [r], r'; ret  (89 /r, register-indirect with no SIB/disp)
    if (I.Opcode == 0x89 && Mod == 0 && RM != 4 && RM != 5) {
      Result.Class = GadgetClass::StoreMem;
      Result.Dst = RM;
      Result.Src = RegF;
      return Result;
    }
    // mov r, [r']; ret  (8B /r)
    if (I.Opcode == 0x8B && Mod == 0 && RM != 4 && RM != 5) {
      Result.Class = GadgetClass::LoadMem;
      Result.Dst = RegF;
      Result.Src = RM;
      return Result;
    }
    // mov r, r'; ret (89/8B mod=11) or xchg r, r' (87 mod=11)
    if ((I.Opcode == 0x89 || I.Opcode == 0x8B || I.Opcode == 0x87) &&
        Mod == 3) {
      Result.Class = GadgetClass::MoveReg;
      if (I.Opcode == 0x8B) {
        Result.Dst = RegF;
        Result.Src = RM;
      } else {
        Result.Dst = RM;
        Result.Src = RegF;
      }
      return Result;
    }
    // add/or/and/sub/xor r, r'; ret (register forms)
    if (Mod == 3) {
      switch (I.Opcode) {
      case 0x01: // add
      case 0x09: // or
      case 0x21: // and
      case 0x29: // sub
      case 0x31: // xor
        Result.Class = GadgetClass::ArithReg;
        Result.Dst = RM;
        Result.Src = RegF;
        return Result;
      case 0x03:
      case 0x0B:
      case 0x23:
      case 0x2B:
      case 0x33:
        Result.Class = GadgetClass::ArithReg;
        Result.Dst = RegF;
        Result.Src = RM;
        return Result;
      default:
        break;
      }
    }
  }
  Result.Class = GadgetClass::Other;
  return Result;
}

} // namespace

std::vector<ClassifiedGadget>
gadget::classifyGadgets(const uint8_t *Text, size_t Size,
                        const ScanOptions &Opts) {
  // Attack tooling wants syscall-terminated gadgets too.
  ScanOptions AttackOpts = Opts;
  AttackOpts.IncludeSyscallGadgets = true;

  // One decode-once scan answers "is there a gadget here" and yields
  // instruction boundaries for every offset; only the non-NOP
  // instructions of actual gadgets are re-decoded for classification.
  ImageScan Scan(Text, Size, AttackOpts);
  std::vector<ClassifiedGadget> Result;
  std::vector<std::pair<uint32_t, uint8_t>> Raw;
  NormalizedGadget G;
  for (size_t Offset = 0; Offset < Size; ++Offset) {
    if (!normalizeAt(Text, Size, static_cast<uint32_t>(Offset), Scan,
                     AttackOpts, Raw, G))
      continue;
    ClassifiedGadget C = classify(G, static_cast<uint32_t>(Offset));
    Result.push_back(C);
  }
  return Result;
}

AttackOutcome gadget::checkAttack(const std::vector<ClassifiedGadget> &Gadgets,
                                  AttackModel Model) {
  AttackOutcome Out;
  // The microgadget model only accepts gadgets of at most 3 bytes.
  uint32_t MaxBytes = Model == AttackModel::Microgadget ? 3 : ~0u;

  bool PopReg[8] = {false};
  bool MoveEdge[8][8] = {{false}};
  bool HaveStore = false;
  bool HaveSyscall = false;

  for (const ClassifiedGadget &G : Gadgets) {
    if (G.ByteLength > MaxBytes)
      continue;
    switch (G.Class) {
    case GadgetClass::PopReg:
      PopReg[G.Dst & 7] = true;
      ++Out.NumPop;
      break;
    case GadgetClass::StoreMem:
      HaveStore = true;
      ++Out.NumStore;
      break;
    case GadgetClass::Syscall:
      HaveSyscall = true;
      ++Out.NumSyscall;
      break;
    case GadgetClass::MoveReg:
      MoveEdge[G.Src & 7][G.Dst & 7] = true;
      // XCHG moves both ways.
      MoveEdge[G.Dst & 7][G.Src & 7] = true;
      ++Out.NumMove;
      break;
    case GadgetClass::ArithReg:
      ++Out.NumArith;
      break;
    case GadgetClass::LoadMem:
    case GadgetClass::Other:
      break;
    }
  }

  // A register is controllable if it can be popped directly or reached
  // from a poppable register through register-move gadgets (closure).
  bool Controllable[8];
  for (unsigned R = 0; R != 8; ++R)
    Controllable[R] = PopReg[R];
  for (unsigned Iter = 0; Iter != 8; ++Iter)
    for (unsigned S = 0; S != 8; ++S)
      if (Controllable[S])
        for (unsigned D = 0; D != 8; ++D)
          if (MoveEdge[S][D])
            Controllable[D] = true;

  // execve-style payload: EAX = syscall number, EBX/ECX/EDX = arguments,
  // a store to build the path string, and a syscall trigger.
  auto Need = [&](bool Have, const char *What) {
    if (Have)
      return;
    if (!Out.Missing.empty())
      Out.Missing += ", ";
    Out.Missing += What;
  };
  Need(Controllable[0], "control of EAX");
  Need(Controllable[3], "control of EBX");
  Need(Controllable[1], "control of ECX");
  Need(Controllable[2], "control of EDX");
  Need(HaveStore, "memory-store gadget");
  Need(HaveSyscall, "syscall gadget");
  Out.Feasible = Out.Missing.empty();
  return Out;
}

AttackOutcome gadget::checkAttackOnImage(const std::vector<uint8_t> &Text,
                                         AttackModel Model,
                                         const ScanOptions &Opts) {
  return checkAttack(classifyGadgets(Text.data(), Text.size(), Opts), Model);
}

std::vector<ClassifiedGadget>
gadget::filterToSurvivors(const std::vector<ClassifiedGadget> &Gadgets,
                          const std::vector<SurvivingGadget> &Survivors) {
  std::unordered_set<uint32_t> Offsets;
  Offsets.reserve(Survivors.size());
  for (const SurvivingGadget &S : Survivors)
    Offsets.insert(S.Offset);
  std::vector<ClassifiedGadget> Result;
  for (const ClassifiedGadget &G : Gadgets)
    if (Offsets.count(G.Offset))
      Result.push_back(G);
  return Result;
}
