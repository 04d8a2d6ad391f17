//===-- verify/FaultInjector.cpp - Verification self-test harness ----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "verify/FaultInjector.h"

#include "codegen/Emitter.h"
#include "x86/Nops.h"

#include <algorithm>

using namespace pgsd;
using namespace pgsd::verify;
using namespace pgsd::mir;

const char *verify::faultClassName(FaultClass Class) {
  switch (Class) {
  case FaultClass::TextBitFlip:
    return "text-bit-flip";
  case FaultClass::DroppedRelocation:
    return "dropped-relocation";
  case FaultClass::MangledBranchTarget:
    return "mangled-branch-target";
  case FaultClass::WrongLengthNop:
    return "wrong-length-nop";
  case FaultClass::CorruptProfileCount:
    return "corrupt-profile-count";
  case FaultClass::TruncatedText:
    return "truncated-text";
  }
  return "unknown";
}

bool FaultInjector::inject(FaultClass Class, MModule &Variant,
                           codegen::Image &Image) {
  switch (Class) {
  case FaultClass::TextBitFlip:
    return flipTextBit(Image);
  case FaultClass::DroppedRelocation:
    return dropRelocation(Variant, Image);
  case FaultClass::MangledBranchTarget:
    return mangleBranchTarget(Variant, Image);
  case FaultClass::WrongLengthNop:
    return mangleNopLength(Image);
  case FaultClass::CorruptProfileCount:
    return corruptProfileCount(Variant);
  case FaultClass::TruncatedText:
    return truncateText(Image);
  }
  return false;
}

bool FaultInjector::flipTextBit(codegen::Image &Image) {
  if (Image.Text.empty())
    return false;
  size_t Off = static_cast<size_t>(Gen.nextBelow(Image.Text.size()));
  Image.Text[Off] ^= static_cast<uint8_t>(1u << Gen.nextBelow(8));
  return true;
}

bool FaultInjector::dropRelocation(const MModule &Variant,
                                   codegen::Image &Image) {
  // Recover the relocation sites by re-emitting each function: the
  // emitter is deterministic, so its reloc records name exactly the
  // 32-bit fields the linker patched.
  std::vector<uint32_t> Fields;
  for (size_t F = 0; F != Variant.Functions.size(); ++F) {
    codegen::FunctionCode Code =
        codegen::emitFunction(Variant.Functions[F]);
    for (const codegen::Reloc &R : Code.Relocs)
      Fields.push_back(Image.FuncOffsets[F] + R.Offset);
  }
  if (Fields.empty())
    return false;
  // Revert one patched field to the unlinked placeholder (zero), as if
  // the linker skipped it. Skip fields that already hold zero (a rel32
  // to the lexically next instruction) -- reverting those is a no-op.
  size_t Start = static_cast<size_t>(Gen.nextBelow(Fields.size()));
  for (size_t I = 0; I != Fields.size(); ++I) {
    uint32_t At = Fields[(Start + I) % Fields.size()];
    if (At + 4 > Image.Text.size())
      continue;
    bool AllZero = Image.Text[At] == 0 && Image.Text[At + 1] == 0 &&
                   Image.Text[At + 2] == 0 && Image.Text[At + 3] == 0;
    if (AllZero)
      continue;
    std::fill(Image.Text.begin() + At, Image.Text.begin() + At + 4, 0);
    return true;
  }
  return false;
}

bool FaultInjector::mangleBranchTarget(MModule &Variant,
                                       codegen::Image &Image) {
  struct Site {
    uint32_t Func, Block, Instr;
  };
  std::vector<Site> Sites;
  for (uint32_t F = 0; F != Variant.Functions.size(); ++F) {
    const MFunction &Fn = Variant.Functions[F];
    if (Fn.Blocks.size() < 2)
      continue; // Retargeting needs a different block to aim at.
    for (uint32_t B = 0; B != Fn.Blocks.size(); ++B)
      for (uint32_t I = 0; I != Fn.Blocks[B].Instrs.size(); ++I) {
        MOp Op = Fn.Blocks[B].Instrs[I].Op;
        if (Op == MOp::Jmp || Op == MOp::Jcc)
          Sites.push_back({F, B, I});
      }
  }
  if (Sites.empty())
    return false;
  const Site &S = Sites[static_cast<size_t>(Gen.nextBelow(Sites.size()))];
  MFunction &Fn = Variant.Functions[S.Func];
  MInstr &Br = Fn.Blocks[S.Block].Instrs[S.Instr];
  Br.Imm = static_cast<int32_t>((static_cast<uint32_t>(Br.Imm) + 1) %
                                Fn.Blocks.size());
  // Keep the pair coherent: the image honestly encodes the corrupted
  // MIR, so detection must come from the prover or differential
  // execution rather than a trivial MIR/image byte disagreement.
  Image = codegen::link(Variant, Link);
  return true;
}

bool FaultInjector::mangleNopLength(codegen::Image &Image) {
  // Find the two-byte Table 1 NOP encodings present in the image and
  // replace one with two one-byte NOPs: same length budget, wrong
  // sequence -- the image no longer matches its MIR's NOP stream.
  std::vector<size_t> Sites;
  for (size_t Off = 0; Off + 1 < Image.Text.size(); ++Off) {
    x86::NopKind Kind;
    if (x86::matchNopAt(Image.Text.data() + Off, 2, /*IncludeXchg=*/true,
                        Kind) &&
        x86::nopInfo(Kind).Length == 2)
      Sites.push_back(Off);
  }
  if (Sites.empty())
    return false;
  size_t Off = Sites[static_cast<size_t>(Gen.nextBelow(Sites.size()))];
  Image.Text[Off] = 0x90;
  Image.Text[Off + 1] = 0x90;
  return true;
}

bool FaultInjector::corruptProfileCount(MModule &Variant) {
  struct Site {
    uint32_t Func, Block;
  };
  std::vector<Site> Sites;
  for (uint32_t F = 0; F != Variant.Functions.size(); ++F)
    for (uint32_t B = 1; B < Variant.Functions[F].Blocks.size(); ++B)
      Sites.push_back({F, B});
  if (Sites.empty())
    return false;
  const Site &S = Sites[static_cast<size_t>(Gen.nextBelow(Sites.size()))];
  MFunction &Fn = Variant.Functions[S.Func];
  // Flow conservation bounds a non-entry block by the sum of its
  // predecessors; exceed that bound so the count is provably impossible.
  // u128 so summed u64 counts cannot wrap (GCC/Clang extension; the
  // __extension__ marker keeps -Wpedantic quiet about it).
  __extension__ typedef unsigned __int128 u128;
  u128 PredSum = 0;
  for (uint32_t B = 0; B != Fn.Blocks.size(); ++B)
    for (uint32_t Succ : Fn.successors(B))
      if (Succ == S.Block)
        PredSum += Fn.Blocks[B].ProfileCount;
  u128 Bogus = PredSum + 1000;
  Fn.Blocks[S.Block].ProfileCount =
      Bogus > UINT64_MAX ? UINT64_MAX
                         : static_cast<uint64_t>(Bogus);
  return true;
}

bool FaultInjector::truncateText(codegen::Image &Image) {
  if (Image.Text.size() < 2)
    return false;
  uint64_t MaxCut = std::min<uint64_t>(15, Image.Text.size() - 1);
  size_t Cut = 1 + static_cast<size_t>(Gen.nextBelow(MaxCut));
  Image.Text.resize(Image.Text.size() - Cut);
  return true;
}
