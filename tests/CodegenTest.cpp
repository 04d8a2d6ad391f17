//===-- tests/CodegenTest.cpp - Emitter / linker / image tests --------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "codegen/Emitter.h"
#include "codegen/Layout.h"
#include "codegen/Linker.h"
#include "diversity/NopInsertion.h"
#include "driver/Driver.h"
#include "x86/Decoder.h"

#include <gtest/gtest.h>

using namespace pgsd;

namespace {

driver::Program compileOK(const char *Source, const char *Name) {
  driver::Program P = driver::compileProgram(Source, Name);
  EXPECT_TRUE(P.ok()) << P.errors();
  return P;
}

/// Linearly decodes [Begin, End) and returns false on any invalid
/// instruction (emitted code must be cleanly decodable from its start).
bool decodesLinearly(const std::vector<uint8_t> &Text, size_t Begin,
                     size_t End) {
  size_t Pos = Begin;
  while (Pos < End) {
    x86::Decoded D;
    if (!x86::decodeInstr(Text.data() + Pos, End - Pos, D))
      return false;
    Pos += D.Length;
  }
  return Pos == End;
}

} // namespace

TEST(Emitter, FunctionCodeDecodesLinearly) {
  driver::Program P = compileOK(R"(
    global g[8];
    fn f(a, b) {
      var s = a * b;
      if (s > 100) { s = s / 3; }
      while (b > 0) { s = s + g[b & 7]; b = b - 1; }
      return s;
    }
    fn main() { return f(read_int(), read_int()); }
  )",
                                "emit");
  for (const mir::MFunction &F : P.MIR.Functions) {
    codegen::FunctionCode Code = codegen::emitFunction(F, P.MIR);
    EXPECT_TRUE(decodesLinearly(Code.Bytes, 0, Code.Bytes.size()))
        << F.Name;
    EXPECT_GT(Code.Bytes.size(), 8u);
  }
}

TEST(Emitter, PrologueShape) {
  driver::Program P = compileOK(
      "fn main() { var s = 0; var i = 0; while (i < 100) { s = s + i; "
      "i = i + 1; } return s; }",
      "prologue");
  const mir::MFunction &F =
      P.MIR.Functions[static_cast<size_t>(P.MIR.EntryFunction)];
  codegen::FunctionCode Code = codegen::emitFunction(F, P.MIR);
  // push ebp; mov ebp, esp; ...
  ASSERT_GE(Code.Bytes.size(), 3u);
  EXPECT_EQ(Code.Bytes[0], 0x55);
  EXPECT_EQ(Code.Bytes[1], 0x89);
  EXPECT_EQ(Code.Bytes[2], 0xE5);
  // ...and a leave; ret in the epilogue.
  bool HasLeaveRet = false;
  for (size_t I = 0; I + 1 < Code.Bytes.size(); ++I)
    if (Code.Bytes[I] == 0xC9 && Code.Bytes[I + 1] == 0xC3)
      HasLeaveRet = true;
  EXPECT_TRUE(HasLeaveRet);
}

TEST(Emitter, EveryMirInstructionIsOneNativeInstruction) {
  // The 1:1 property the paper relies on (Section 4): count non-pseudo
  // MIR instructions (minus elided fallthrough jumps, plus prologue and
  // epilogue expansions) and compare with the decoded instruction count.
  driver::Program P = compileOK(
      "fn main() { var a = read_int(); if (a) { a = a * 3; } "
      "return a; }",
      "oneone");
  const mir::MFunction &F = P.MIR.Functions[0];
  codegen::FunctionCode Code = codegen::emitFunction(F, P.MIR);

  size_t Expected = 0;
  unsigned Saved = (F.UsesEbx ? 1 : 0) + (F.UsesEsi ? 1 : 0) +
                   (F.UsesEdi ? 1 : 0);
  Expected += 2 + (F.FrameBytes ? 1 : 0) + Saved; // prologue
  for (uint32_t B = 0; B != F.Blocks.size(); ++B)
    for (const mir::MInstr &I : F.Blocks[B].Instrs) {
      if (I.Op == mir::MOp::Jmp && static_cast<uint32_t>(I.Imm) == B + 1)
        continue; // elided fallthrough
      if (I.Op == mir::MOp::Ret)
        Expected += Saved + 2; // pops + leave + ret
      else
        Expected += 1;
    }

  size_t Decoded = 0;
  size_t Pos = 0;
  while (Pos < Code.Bytes.size()) {
    x86::Decoded D;
    ASSERT_TRUE(
        x86::decodeInstr(Code.Bytes.data() + Pos, Code.Bytes.size() - Pos, D));
    Pos += D.Length;
    ++Decoded;
  }
  EXPECT_EQ(Decoded, Expected);
}

TEST(Linker, StubComesFirstAndIsDeterministic) {
  codegen::LinkOptions Opts;
  std::array<uint32_t, ir::NumIntrinsics> IntrA{}, IntrB{};
  uint32_t MainA = 0, MainB = 0;
  auto StubA = codegen::buildRuntimeStub(IntrA, MainA, Opts);
  auto StubB = codegen::buildRuntimeStub(IntrB, MainB, Opts);
  EXPECT_EQ(StubA, StubB);
  EXPECT_EQ(IntrA, IntrB);
  EXPECT_GT(StubA.size(), 100u);
  // _start's call-to-main field sits right at the stub's start.
  EXPECT_EQ(MainA, 1u);
}

TEST(Linker, DiversifiedStubDiffers) {
  codegen::LinkOptions Plain;
  codegen::LinkOptions Div;
  Div.DiversifyStub = true;
  Div.StubSeed = 3;
  std::array<uint32_t, ir::NumIntrinsics> I1{}, I2{};
  uint32_t M1, M2;
  auto A = codegen::buildRuntimeStub(I1, M1, Plain);
  auto B = codegen::buildRuntimeStub(I2, M2, Div);
  EXPECT_NE(A, B);
  EXPECT_GT(B.size(), A.size());
}

TEST(Linker, ImageLayout) {
  driver::Program P = compileOK(
      "global g[4]; global h; "
      "fn f() { return g[0] + h; } fn main() { return f(); }",
      "layout");
  codegen::Image Img = driver::linkBaseline(P);

  EXPECT_EQ(Img.TextBase, 0x08048000u); // the paper's fixed Linux base
  EXPECT_EQ(Img.EntryOffset, 0u);
  EXPECT_GT(Img.StubSize, 0u);
  ASSERT_EQ(Img.FuncOffsets.size(), 2u);
  // Program functions come after the stub, aligned.
  for (uint32_t Off : Img.FuncOffsets) {
    EXPECT_GE(Off, Img.StubSize);
    EXPECT_EQ(Off % 16, 0u);
  }
  // Globals: g (16 bytes) then h.
  ASSERT_EQ(Img.GlobalAddrs.size(), 2u);
  EXPECT_EQ(Img.GlobalAddrs[0], codegen::GlobalsBase);
  EXPECT_EQ(Img.GlobalAddrs[1], codegen::GlobalsBase + 16);
  EXPECT_EQ(Img.GlobalsEnd, codegen::GlobalsBase + 20);
}

TEST(Linker, CallRelocationsResolve) {
  driver::Program P = compileOK(
      "fn callee() { return 7; } fn main() { return callee(); }", "reloc");
  codegen::Image Img = driver::linkBaseline(P);
  // Find the E8 rel32 inside main whose target is callee's offset.
  size_t MainOff = Img.FuncOffsets[static_cast<size_t>(P.MIR.EntryFunction)];
  int CalleeIdx = P.IR.findFunction("callee");
  ASSERT_GE(CalleeIdx, 0);
  uint32_t CalleeOff = Img.FuncOffsets[static_cast<size_t>(CalleeIdx)];
  bool Found = false;
  for (size_t I = MainOff; I + 5 <= Img.Text.size(); ++I) {
    if (Img.Text[I] != 0xE8)
      continue;
    int32_t Rel = static_cast<int32_t>(
        Img.Text[I + 1] | (Img.Text[I + 2] << 8) | (Img.Text[I + 3] << 16) |
        (static_cast<uint32_t>(Img.Text[I + 4]) << 24));
    if (I + 5 + static_cast<size_t>(Rel) == CalleeOff)
      Found = true;
  }
  EXPECT_TRUE(Found);
}

TEST(Linker, GlobalRelocationsResolve) {
  driver::Program P = compileOK(
      "global g; fn main() { g = 9; return g; }", "globreloc");
  codegen::Image Img = driver::linkBaseline(P);
  // Somewhere in the image there is a mov r32, GlobalsBase.
  bool Found = false;
  uint32_t Addr = codegen::GlobalsBase;
  for (size_t I = Img.StubSize; I + 5 <= Img.Text.size(); ++I) {
    if ((Img.Text[I] & 0xF8) != 0xB8)
      continue;
    uint32_t Imm = Img.Text[I + 1] | (Img.Text[I + 2] << 8) |
                   (Img.Text[I + 3] << 16) |
                   (static_cast<uint32_t>(Img.Text[I + 4]) << 24);
    if (Imm == Addr)
      Found = true;
  }
  EXPECT_TRUE(Found);
}

TEST(Linker, AlignmentOption) {
  driver::Program P = compileOK(
      "fn a() { return 1; } fn b() { return 2; } "
      "fn main() { return a() + b(); }",
      "align");
  codegen::LinkOptions Opts;
  Opts.FunctionAlignment = 32;
  codegen::Image Img = codegen::link(P.MIR, Opts);
  for (uint32_t Off : Img.FuncOffsets)
    EXPECT_EQ(Off % 32, 0u);
  Opts.FunctionAlignment = 1;
  codegen::Image Tight = codegen::link(P.MIR, Opts);
  EXPECT_LE(Tight.Text.size(), Img.Text.size());
}

TEST(Linker, DiversificationGrowsTextProportionally) {
  driver::Program P = compileOK(
      "fn main() { var s = 0; var i = 0; while (i < 10) { s = s + i; "
      "i = i + 1; } return s; }",
      "grow");
  codegen::Image Base = driver::linkBaseline(P);
  driver::Variant V = driver::makeVariant(
      P, diversity::DiversityOptions::uniform(0.5), 1);
  EXPECT_GT(V.Image.Text.size(), Base.Text.size());
  // Expected growth: ~p * sites * avg-NOP-size(1.8B), program part only.
  double Growth = static_cast<double>(V.Image.Text.size()) -
                  static_cast<double>(Base.Text.size());
  double Expected =
      0.5 * static_cast<double>(V.Pipeline.Nop.NopsInserted) * 1.8 /
      0.5; // == NopsInserted * 1.8
  EXPECT_NEAR(Growth, Expected, Expected * 0.5 + 32.0);
}

TEST(Linker, StubIdenticalAcrossVariants) {
  // The undiversified C runtime must be byte-identical in every variant
  // (the paper's explanation for the constant surviving-gadget floor).
  driver::Program P = compileOK("fn main() { return 0; }", "stub");
  driver::Variant V1 = driver::makeVariant(
      P, diversity::DiversityOptions::uniform(0.5), 1);
  driver::Variant V2 = driver::makeVariant(
      P, diversity::DiversityOptions::uniform(0.5), 2);
  ASSERT_EQ(V1.Image.StubSize, V2.Image.StubSize);
  for (uint32_t I = 0; I != V1.Image.StubSize; ++I)
    ASSERT_EQ(V1.Image.Text[I], V2.Image.Text[I]) << "stub byte " << I;
}
