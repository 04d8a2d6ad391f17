//===-- tests/CodegenTest.cpp - Emitter / linker / image tests --------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "bench/Experiments.h"
#include "codegen/Emitter.h"
#include "codegen/Layout.h"
#include "codegen/Linker.h"
#include "diversity/NopInsertion.h"
#include "driver/Driver.h"
#include "workloads/Workloads.h"
#include "x86/Decoder.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>

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
    codegen::FunctionCode Code = codegen::emitFunction(F);
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
  codegen::FunctionCode Code = codegen::emitFunction(F);
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
  codegen::FunctionCode Code = codegen::emitFunction(F);

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

// --- the splice: NOP-only variants from their baseline's encoding --------

namespace {

/// Every field of an Image, compared one by one so a failure names it.
void expectSameImage(const codegen::Image &Got, const codegen::Image &Want,
                     const std::string &What) {
  EXPECT_EQ(Got.Text, Want.Text) << What;
  EXPECT_EQ(Got.TextBase, Want.TextBase) << What;
  EXPECT_EQ(Got.FuncOffsets, Want.FuncOffsets) << What;
  EXPECT_EQ(Got.EntryOffset, Want.EntryOffset) << What;
  EXPECT_EQ(Got.StubSize, Want.StubSize) << What;
  EXPECT_EQ(Got.IntrinsicOffsets, Want.IntrinsicOffsets) << What;
  EXPECT_EQ(Got.GlobalAddrs, Want.GlobalAddrs) << What;
  EXPECT_EQ(Got.GlobalsEnd, Want.GlobalsEnd) << What;
}

/// Each link configuration the splice must reproduce.
std::vector<std::pair<const char *, codegen::LinkOptions>> linkConfigs() {
  codegen::LinkOptions Packed;
  Packed.FunctionAlignment = 1;
  codegen::LinkOptions Wide;
  Wide.FunctionAlignment = 64;
  codegen::LinkOptions Stub;
  Stub.DiversifyStub = true;
  return {{"default", codegen::LinkOptions()},
          {"align 1", Packed},
          {"align 64", Wide},
          {"diversified stub", Stub}};
}

} // namespace

// The spliced image of a {nop} variant equals the emitter's link of its
// MIR, whole Image, across the suite, the five paper configurations,
// four seeds, both NOP candidate sets and four link configurations; and
// every function really is spliced (none falls back to the emitter),
// with the emitter's relocations and branch fields.
TEST(Splice, ImageEqualsTheEmittersLinkAcrossTheSuite) {
  const std::vector<experiments::Config> Configs =
      experiments::paperConfigs();
  const auto Links = linkConfigs();
  for (const workloads::Workload &W : workloads::specSuite()) {
    SCOPED_TRACE(W.Name);
    driver::Program P = compileOK(W.Source.c_str(), W.Name.c_str());
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
    const std::vector<codegen::FunctionCode> *Base = P.Code.get(P.MIR);
    ASSERT_NE(Base, nullptr);
    for (const experiments::Config &C : Configs)
      for (bool Xchg : {false, true})
        for (uint64_t Seed = 1; Seed != 5; ++Seed) {
          diversity::DiversityOptions Opts = C.Opts;
          Opts.IncludeXchgNops = Xchg;
          const std::string What = C.Label + (Xchg ? " xchg" : "") +
                                   " seed " + std::to_string(Seed);
          const mir::MModule V = diversity::Pipeline().run(P.MIR, Opts, Seed);
          for (size_t F = 0; F != V.Functions.size(); ++F) {
            codegen::FunctionCode Spliced;
            ASSERT_TRUE(codegen::spliceFunction(V.Functions[F],
                                                P.MIR.Functions[F],
                                                (*Base)[F], Spliced))
                << What << " function " << F;
            const codegen::FunctionCode Emitted =
                codegen::emitFunction(V.Functions[F]);
            ASSERT_EQ(Spliced.Bytes, Emitted.Bytes) << What;
            ASSERT_EQ(Spliced.Relocs.size(), Emitted.Relocs.size());
            for (size_t R = 0; R != Spliced.Relocs.size(); ++R) {
              EXPECT_EQ(Spliced.Relocs[R].Kind, Emitted.Relocs[R].Kind);
              EXPECT_EQ(Spliced.Relocs[R].Offset, Emitted.Relocs[R].Offset);
              EXPECT_EQ(Spliced.Relocs[R].Index, Emitted.Relocs[R].Index);
            }
            ASSERT_EQ(Spliced.Fixups.size(), Emitted.Fixups.size());
            for (size_t X = 0; X != Spliced.Fixups.size(); ++X) {
              EXPECT_EQ(Spliced.Fixups[X].FieldOffset,
                        Emitted.Fixups[X].FieldOffset);
              EXPECT_EQ(Spliced.Fixups[X].TargetBlock,
                        Emitted.Fixups[X].TargetBlock);
            }
          }
          for (const auto &[Name, Link] : Links) {
            driver::Variant Made = driver::makeVariant(P, Opts, Seed, Link);
            expectSameImage(Made.Image, codegen::link(V, Link),
                            What + ", " + Name);
          }
        }
  }
}

// spliceFunction refuses what does not line up with its baseline rather
// than producing wrong bytes; linkSpliced then emits that function.
TEST(Splice, RefusesWhatIsNotItsBaselinePlusNops) {
  driver::Program P = compileOK(R"(
    fn f(a) { if (a > 3) { return a * 2; } return a - 1; }
    fn main() { return f(read_int()); }
  )",
                                "refuse");
  const std::vector<codegen::FunctionCode> &Base = *P.Code.get(P.MIR);
  const mir::MFunction &F = P.MIR.Functions[0];
  codegen::FunctionCode Out;
  ASSERT_TRUE(codegen::spliceFunction(F, F, Base[0], Out));
  EXPECT_EQ(Out.Bytes, Base[0].Bytes);

  mir::MInstr Nop; // A default MInstr is a NOP.
  mir::MFunction ExtraInstr = F;
  ExtraInstr.Blocks[0].Instrs.insert(ExtraInstr.Blocks[0].Instrs.begin(),
                                     F.Blocks[0].Instrs.front());
  EXPECT_FALSE(codegen::spliceFunction(ExtraInstr, F, Base[0], Out));

  mir::MFunction ExtraBlock = F;
  ExtraBlock.Blocks.push_back(F.Blocks.back());
  EXPECT_FALSE(codegen::spliceFunction(ExtraBlock, F, Base[0], Out));

  mir::MFunction OtherFrame = F;
  OtherFrame.FrameBytes += 4;
  EXPECT_FALSE(codegen::spliceFunction(OtherFrame, F, Base[0], Out));

  // A baseline with a NOP of its own is refused even for itself.
  mir::MFunction WithNop = F;
  WithNop.Blocks[0].Instrs.insert(WithNop.Blocks[0].Instrs.begin(), Nop);
  const codegen::FunctionCode WithNopCode = codegen::emitFunction(WithNop);
  EXPECT_FALSE(codegen::spliceFunction(WithNop, WithNop, WithNopCode, Out));

  // linkSpliced emits what it cannot splice: still the emitter's image.
  mir::MModule Mixed = P.MIR;
  Mixed.Functions[0] = ExtraInstr;
  expectSameImage(codegen::linkSpliced(Mixed, P.MIR, Base),
                  codegen::link(Mixed), "mixed");
}

// Batch and serve workers share one Program, so the first use of its
// baseline encoding can come from several threads at once: four threads
// splice variants of one fresh Program together, and each image must
// equal the emitter's.
TEST(Splice, ConcurrentFirstUseOfOneProgram) {
  const workloads::Workload &W = workloads::specSuite().front();
  driver::Program P = compileOK(W.Source.c_str(), W.Name.c_str());
  ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
  const auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  constexpr unsigned Threads = 4;
  constexpr uint64_t SeedsPerThread = 8;
  std::vector<std::vector<uint8_t>> Want(Threads * SeedsPerThread);
  for (uint64_t S = 0; S != Want.size(); ++S)
    Want[S] =
        codegen::link(diversity::Pipeline().run(P.MIR, Opts, S + 1)).Text;

  std::vector<std::vector<uint8_t>> Got(Want.size());
  std::latch Start(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      Start.arrive_and_wait();
      for (uint64_t I = 0; I != SeedsPerThread; ++I) {
        const uint64_t S = T * SeedsPerThread + I;
        Got[S] = driver::makeVariant(P, Opts, S + 1).Image.Text;
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (size_t S = 0; S != Want.size(); ++S)
    EXPECT_EQ(Got[S], Want[S]) << "seed " << S + 1;
}
