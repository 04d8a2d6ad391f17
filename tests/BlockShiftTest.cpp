//===-- tests/BlockShiftTest.cpp - Block shifting extension tests -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Tests for the Section 6 extension: a jumped-over random pad block at
// every function entry, addressing NOP insertion's weakness that
// displacement accumulates and is lowest at the start of a function.
//
//===----------------------------------------------------------------------===//

#include "diversity/NopInsertion.h"
#include "driver/Driver.h"
#include "gadget/Scanner.h"

#include <gtest/gtest.h>

using namespace pgsd;

namespace {

driver::Program sampleProgram() {
  driver::Program P = driver::compileProgram(R"(
    fn work(n) {
      var s = 0;
      var i = 0;
      while (i < n) { s = s + i * 3; i = i + 1; }
      return s;
    }
    fn main() {
      print_int(work(500));
      return 0;
    }
  )",
                                             "shift");
  EXPECT_TRUE(P.ok()) << P.errors();
  EXPECT_TRUE(driver::profileAndStamp(P, {}));
  return P;
}

/// Block-shifts \p M in place with the stream Rng(\p Seed).
diversity::BlockShiftStats shiftWithSeed(mir::MModule &M, uint64_t Seed) {
  Rng G(Seed);
  return diversity::insertBlockShift(M, G);
}

} // namespace

TEST(BlockShift, PreservesSemantics) {
  driver::Program P = sampleProgram();
  mexec::RunResult Base = driver::execute(P.MIR, {}, true);
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    mir::MModule Shifted = P.MIR;
    diversity::BlockShiftStats Stats = shiftWithSeed(Shifted, Seed);
    EXPECT_EQ(Stats.FunctionsShifted, P.MIR.Functions.size());
    EXPECT_GT(Stats.PaddingInstrs, 0u);
    EXPECT_EQ(mir::verify(Shifted), "");
    mexec::RunResult R = driver::execute(Shifted, {}, true);
    ASSERT_FALSE(R.Trapped) << R.TrapReason;
    EXPECT_EQ(R.Output, Base.Output);
    EXPECT_EQ(R.ExitCode, Base.ExitCode);
  }
}

TEST(BlockShift, NegligibleRuntimeCost) {
  // The pad is jumped over: one extra jump per call ("its performance
  // impact should be minimal", Section 6).
  driver::Program P = sampleProgram();
  double Base = driver::execute(P.MIR, {}).cycles();
  mir::MModule Shifted = P.MIR;
  shiftWithSeed(Shifted, 3);
  double Cost = driver::execute(Shifted, {}).cycles();
  EXPECT_LT((Cost - Base) / Base, 0.01);
}

TEST(BlockShift, DisplacesFunctionEntryCode) {
  // NOP insertion alone leaves the first instructions of the first
  // function essentially undisplaced; block shifting moves them.
  driver::Program P = sampleProgram();
  codegen::Image Base = driver::linkBaseline(P);

  mir::MModule A = P.MIR;
  mir::MModule B = P.MIR;
  shiftWithSeed(A, 1);
  shiftWithSeed(B, 2);
  codegen::Image ImgA = codegen::link(A);
  codegen::Image ImgB = codegen::link(B);

  // Variants differ from each other and from the baseline within the
  // first bytes of the first program function's body.
  uint32_t FuncOff = Base.FuncOffsets[0];
  ASSERT_EQ(FuncOff, ImgA.FuncOffsets[0]);
  bool DiffersFromBase = false, VariantsDiffer = false;
  for (uint32_t I = 0; I != 24; ++I) {
    if (Base.Text[FuncOff + I] != ImgA.Text[FuncOff + I])
      DiffersFromBase = true;
    if (ImgA.Text[FuncOff + I] != ImgB.Text[FuncOff + I])
      VariantsDiffer = true;
  }
  EXPECT_TRUE(DiffersFromBase);
  EXPECT_TRUE(VariantsDiffer);
}

TEST(BlockShift, ComposesWithNopInsertion) {
  driver::Program P = sampleProgram();
  mexec::RunResult Base = driver::execute(P.MIR, {}, true);
  codegen::Image BaseImg = driver::linkBaseline(P);
  auto BaseGadgets =
      gadget::scanGadgets(BaseImg.Text.data(), BaseImg.Text.size());

  mir::MModule Shifted = P.MIR;
  shiftWithSeed(Shifted, 7);
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  Rng G(7);
  mir::MModule V;
  diversity::insertNops(Shifted, V, Opts, G);
  EXPECT_EQ(mir::verify(V), "");

  mexec::RunResult R = driver::execute(V, {}, true);
  ASSERT_FALSE(R.Trapped);
  EXPECT_EQ(R.Output, Base.Output);

  codegen::Image Img = codegen::link(V);
  auto Survivors = gadget::survivingGadgets(BaseImg.Text, Img.Text);
  EXPECT_LT(Survivors.size(), BaseGadgets.size());
}

TEST(BlockShift, DeterministicPerSeed) {
  driver::Program P = sampleProgram();
  mir::MModule A = P.MIR, B = P.MIR, C = P.MIR;
  shiftWithSeed(A, 9);
  shiftWithSeed(B, 9);
  shiftWithSeed(C, 10);
  EXPECT_EQ(mir::print(A), mir::print(B));
  EXPECT_NE(mir::print(A), mir::print(C));
}

TEST(BlockShift, PadBlockIsCold) {
  // The pad must carry a zero profile count so a subsequent profiled
  // NOP pass diversifies it at pmax.
  driver::Program P = sampleProgram();
  mir::MModule Shifted = P.MIR;
  shiftWithSeed(Shifted, 4);
  for (const mir::MFunction &F : Shifted.Functions) {
    ASSERT_GE(F.Blocks.size(), 3u);
    EXPECT_EQ(F.Blocks[1].Name, "shift.pad");
    EXPECT_EQ(F.Blocks[1].ProfileCount, 0u);
    // Entry inherits the original entry count.
    EXPECT_EQ(F.Blocks[0].ProfileCount, F.Blocks[2].ProfileCount);
  }
}
