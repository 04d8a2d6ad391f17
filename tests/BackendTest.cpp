//===-- tests/BackendTest.cpp - RegPlan / ISel / MIR tests ------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lower.h"
#include "lir/ISel.h"
#include "lir/MIR.h"
#include "lir/RegPlan.h"
#include "passes/Passes.h"

#include <gtest/gtest.h>

#include <set>

using namespace pgsd;

namespace {

ir::Module compile(const char *Source, bool Optimize = true) {
  std::vector<frontend::Diag> Diags;
  ir::Module M = frontend::compileToIR(Source, "test", Diags);
  EXPECT_TRUE(Diags.empty()) << frontend::formatDiags(Diags);
  if (Optimize)
    passes::optimize(M);
  return M;
}

} // namespace

TEST(RegPlan, LivenessOnDiamond) {
  ir::Module M = compile(
      "fn main() { var a = read_int(); var b = 0; "
      "if (a) { b = a + 1; } else { b = a - 1; } return b; }",
      /*Optimize=*/false);
  const ir::Function &F = M.Functions[0];
  auto LiveIn = lir::computeLiveIn(F);
  ASSERT_EQ(LiveIn.size(), F.Blocks.size());
  // Entry block needs nothing live-in (no parameters).
  EXPECT_TRUE(LiveIn[0].empty());
}

TEST(RegPlan, ParametersGetHomes) {
  ir::Module M = compile("fn f(a, b, c) { return a + b + c; } "
                         "fn main() { return f(1, 2, 3); }");
  lir::FramePlan Plan = lir::planFunction(M.Functions[0]);
  // Incoming parameter slots at [ebp+8], [ebp+12], [ebp+16].
  EXPECT_EQ(Plan.Values[0].FrameDisp, 8);
  EXPECT_EQ(Plan.Values[1].FrameDisp, 12);
  EXPECT_EQ(Plan.Values[2].FrameDisp, 16);
}

TEST(RegPlan, HotLoopCounterPromoted) {
  ir::Module M = compile(
      "fn main() { var s = 0; var i = 0; while (i < 1000) { s = s + i; "
      "i = i + 1; } return s; }");
  const ir::Function &F = M.Functions[0];
  lir::FramePlan Plan = lir::planFunction(F);
  unsigned Promoted = 0;
  for (const lir::ValueLoc &Loc : Plan.Values)
    if (Loc.InReg)
      ++Promoted;
  EXPECT_GE(Promoted, 2u); // at least i and s
  EXPECT_TRUE(Plan.UsesEbx);
}

TEST(RegPlan, NoOverlappingRegisterAssignments) {
  ir::Module M = compile(R"(
    fn busy(n) {
      var a = 0; var b = 1; var c = 2; var d = 3; var e = 4;
      var i = 0;
      while (i < n) {
        a = a + b; b = b + c; c = c + d; d = d + e; e = e + a;
        i = i + 1;
      }
      return a + b + c + d + e;
    }
    fn main() { return busy(read_int()); }
  )");
  // More hot values than registers: the plan must stay consistent, and
  // execution correctness is covered by the semantics suite. Here we
  // check structural sanity: at most 3 distinct callee-saved registers.
  lir::FramePlan Plan = lir::planFunction(M.Functions[0]);
  std::set<x86::Reg> Used;
  for (const lir::ValueLoc &Loc : Plan.Values)
    if (Loc.InReg)
      Used.insert(Loc.R);
  EXPECT_LE(Used.size(), 3u);
  for (x86::Reg R : Used)
    EXPECT_TRUE(R == x86::Reg::EBX || R == x86::Reg::ESI ||
                R == x86::Reg::EDI);
}

TEST(RegPlan, FrameSlotsDistinctAndAligned) {
  ir::Module M = compile(
      "fn main() { array a[3]; array b[2]; var x = read_int(); "
      "a[0] = x; b[1] = x; return a[0] + b[1]; }");
  const ir::Function &F = M.Functions[0];
  lir::FramePlan Plan = lir::planFunction(F);
  std::set<int32_t> Offsets;
  for (size_t V = F.NumParams; V != Plan.Values.size(); ++V) {
    EXPECT_LT(Plan.Values[V].FrameDisp, 0);
    EXPECT_EQ(Plan.Values[V].FrameDisp % 4, 0);
    EXPECT_TRUE(Offsets.insert(Plan.Values[V].FrameDisp).second);
  }
  ASSERT_EQ(Plan.ObjectDisp.size(), 2u);
  EXPECT_NE(Plan.ObjectDisp[0], Plan.ObjectDisp[1]);
  // Frame objects do not collide with value slots.
  EXPECT_EQ(Offsets.count(Plan.ObjectDisp[0]), 0u);
  // Object sizes are respected: 3*4 bytes apart at least.
  EXPECT_GE(Plan.ObjectDisp[0] - Plan.ObjectDisp[1], 8);
  EXPECT_LE(static_cast<int32_t>(-Plan.FrameBytes), Plan.ObjectDisp[1]);
}

TEST(RegPlan, LoopDepthEstimation) {
  ir::Module M = compile(
      "fn main() { var s = 0; var i = 0; while (i < 9) { var j = 0; "
      "while (j < 9) { s = s + 1; j = j + 1; } i = i + 1; } return s; }");
  lir::FramePlan Plan = lir::planFunction(M.Functions[0]);
  uint32_t MaxDepth = 0;
  for (uint32_t D : Plan.LoopDepth)
    MaxDepth = std::max(MaxDepth, D);
  EXPECT_GE(MaxDepth, 2u); // the inner loop body nests two deep
}

TEST(ISel, ProducesVerifiableMIR) {
  ir::Module M = compile(R"(
    global g[4];
    fn helper(p, n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) { s = s + p[i]; }
      return s;
    }
    fn main() {
      g[0] = 5; g[1] = 6; g[2] = 7; g[3] = 8;
      print_int(helper(g, 4));
      return g[3] / g[0] + g[2] % g[1];
    }
  )");
  mir::MModule MM = lir::selectInstructions(M);
  EXPECT_EQ(mir::verify(MM), "");
  EXPECT_EQ(MM.Functions.size(), 2u);
  EXPECT_GE(MM.EntryFunction, 0);
  // The printer renders without crashing and mentions the division.
  std::string Text = mir::print(MM);
  EXPECT_NE(Text.find("idiv"), std::string::npos);
  EXPECT_NE(Text.find("cdq"), std::string::npos);
}

TEST(ISel, BlockStructurePreserved) {
  ir::Module M = compile(
      "fn main() { var a = read_int(); if (a) { a = 1; } return a; }",
      /*Optimize=*/false);
  mir::MModule MM = lir::selectInstructions(M);
  EXPECT_EQ(MM.Functions[0].Blocks.size(), M.Functions[0].Blocks.size());
  // Machine successors mirror IR successors block by block.
  for (uint32_t B = 0; B != M.Functions[0].Blocks.size(); ++B) {
    auto IRSuccs = ir::successors(M.Functions[0].Blocks[B]);
    auto MSuccs = MM.Functions[0].successors(B);
    std::set<uint32_t> A(IRSuccs.begin(), IRSuccs.end());
    std::set<uint32_t> C(MSuccs.begin(), MSuccs.end());
    EXPECT_EQ(A, C) << "block " << B;
  }
}

TEST(ISel, CallArgumentsPushedRightToLeft) {
  ir::Module M = compile("fn f(a, b) { return a - b; } "
                         "fn main() { return f(7, 3); }",
                         /*Optimize=*/false);
  mir::MModule MM = lir::selectInstructions(M);
  const mir::MFunction &Main =
      MM.Functions[static_cast<size_t>(MM.EntryFunction)];
  // Find the call and check an AdjustSP of 8 follows it.
  bool SawCall = false, SawAdjust = false;
  for (const mir::MBasicBlock &BB : Main.Blocks)
    for (size_t I = 0; I != BB.Instrs.size(); ++I) {
      if (BB.Instrs[I].Op == mir::MOp::Call) {
        SawCall = true;
        ASSERT_LT(I + 1, BB.Instrs.size());
        EXPECT_EQ(BB.Instrs[I + 1].Op, mir::MOp::AdjustSP);
        EXPECT_EQ(BB.Instrs[I + 1].Imm, 8);
        SawAdjust = true;
      }
    }
  EXPECT_TRUE(SawCall);
  EXPECT_TRUE(SawAdjust);
}

TEST(Peephole, ForwardsStoreLoadPairs) {
  // More live values than the three callee-saved registers, so several
  // values live in frame slots and store/reload pairs appear.
  ir::Module M = compile(
      "fn main() { var a = read_int(); var b = a + 1; var c = b + 2; "
      "var d = c + 3; var e = d + 4; var f = e + 5; var g = f + 6; "
      "return a + b + c + d + e + f + g; }",
      /*Optimize=*/false);
  mir::MModule MM = lir::selectInstructions(M);
  auto CountLoads = [&] {
    unsigned N = 0;
    for (const mir::MFunction &F : MM.Functions)
      for (const mir::MBasicBlock &BB : F.Blocks)
        for (const mir::MInstr &I : BB.Instrs)
          if (I.Op == mir::MOp::LoadFrame)
            ++N;
    return N;
  };
  unsigned Before = CountLoads();
  unsigned Changed = lir::peephole(MM);
  EXPECT_GT(Changed, 0u);
  EXPECT_LT(CountLoads(), Before);
  EXPECT_EQ(mir::verify(MM), "");
}

TEST(MIRVerify, CatchesStructuralProblems) {
  ir::Module M = compile("fn main() { return 1; }");
  mir::MModule MM = lir::selectInstructions(M);

  // Instruction after Ret.
  mir::MModule Broken = MM;
  mir::MInstr Nop;
  Nop.Op = mir::MOp::MovRI;
  Broken.Functions[0].Blocks.back().Instrs.push_back(Nop);
  EXPECT_NE(mir::verify(Broken), "");

  // Branch target out of range.
  Broken = MM;
  mir::MInstr J;
  J.Op = mir::MOp::Jmp;
  J.Imm = 42;
  Broken.Functions[0].Blocks.back().Instrs.back() = J;
  EXPECT_NE(mir::verify(Broken), "");

  // SETcc into a register without an 8-bit subreg.
  Broken = MM;
  mir::MInstr Set;
  Set.Op = mir::MOp::Setcc;
  Set.Dst = x86::Reg::ESI;
  auto &Instrs = Broken.Functions[0].Blocks[0].Instrs;
  Instrs.insert(Instrs.begin(), Set);
  EXPECT_NE(mir::verify(Broken), "");
}

TEST(MIR, NopsAllowedInBranchGroups) {
  // The diversity pass inserts NOPs before branch instructions; the
  // verifier must accept NOPs interleaved with the trailing Jcc/Jmp.
  ir::Module M = compile(
      "fn main() { var a = read_int(); if (a) { return 1; } return 2; }");
  mir::MModule MM = lir::selectInstructions(M);
  for (mir::MFunction &F : MM.Functions)
    for (mir::MBasicBlock &BB : F.Blocks)
      for (size_t I = 0; I != BB.Instrs.size(); ++I)
        if (BB.Instrs[I].Op == mir::MOp::Jmp) {
          mir::MInstr N;
          N.Op = mir::MOp::Nop;
          BB.Instrs.insert(BB.Instrs.begin() + I, N);
          break;
        }
  EXPECT_EQ(mir::verify(MM), "");
}
