//===-- tests/AnalysisTest.cpp - MIR static analyzer tests -----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Three layers of evidence that the analyzer is trustworthy:
//  1. Unit tests drive each checker over hand-built MIR with a known
//     violation (or a known-benign shape like an unreachable pad block).
//  2. A clean sweep proves zero false positives: every workload in the
//     battery, optimized and not, baseline and diversified, analyzes
//     clean.
//  3. A fault-injection sweep proves 100% detection per class: every
//     seeded illegal mutation is caught with the matching error code.
// Plus golden-diagnostics tests pinning the exact rendered text, and a
// driver test showing static screening short-circuits the retry loop.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/MirFault.h"
#include "diversity/NopInsertion.h"
#include "driver/Driver.h"
#include "verify/Verifier.h"
#include "workloads/Workloads.h"

#include "gtest/gtest.h"

#include <functional>

using namespace pgsd;
using analysis::AnalysisOptions;
using analysis::CheckerKind;
using analysis::MirFaultClass;
using mir::MBasicBlock;
using mir::MFunction;
using mir::MInstr;
using mir::MModule;
using mir::MOp;
using verify::ErrorCode;
using x86::CondCode;
using x86::Reg;

namespace {

MInstr movRI(Reg Dst, int32_t Imm) {
  MInstr I;
  I.Op = MOp::MovRI;
  I.Dst = Dst;
  I.Imm = Imm;
  return I;
}

MInstr movRR(Reg Dst, Reg Src) {
  MInstr I;
  I.Op = MOp::MovRR;
  I.Dst = Dst;
  I.Src = Src;
  return I;
}

MInstr alu(x86::AluOp Op, Reg Dst, Reg Src) {
  MInstr I;
  I.Op = MOp::AluRR;
  I.Alu = Op;
  I.Dst = Dst;
  I.Src = Src;
  return I;
}

MInstr aluI(x86::AluOp Op, Reg Dst, int32_t Imm) {
  MInstr I;
  I.Op = MOp::AluRI;
  I.Alu = Op;
  I.Dst = Dst;
  I.Imm = Imm;
  return I;
}

MInstr jcc(CondCode CC, int32_t Target) {
  MInstr I;
  I.Op = MOp::Jcc;
  I.CC = CC;
  I.Imm = Target;
  return I;
}

MInstr jmp(int32_t Target) {
  MInstr I;
  I.Op = MOp::Jmp;
  I.Imm = Target;
  return I;
}

MInstr simple(MOp Op) {
  MInstr I;
  I.Op = Op;
  return I;
}

MInstr frame(MOp Op, Reg R, int32_t Disp) {
  MInstr I;
  I.Op = Op;
  if (Op == MOp::StoreFrame)
    I.Src = R;
  else
    I.Dst = R;
  I.Imm = Disp;
  return I;
}

/// Wraps blocks into a one-function module named "f".
MModule makeModule(std::vector<MBasicBlock> Blocks, uint32_t FrameBytes = 0,
                   int32_t ValueSlotsLowDisp = 0, uint32_t NumParams = 0) {
  MModule M;
  MFunction F;
  F.Name = "f";
  F.NumParams = NumParams;
  F.FrameBytes = FrameBytes;
  F.ValueSlotsLowDisp = ValueSlotsLowDisp;
  F.Blocks = std::move(Blocks);
  M.Functions.push_back(std::move(F));
  return M;
}

MBasicBlock block(std::vector<MInstr> Instrs) {
  MBasicBlock BB;
  BB.Instrs = std::move(Instrs);
  return BB;
}

//===----------------------------------------------------------------------===//
// Checker unit tests on hand-built MIR
//===----------------------------------------------------------------------===//

TEST(AnalysisRegisterEffects, MasksEqualTheOrderedVisitors) {
  // The one register-effect table (mir::readRegs / mir::writtenRegs)
  // and the ordered visitors diagnostics use must name the same
  // registers for every opcode, every operand pair, and both ALU
  // classes (CMP writes nothing; every other ALU op writes Dst).
  auto Mask = [](auto Visit, const MInstr &I) {
    uint8_t M = 0;
    Visit(I, [&M](Reg R) {
      M |= static_cast<uint8_t>(1u << x86::regNum(R));
    });
    return M;
  };
  auto Reads = [](const MInstr &I, const std::function<void(Reg)> &Fn) {
    analysis::forEachReadReg(I, Fn);
  };
  auto Writes = [](const MInstr &I, const std::function<void(Reg)> &Fn) {
    analysis::forEachWrittenReg(I, Fn);
  };
  // ProfInc is the last opcode.
  for (unsigned Op = 0; Op <= static_cast<unsigned>(MOp::ProfInc); ++Op)
    for (unsigned D = 0; D != x86::NumRegs; ++D)
      for (unsigned S = 0; S != x86::NumRegs; ++S)
        for (x86::AluOp A : {x86::AluOp::Cmp, x86::AluOp::Add}) {
          MInstr I;
          I.Op = static_cast<MOp>(Op);
          I.Dst = static_cast<Reg>(D);
          I.Src = static_cast<Reg>(S);
          I.Alu = A;
          EXPECT_EQ(mir::readRegs(I), Mask(Reads, I))
              << mir::mopName(I.Op) << " " << mir::printInstr(I);
          EXPECT_EQ(mir::writtenRegs(I), Mask(Writes, I))
              << mir::mopName(I.Op) << " " << mir::printInstr(I);
        }
}

TEST(AnalysisLiveness, CleanDiamondPasses) {
  // Both paths define EDX before the join reads it.
  MModule M = makeModule({
      block({movRI(Reg::EAX, 1), movRI(Reg::ECX, 2),
             alu(x86::AluOp::Cmp, Reg::EAX, Reg::ECX),
             jcc(CondCode::L, 2)}),
      block({movRI(Reg::EDX, 5), jmp(3)}),
      block({movRI(Reg::EDX, 9), jmp(3)}),
      block({movRR(Reg::EAX, Reg::EDX), simple(MOp::Ret)}),
  });
  EXPECT_TRUE(analysis::analyzeModule(M).ok());
}

TEST(AnalysisLiveness, OnePathMissingDefIsCaught) {
  // EDX defined only on the fallthrough path; the join reads it.
  MModule M = makeModule({
      block({movRI(Reg::EAX, 1), movRI(Reg::ECX, 2),
             alu(x86::AluOp::Cmp, Reg::EAX, Reg::ECX),
             jcc(CondCode::L, 2)}),
      block({movRI(Reg::EDX, 5), jmp(3)}),
      block({jmp(3)}),
      block({movRR(Reg::EAX, Reg::EDX), simple(MOp::Ret)}),
  });
  verify::Report R = analysis::analyzeModule(M);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.has(ErrorCode::AnalysisUseBeforeDef));
}

TEST(AnalysisLiveness, UnreachableBlockIsSkipped) {
  // mbb1 reads undefined EBX but nothing jumps to it (a block-shift pad
  // block has exactly this shape).
  MModule M = makeModule({
      block({jmp(2)}),
      block({movRR(Reg::EAX, Reg::EBX), jmp(2)}),
      block({movRI(Reg::EAX, 0), simple(MOp::Ret)}),
  });
  EXPECT_TRUE(analysis::analyzeModule(M).ok());
}

TEST(AnalysisEflags, ClobberOnOnePathIsCaught) {
  // mbb2's setcc sees Defined flags via the branch edge but Clobbered
  // flags via mbb1's ADD; the meet must surface the clobber.
  MModule M = makeModule({
      block({movRI(Reg::EAX, 1), movRI(Reg::ECX, 2),
             alu(x86::AluOp::Cmp, Reg::EAX, Reg::ECX),
             jcc(CondCode::L, 2)}),
      block({aluI(x86::AluOp::Add, Reg::EAX, 1)}),
      block({[] {
               MInstr I;
               I.Op = MOp::Setcc;
               I.CC = CondCode::L;
               I.Dst = Reg::EDX;
               return I;
             }(),
             movRR(Reg::EAX, Reg::EDX), simple(MOp::Ret)}),
  });
  verify::Report R = analysis::analyzeModule(M);
  ASSERT_FALSE(R.ok());
  ASSERT_TRUE(R.has(ErrorCode::AnalysisFlagsUnproven));
  // The diagnostic names the clobbering instruction and its location.
  EXPECT_NE(R.str().find("clobbered by 'add eax, 1' at mbb1 #0"),
            std::string::npos)
      << R.str();
}

TEST(AnalysisEflags, NopsBetweenCmpAndJccAreTransparent) {
  MBasicBlock B0 = block({movRI(Reg::EAX, 1), movRI(Reg::ECX, 2),
                          alu(x86::AluOp::Cmp, Reg::EAX, Reg::ECX)});
  for (unsigned K = 0; K != x86::NumNopKinds; ++K) {
    MInstr Nop;
    Nop.Op = MOp::Nop;
    Nop.NopK = static_cast<x86::NopKind>(K);
    B0.Instrs.push_back(Nop);
  }
  B0.Instrs.push_back(jcc(CondCode::L, 1));
  MModule M = makeModule({
      std::move(B0),
      block({movRI(Reg::EAX, 0), simple(MOp::Ret)}),
  });
  EXPECT_TRUE(analysis::analyzeModule(M).ok());
}

TEST(AnalysisEflags, EveryNopKindIsFlagNeutral) {
  // The admission rule NOP insertion relies on: all Table 1 candidates
  // must classify Neutral, or the pass would refuse to place them.
  for (unsigned K = 0; K != x86::NumNopKinds; ++K) {
    MInstr Nop;
    Nop.Op = MOp::Nop;
    Nop.NopK = static_cast<x86::NopKind>(K);
    EXPECT_EQ(analysis::flagEffect(Nop), analysis::FlagEffect::Neutral);
  }
}

TEST(AnalysisStack, UnmatchedPushAtRetIsCaught) {
  MModule M = makeModule({
      block({movRI(Reg::EAX, 1),
             [] {
               MInstr I;
               I.Op = MOp::Push;
               I.Src = Reg::EAX;
               return I;
             }(),
             simple(MOp::Ret)}),
  });
  verify::Report R = analysis::analyzeModule(M);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.has(ErrorCode::AnalysisStackImbalance));
}

TEST(AnalysisStack, JoinDepthConflictIsCaught) {
  // One path pushes, the other does not; the join block's entry depth
  // is path-dependent.
  MModule M = makeModule({
      block({movRI(Reg::EAX, 1), movRI(Reg::ECX, 2),
             alu(x86::AluOp::Cmp, Reg::EAX, Reg::ECX),
             jcc(CondCode::L, 2)}),
      block({[] {
               MInstr I;
               I.Op = MOp::PushI;
               I.Imm = 7;
               return I;
             }(),
             jmp(2)}),
      block({movRI(Reg::EAX, 0), simple(MOp::Ret)}),
  });
  verify::Report R = analysis::analyzeModule(M);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.has(ErrorCode::AnalysisStackImbalance));
}

TEST(AnalysisFrame, EscapeMisalignmentAndParamsAreCaught) {
  MModule M = makeModule(
      {block({frame(MOp::LoadFrame, Reg::EAX, -16), // escapes 8-byte frame
              frame(MOp::LoadFrame, Reg::ECX, -6),  // misaligned
              frame(MOp::LoadFrame, Reg::EDX, 8),   // no params
              simple(MOp::Ret)})},
      /*FrameBytes=*/8, /*ValueSlotsLowDisp=*/-8, /*NumParams=*/0);
  verify::Report R = analysis::analyzeModule(M);
  EXPECT_EQ(R.Diags.size(), 3u) << R.str();
  for (const verify::Diagnostic &D : R.Diags)
    EXPECT_EQ(D.Code, ErrorCode::AnalysisFrameOutOfBounds);
}

TEST(AnalysisFrame, ScalarAndObjectRegionsAreSeparated) {
  // Frame: objects in [-16, -12], scalars in [-8, -4].
  MModule M = makeModule(
      {block({frame(MOp::LoadFrame, Reg::EAX, -12), // scalar load of object
              frame(MOp::LeaFrame, Reg::ECX, -8),   // lea into scalar area
              simple(MOp::Ret)})},
      /*FrameBytes=*/16, /*ValueSlotsLowDisp=*/-8, /*NumParams=*/0);
  verify::Report R = analysis::analyzeModule(M);
  EXPECT_EQ(R.Diags.size(), 2u) << R.str();
  EXPECT_TRUE(R.has(ErrorCode::AnalysisFrameOutOfBounds));
}

TEST(AnalysisCallConv, CallerSavedReadAfterCallIsCaught) {
  MInstr Call;
  Call.Op = MOp::Call;
  Call.Target = ir::Callee::intrinsic(ir::Intrinsic::ReadI32);
  MModule M = makeModule({
      block({movRI(Reg::ECX, 5), Call, movRR(Reg::EDX, Reg::ECX),
             movRR(Reg::EAX, Reg::EDX), simple(MOp::Ret)}),
  });
  verify::Report R = analysis::analyzeModule(M);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.has(ErrorCode::AnalysisCallConvViolation));
}

TEST(AnalysisCallConv, IdivWithoutCdqIsCaught) {
  MModule M = makeModule({
      block({movRI(Reg::EAX, 10), movRI(Reg::ECX, 3),
             movRI(Reg::EDX, 0), // EDX set, but not via cdq
             [] {
               MInstr I;
               I.Op = MOp::Idiv;
               I.Src = Reg::ECX;
               return I;
             }(),
             simple(MOp::Ret)}),
  });
  verify::Report R = analysis::analyzeModule(M);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.has(ErrorCode::AnalysisCallConvViolation));
}

TEST(AnalysisCfg, BadBranchTargetGatesFlowCheckers) {
  // The function also reads undefined EBX, but the CFG violation must
  // be the only report: flow-sensitive checkers cannot run on it.
  MModule M = makeModule({
      block({movRR(Reg::EAX, Reg::EBX), jmp(7)}),
  });
  verify::Report R = analysis::analyzeModule(M);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.has(ErrorCode::AnalysisCfgMalformed));
  EXPECT_FALSE(R.has(ErrorCode::AnalysisUseBeforeDef));
}

TEST(AnalysisOptionsTest, OnlyRunsRequestedCheckerPlusGate) {
  // Stack violation, analyzed with only the EFLAGS checker: no report.
  MModule M = makeModule({
      block({movRI(Reg::EAX, 1),
             [] {
               MInstr I;
               I.Op = MOp::PushI;
               I.Imm = 0;
               return I;
             }(),
             simple(MOp::Ret)}),
  });
  EXPECT_TRUE(
      analysis::analyzeModule(M, AnalysisOptions::only(CheckerKind::EflagsFlow))
          .ok());
  EXPECT_FALSE(analysis::analyzeModule(M).ok());
}

//===----------------------------------------------------------------------===//
// Zero false positives: the whole battery analyzes clean
//===----------------------------------------------------------------------===//

TEST(AnalysisCleanSweep, AllWorkloadsAndVariantsAnalyzeClean) {
  std::vector<workloads::Workload> Programs = workloads::specSuite();
  Programs.push_back(workloads::phpInterpreter());
  ASSERT_EQ(Programs.size(), 20u);
  for (const workloads::Workload &W : Programs) {
    for (bool Optimize : {true, false}) {
      driver::Program P =
          driver::compileProgram(W.Source, W.Name, Optimize);
      // compileProgram itself runs the analyzer; P.ok() covers baseline.
      ASSERT_TRUE(P.ok()) << W.Name << ": " << P.errors();
      diversity::DiversityOptions D =
          diversity::DiversityOptions::uniform(0.5);
      D.IncludeXchgNops = true;
      for (uint64_t Seed : {1u, 2u}) {
        MModule V = diversity::Pipeline().run(P.MIR, D, Seed);
        EXPECT_TRUE(analysis::analyzeModule(V).ok())
            << W.Name << " seed " << Seed << ":\n"
            << analysis::analyzeModule(V).str();
        Rng Shift(Seed ^ 0xb10c);
        diversity::insertBlockShift(V, Shift);
        EXPECT_TRUE(analysis::analyzeModule(V).ok())
            << W.Name << " shifted seed " << Seed << ":\n"
            << analysis::analyzeModule(V).str();
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// 100% detection: every seeded fault is caught with the paired code
//===----------------------------------------------------------------------===//

TEST(AnalysisFaultSweep, EveryInjectedFaultIsDetected) {
  std::vector<workloads::Workload> Programs = workloads::specSuite();
  Programs.push_back(workloads::phpInterpreter());
  unsigned InjectedPerClass[analysis::NumMirFaultClasses] = {};
  for (const workloads::Workload &W : Programs) {
    driver::Program P = driver::compileProgram(W.Source, W.Name, true);
    ASSERT_TRUE(P.ok()) << W.Name;
    for (unsigned C = 0; C != analysis::NumMirFaultClasses; ++C) {
      MirFaultClass Class = static_cast<MirFaultClass>(C);
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        MModule Mutant = P.MIR;
        std::string Desc;
        if (!analysis::injectMirFault(Mutant, Class, Seed, &Desc))
          continue; // no eligible site in this program
        ++InjectedPerClass[C];
        verify::Report R = analysis::analyzeModule(Mutant);
        ErrorCode Expected = analysis::checkerErrorCode(
            analysis::mirFaultTargetChecker(Class));
        EXPECT_TRUE(R.has(Expected))
            << W.Name << " " << analysis::mirFaultClassName(Class)
            << " seed " << Seed << " (" << Desc << ") -> report:\n"
            << R.str();
      }
    }
  }
  // The sweep must actually exercise every class, many times over.
  for (unsigned C = 0; C != analysis::NumMirFaultClasses; ++C)
    EXPECT_GE(InjectedPerClass[C], 10u)
        << analysis::mirFaultClassName(static_cast<MirFaultClass>(C));
}

TEST(AnalysisFaultSweep, DiversifiedMutantsAreDetectedToo) {
  // Faults injected into already-diversified MIR (NOPs interleaved)
  // must still be caught: the checkers see through the padding.
  driver::Program P = driver::compileProgram(
      workloads::specWorkload("401.bzip2").Source, "401.bzip2", true);
  ASSERT_TRUE(P.ok());
  diversity::DiversityOptions D = diversity::DiversityOptions::uniform(0.4);
  const MModule V = diversity::Pipeline().run(P.MIR, D, 11);
  for (unsigned C = 0; C != analysis::NumMirFaultClasses; ++C) {
    MirFaultClass Class = static_cast<MirFaultClass>(C);
    MModule Mutant = V;
    ASSERT_TRUE(analysis::injectMirFault(Mutant, Class, 5))
        << analysis::mirFaultClassName(Class);
    verify::Report R = analysis::analyzeModule(Mutant);
    EXPECT_TRUE(R.has(analysis::checkerErrorCode(
        analysis::mirFaultTargetChecker(Class))))
        << analysis::mirFaultClassName(Class) << ":\n"
        << R.str();
  }
}

//===----------------------------------------------------------------------===//
// Driver integration: static screening short-circuits the retry loop
//===----------------------------------------------------------------------===//

TEST(AnalysisDriver, StaticRejectionTriggersSeedRetry) {
  // A FlagClobber is invisible to differential execution (the
  // interpreter models flags lazily) and to the image checks (the
  // mutated MIR is re-linked consistently by the seam's caller) -- the
  // static analyzer is the only line of defense. Inject it on the first
  // attempt only and watch the driver retry to a clean seed.
  driver::Program P = driver::compileProgram(
      workloads::specWorkload("456.hmmer").Source, "456.hmmer", true);
  ASSERT_TRUE(P.ok());
  const uint64_t BaseSeed = 77;
  verify::VerifyOptions VOpts;
  VOpts.MaxAttempts = 3;
  VOpts.InjectFault = [&](mir::MModule &M, codegen::Image &,
                          uint64_t Seed) {
    if (Seed == verify::deriveRetrySeed(BaseSeed, 0)) {
      ASSERT_TRUE(analysis::injectMirFault(
          M, MirFaultClass::FlagClobber, 9));
    }
  };
  diversity::DiversityOptions D = diversity::DiversityOptions::uniform(0.3);
  driver::VerifiedVariant VV =
      driver::makeVariantVerified(P, diversity::Pipeline(), D, BaseSeed,
                                  VOpts);
  EXPECT_TRUE(VV.ok());
  EXPECT_EQ(VV.Attempts, 2u);
  EXPECT_TRUE(VV.Report.has(ErrorCode::StaticAnalysisRejected));
  EXPECT_TRUE(VV.Report.has(ErrorCode::AnalysisFlagsUnproven));
}

TEST(AnalysisDriver, ExhaustedStaticRejectionFallsBackToBaseline) {
  driver::Program P = driver::compileProgram(
      workloads::specWorkload("429.mcf").Source, "429.mcf", true);
  ASSERT_TRUE(P.ok());
  verify::VerifyOptions VOpts;
  VOpts.MaxAttempts = 2;
  VOpts.InjectFault = [](mir::MModule &M, codegen::Image &, uint64_t) {
    analysis::injectMirFault(M, MirFaultClass::UnbalancedPush, 4);
  };
  diversity::DiversityOptions D = diversity::DiversityOptions::uniform(0.3);
  driver::VerifiedVariant VV =
      driver::makeVariantVerified(P, diversity::Pipeline(), D, 5, VOpts);
  EXPECT_FALSE(VV.ok());
  EXPECT_TRUE(VV.UsedFallback);
  EXPECT_EQ(VV.Attempts, 2u);
  EXPECT_TRUE(VV.Report.has(ErrorCode::StaticAnalysisRejected));
  EXPECT_TRUE(VV.Report.has(ErrorCode::AnalysisStackImbalance));
  EXPECT_TRUE(VV.Report.has(ErrorCode::RetriesExhausted));
}

} // namespace
