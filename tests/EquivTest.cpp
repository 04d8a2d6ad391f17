//===-- tests/EquivTest.cpp - Translation validation tests -----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Three layers of evidence that the equivalence prover is trustworthy:
//  1. A clean sweep proves zero false positives: every workload in the
//     battery, across seeds, NOP-inserted and block-shifted, is proved
//     equivalent to its baseline.
//  2. A fault-injection sweep proves 100% *static* detection: every
//     seeded illegal mutation of every MirFault class -- including the
//     flag-clobber class that differential execution can never see --
//     is refuted with a structured counterexample.
//  3. Unit tests pin the prover's behaviour on hand-built corner cases
//     (prelude proof obligations, module-shape mismatches, value
//     perturbations invisible to the dataflow checkers) and its wiring
//     into the driver's retry loop.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "analysis/MirFault.h"
#include "diversity/NopInsertion.h"
#include "driver/Driver.h"
#include "obs/Metrics.h"
#include "verify/Verifier.h"
#include "workloads/Workloads.h"

#include "gtest/gtest.h"

using namespace pgsd;
using analysis::EquivOptions;
using analysis::EquivStats;
using analysis::MirFaultClass;
using analysis::proveEquivalent;
using mir::MInstr;
using mir::MModule;
using mir::MOp;
using verify::ErrorCode;
using x86::Reg;

namespace {

/// A program exercising every MOp family the prover models: calls,
/// division (cdq/idiv), loops with flag-consuming branches, frame
/// traffic, and output.
constexpr const char *FixtureSource = R"(
fn avg(a, b) {
  return (a + b) / 2;
}
fn main() {
  var n = read_int();
  var total = 0;
  for (var i = 0; i < n; i = i + 1) {
    total = avg(total, i);
  }
  print_int(total);
  return total;
}
)";

driver::Program compileFixture() {
  driver::Program P =
      driver::compileProgram(FixtureSource, "equiv_fixture", true);
  EXPECT_TRUE(P.ok()) << P.errors();
  return P;
}

diversity::DiversityOptions heavyNops() {
  // Uniform max-rate insertion maximizes the NOP noise the prover must
  // normalize away.
  diversity::DiversityOptions D = diversity::DiversityOptions::uniform(0.5);
  D.IncludeXchgNops = true;
  return D;
}

//===----------------------------------------------------------------------===//
// 1. Clean sweep: zero false positives over the whole battery
//===----------------------------------------------------------------------===//

TEST(EquivCleanSweep, AllWorkloadsAllSeedsProved) {
  std::vector<workloads::Workload> Battery = workloads::specSuite();
  Battery.push_back(workloads::phpInterpreter());
  uint64_t Proved = 0;
  for (const workloads::Workload &W : Battery) {
    driver::Program P = driver::compileProgram(W.Source, W.Name, true);
    ASSERT_TRUE(P.ok()) << W.Name << ": " << P.errors();
    for (uint64_t Seed : {1ull, 7ull, 42ull}) {
      MModule V = diversity::Pipeline().run(P.MIR, heavyNops(), Seed);
      EquivStats S;
      verify::Report R = proveEquivalent(P.MIR, V, EquivOptions(), &S);
      EXPECT_TRUE(R.ok()) << W.Name << " seed " << Seed
                          << " (nop variant):\n"
                          << R.str();
      EXPECT_EQ(S.FunctionsRefuted + S.FunctionsAborted, 0u);
      Proved += S.FunctionsProved;

      // The block-shifted sibling exercises the layout-permutation
      // side of the correspondence proof.
      Rng Shift(Seed ^ 0xb10c);
      diversity::insertBlockShift(V, Shift);
      R = proveEquivalent(P.MIR, V);
      EXPECT_TRUE(R.ok()) << W.Name << " seed " << Seed
                          << " (block-shifted):\n"
                          << R.str();
    }
  }
  // The battery is substantial; make sure the sweep proved real work.
  EXPECT_GT(Proved, 100u);
}

TEST(EquivCleanSweep, UnoptimizedModulesProved) {
  // -O0 modules have more frame traffic and redundant moves; the
  // prover must not depend on the optimizer's canonical forms.
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name, false);
    ASSERT_TRUE(P.ok()) << W.Name << ": " << P.errors();
    MModule V = diversity::Pipeline().run(P.MIR, heavyNops(), 3);
    verify::Report R = proveEquivalent(P.MIR, V);
    EXPECT_TRUE(R.ok()) << W.Name << ":\n" << R.str();
  }
}

TEST(EquivCleanSweep, ReflexiveOnBaseline) {
  driver::Program P = compileFixture();
  EquivStats S;
  verify::Report R = proveEquivalent(P.MIR, P.MIR, EquivOptions(), &S);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(S.FunctionsProved, P.MIR.Functions.size());
}

//===----------------------------------------------------------------------===//
// 2. Fault sweep: 100% static detection of every MirFault class
//===----------------------------------------------------------------------===//

TEST(EquivFaultSweep, AllClassesAllSeedsRefuted) {
  driver::Program P = compileFixture();
  for (unsigned C = 0; C != analysis::NumMirFaultClasses; ++C) {
    MirFaultClass Class = static_cast<MirFaultClass>(C);
    unsigned Injected = 0;
    for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
      MModule Mutant = P.MIR;
      std::string Desc;
      if (!analysis::injectMirFault(Mutant, Class, Seed, &Desc))
        continue;
      ++Injected;
      EquivStats S;
      verify::Report R =
          proveEquivalent(P.MIR, Mutant, EquivOptions(), &S);
      ASSERT_FALSE(R.ok())
          << analysis::mirFaultClassName(Class) << " seed " << Seed
          << " (" << Desc << "): prover accepted a faulty module";
      EXPECT_TRUE(R.has(ErrorCode::EquivRefuted))
          << analysis::mirFaultClassName(Class) << ": " << R.str();
      EXPECT_GE(S.FunctionsRefuted, 1u);
      // Every counterexample is structured: code + non-empty context.
      for (const verify::Diagnostic &D : R.Diags)
        EXPECT_FALSE(D.Context.empty());
    }
    EXPECT_GT(Injected, 0u)
        << analysis::mirFaultClassName(Class) << ": no eligible site";
  }
}

TEST(EquivFaultSweep, FlagClobberIsStaticallyVisible) {
  // The headline case: an inserted value-preserving ALU op between a
  // cmp and its jcc is invisible to the lazy-flags interpreter (the
  // dynamic battery can never catch it) yet must refute here, at the
  // consuming branch, as a branch-condition mismatch.
  driver::Program P = compileFixture();
  MModule Mutant = P.MIR;
  ASSERT_TRUE(analysis::injectMirFault(Mutant, MirFaultClass::FlagClobber,
                                       7, nullptr));
  verify::Report R = proveEquivalent(P.MIR, Mutant);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Diags.front().Context.find("branch condition differs"),
            std::string::npos)
      << R.str();
}

//===----------------------------------------------------------------------===//
// 3. Unit tests: corner cases and driver wiring
//===----------------------------------------------------------------------===//

TEST(EquivUnit, EffectfulPreludeRefuted) {
  // A two-block prelude is only accepted once *proven* effect-free;
  // smuggling a register write into the pad block must refute even
  // though the block count and jump shape look like a legal shift.
  driver::Program P = compileFixture();
  MModule V = P.MIR;
  Rng Shift(99);
  diversity::insertBlockShift(V, Shift);
  verify::Report Clean = proveEquivalent(P.MIR, V);
  ASSERT_TRUE(Clean.ok()) << Clean.str();

  MInstr Smuggled;
  Smuggled.Op = MOp::MovRI;
  Smuggled.Dst = Reg::EAX;
  Smuggled.Imm = 123;
  V.Functions[0].Blocks[1].Instrs.insert(
      V.Functions[0].Blocks[1].Instrs.begin(), Smuggled);
  verify::Report R = proveEquivalent(P.MIR, V);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.has(ErrorCode::EquivRefuted));
}

TEST(EquivUnit, ModuleShapeMismatchRefuted) {
  driver::Program P = compileFixture();
  MModule V = P.MIR;
  V.Functions.pop_back();
  verify::Report R = proveEquivalent(P.MIR, V);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.has(ErrorCode::EquivRefuted));
  EXPECT_NE(R.Diags.front().Context.find("functions"), std::string::npos);
}

TEST(EquivUnit, ConstantPerturbationRefuted) {
  // Flipping an immediate passes every dataflow checker (analyzeModule
  // is value-blind) but changes the computed value; only the
  // equivalence prover rejects it statically.
  driver::Program P = compileFixture();
  MModule V = P.MIR;
  bool Flipped = false;
  for (mir::MFunction &F : V.Functions) {
    for (mir::MBasicBlock &B : F.Blocks)
      for (MInstr &I : B.Instrs)
        if (!Flipped && I.Op == MOp::MovRI) {
          I.Imm += 1;
          Flipped = true;
        }
  }
  ASSERT_TRUE(Flipped);
  EXPECT_TRUE(analysis::analyzeModule(V).ok());
  verify::Report R = proveEquivalent(P.MIR, V);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.has(ErrorCode::EquivRefuted));
}

TEST(EquivUnit, PoisonReadThroughACopyRefuted) {
  // After a call, ECX holds garbage under real cdecl; copying it into
  // EBX carries the garbage along. A variant that reads the copy where
  // the baseline does not must refute, even though every event, exit
  // register and exit flags term agree.
  auto Ins = [](MOp Op, Reg Dst, Reg Src, int32_t Imm = 0) {
    MInstr I;
    I.Op = Op;
    I.Dst = Dst;
    I.Src = Src;
    I.Imm = Imm;
    return I;
  };
  MInstr Call;
  Call.Op = MOp::Call;
  Call.Target.IsIntrinsic = true;
  Call.Target.Intr = ir::Intrinsic::ReadI32;
  MInstr Cmp = Ins(MOp::AluRI, Reg::EAX, Reg::EAX, 0);
  Cmp.Alu = x86::AluOp::Cmp;
  MModule B;
  B.EntryFunction = 0;
  B.Functions.resize(1);
  B.Functions[0].Name = "main";
  B.Functions[0].UsesEbx = true;
  B.Functions[0].Blocks.resize(1);
  B.Functions[0].Blocks[0].Instrs = {
      Call,
      Ins(MOp::MovRR, Reg::EBX, Reg::ECX), // reads the poisoned ECX
      Cmp,
      Ins(MOp::MovRI, Reg::EBX, Reg::EAX),
      Ins(MOp::Ret, Reg::EAX, Reg::EAX),
  };
  MModule V = B;
  std::vector<MInstr> &VI = V.Functions[0].Blocks[0].Instrs;
  // The extra read of the copy; the cmp after it re-defines EFLAGS.
  VI.insert(VI.begin() + 2, Ins(MOp::TestRR, Reg::EBX, Reg::EBX));

  ASSERT_TRUE(proveEquivalent(B, B).ok());
  verify::Report R = proveEquivalent(B, V);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.str().find("reads caller-saved ebx while it holds a "
                         "call-clobbered value"),
            std::string::npos)
      << R.str();
}

TEST(EquivUnit, DiagnosticCapRespected) {
  // Break every function; the report must stop at the cap.
  driver::Program P = compileFixture();
  MModule V = P.MIR;
  for (mir::MFunction &F : V.Functions)
    for (mir::MBasicBlock &B : F.Blocks)
      for (MInstr &I : B.Instrs)
        if (I.Op == MOp::MovRI)
          I.Imm ^= 1;
  EquivOptions Opts;
  Opts.MaxDiagnostics = 1;
  verify::Report R = proveEquivalent(P.MIR, V, Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Diags.size(), 1u);
}

TEST(EquivUnit, StatsPartitionAttempts) {
  driver::Program P = compileFixture();
  MModule V = diversity::Pipeline().run(P.MIR, heavyNops(), 5);
  EquivStats S;
  verify::Report R = proveEquivalent(P.MIR, V, EquivOptions(), &S);
  ASSERT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(S.FunctionsProved + S.FunctionsRefuted + S.FunctionsAborted,
            P.MIR.Functions.size());
}

TEST(EquivDriver, NonEquivalentVariantRejectedBeforeExecution) {
  // The seam mutates an immediate on every attempt: analyzeModule
  // accepts each mutant, translation validation refutes it, and the
  // factory must fall back to the baseline with EquivRejected in the
  // attempt timeline -- without ever reaching differential execution.
  driver::Program P = compileFixture();
  verify::VerifyOptions VOpts;
  VOpts.MaxAttempts = 2;
  VOpts.InjectFault = [](MModule &M, codegen::Image &, uint64_t) {
    for (mir::MFunction &F : M.Functions)
      for (mir::MBasicBlock &B : F.Blocks)
        for (MInstr &I : B.Instrs)
          if (I.Op == MOp::MovRI) {
            I.Imm += 40;
            return;
          }
  };
  driver::VerifiedVariant VV = driver::makeVariantVerified(
      P, diversity::Pipeline(), diversity::DiversityOptions(), 1, VOpts);
  EXPECT_TRUE(VV.UsedFallback);
  EXPECT_TRUE(VV.Report.has(ErrorCode::EquivRejected)) << VV.Report.str();
  EXPECT_TRUE(VV.Report.has(ErrorCode::EquivRefuted)) << VV.Report.str();
  EXPECT_TRUE(VV.Report.has(ErrorCode::RetriesExhausted));
}

TEST(EquivDriver, CheckEquivOffSkipsTranslationValidation) {
  // With the stage disabled, the same seam-injected value perturbation
  // must instead be caught dynamically (differential execution), so the
  // report carries no Equiv codes.
  driver::Program P = compileFixture();
  verify::VerifyOptions VOpts;
  VOpts.MaxAttempts = 1;
  VOpts.CheckEquiv = false;
  VOpts.InjectFault = [](MModule &M, codegen::Image &, uint64_t) {
    for (mir::MFunction &F : M.Functions)
      for (mir::MBasicBlock &B : F.Blocks)
        for (MInstr &I : B.Instrs)
          if (I.Op == MOp::MovRI) {
            I.Imm += 40;
            return;
          }
  };
  driver::VerifiedVariant VV = driver::makeVariantVerified(
      P, diversity::Pipeline(), diversity::DiversityOptions(), 1, VOpts);
  EXPECT_TRUE(VV.UsedFallback);
  EXPECT_FALSE(VV.Report.has(ErrorCode::EquivRejected));
  EXPECT_FALSE(VV.Report.has(ErrorCode::EquivRefuted));
}

TEST(EquivDriver, CleanVariantStillAccepted) {
  driver::Program P = compileFixture();
  verify::VerifyOptions VOpts;
  driver::VerifiedVariant VV = driver::makeVariantVerified(
      P, diversity::Pipeline(), diversity::DiversityOptions(), 1, VOpts);
  EXPECT_TRUE(VV.ok()) << VV.Report.str();
  EXPECT_EQ(VV.Attempts, 1u);
}

TEST(EquivMetrics, CountersPartitionModulesChecked) {
  obs::Registry::global().reset();
  obs::setEnabled(true);
  driver::Program P = compileFixture();
  MModule V = diversity::Pipeline().run(P.MIR, heavyNops(), 2);
  (void)proveEquivalent(P.MIR, V);
  MModule Mutant = P.MIR;
  ASSERT_TRUE(analysis::injectMirFault(Mutant, MirFaultClass::FlagClobber,
                                       7, nullptr));
  (void)proveEquivalent(P.MIR, Mutant);
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  obs::setEnabled(false);
  obs::Registry::global().reset();
  EXPECT_EQ(Snap.Counters["equiv.modules_checked"], 2u);
  EXPECT_EQ(Snap.Counters["equiv.modules_proved"], 1u);
  EXPECT_EQ(Snap.Counters["equiv.modules_refuted"], 1u);
  EXPECT_EQ(Snap.Counters["equiv.modules_checked"],
            Snap.Counters["equiv.modules_proved"] +
                Snap.Counters["equiv.modules_refuted"] +
                Snap.Counters["equiv.modules_aborted"]);
  auto It = Snap.Histograms.find("equiv.function_seconds");
  ASSERT_NE(It, Snap.Histograms.end());
  EXPECT_GT(It->second.Total, 0u);
}

} // namespace
