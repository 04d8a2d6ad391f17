//===-- tests/MirEquivTest.cpp - Equality modulo NOPs soundness -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// mir::equalModuloNops lets differential execution settle a variant
// without running it (verify/Verifier.cpp). These tests hold the
// relation to its claim on their own, running baseline and variant
// through mexec directly rather than through the verifier: every
// NOP-only variant of every workload satisfies it, runs like its
// baseline on every battery input within twice the baseline's steps,
// and prints like its baseline once its NOPs are deleted; every other
// kind of change breaks it.
//
//===----------------------------------------------------------------------===//

#include "analysis/MirFault.h"
#include "bench/Experiments.h"
#include "driver/Driver.h"
#include "mexec/Precompiled.h"
#include "verify/Verifier.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pgsd;

namespace {

/// One compiled, profile-stamped program per workload, built once.
const std::vector<driver::Program> &programs() {
  static const std::vector<driver::Program> Progs = [] {
    std::vector<driver::Program> Out;
    for (const workloads::Workload &W : workloads::specSuite()) {
      driver::Program P = driver::compileProgram(W.Source, W.Name);
      EXPECT_TRUE(P.ok()) << P.errors();
      EXPECT_TRUE(driver::profileAndStamp(P, W.TrainInput)) << W.Name;
      Out.push_back(std::move(P));
    }
    return Out;
  }();
  return Progs;
}

/// \p M with every NOP deleted.
mir::MModule stripNops(mir::MModule M) {
  for (mir::MFunction &F : M.Functions)
    for (mir::MBasicBlock &BB : F.Blocks)
      std::erase_if(BB.Instrs, [](const mir::MInstr &I) {
        return I.Op == mir::MOp::Nop;
      });
  return M;
}

/// The paper's five Figure 4 configurations, plus the bus-locking XCHG
/// NOPs the paper leaves out.
std::vector<diversity::DiversityOptions> configs() {
  std::vector<diversity::DiversityOptions> Out;
  for (const experiments::Config &C : experiments::paperConfigs())
    Out.push_back(C.Opts);
  diversity::DiversityOptions Xchg = diversity::DiversityOptions::uniform(0.5);
  Xchg.IncludeXchgNops = true;
  Out.push_back(Xchg);
  return Out;
}

const diversity::Pipeline NopOnly;

mexec::RunOptions runOptions(const std::vector<int32_t> &Input,
                             uint64_t MaxSteps) {
  mexec::RunOptions Run;
  Run.Input = Input;
  Run.CollectOutput = true;
  Run.MaxSteps = MaxSteps;
  return Run;
}

/// A {nop} variant of \p P under the paper's headline configuration.
mir::MModule nopVariant(const driver::Program &P, uint64_t Seed) {
  return driver::makeVariant(P, NopOnly, configs()[0], Seed).MIR;
}

} // namespace

TEST(MirEquiv, NopVariantsAreEqualModuloNopsAndRunAlike) {
  const std::vector<std::vector<int32_t>> Battery =
      verify::defaultInputBattery();
  const uint64_t MaxSteps = verify::VerifyOptions().MaxSteps;
  const std::vector<diversity::DiversityOptions> Configs = configs();
  size_t Variants = 0, Compared = 0;
  for (const driver::Program &P : programs()) {
    SCOPED_TRACE(P.MIR.Name);
    const std::string BasePrint = mir::print(P.MIR);
    const mexec::Precompiled Base(P.MIR);
    std::vector<mexec::RunResult> BaseRuns;
    for (const std::vector<int32_t> &Input : Battery)
      BaseRuns.push_back(Base.run(runOptions(Input, MaxSteps)));

    for (size_t C = 0; C != Configs.size(); ++C) {
      for (uint64_t Seed : {1, 2, 3}) {
        SCOPED_TRACE("config " + std::to_string(C) + " seed " +
                     std::to_string(Seed));
        driver::Variant V = driver::makeVariant(P, NopOnly, Configs[C], Seed);
        ASSERT_GT(V.Pipeline.Nop.NopsInserted, 0u);
        ++Variants;
        EXPECT_TRUE(mir::equalModuloNops(P.MIR, V.MIR));
        EXPECT_EQ(mir::print(stripNops(V.MIR)), BasePrint);

        const mexec::Precompiled Var(V.MIR);
        for (size_t In = 0; In != Battery.size(); ++In) {
          const mexec::RunResult &RB = BaseRuns[In];
          if (RB.Trapped && RB.Trap == mexec::TrapKind::StepBudget)
            continue; // Differential execution compares nothing here.
          SCOPED_TRACE("input #" + std::to_string(In));
          ++Compared;
          // The relation's step bound, tighter than the verifier's
          // 3 * Instructions + 4096 budget.
          mexec::RunResult RV = Var.run(
              runOptions(Battery[In], 2 * RB.Instructions + 1));
          EXPECT_EQ(RV.Trapped, RB.Trapped);
          EXPECT_EQ(RV.Trap, RB.Trap);
          EXPECT_EQ(RV.Checksum, RB.Checksum);
          EXPECT_EQ(RV.Output, RB.Output);
          EXPECT_EQ(RV.ExitCode, RB.ExitCode);
          EXPECT_LE(RV.Instructions, 2 * RB.Instructions);
        }
      }
    }
  }
  // Every variant was compared on some input the baseline finishes.
  EXPECT_EQ(Variants, programs().size() * Configs.size() * 3);
  EXPECT_GE(Compared, Variants);
}

TEST(MirEquiv, EveryMirFaultClassBreaksTheRelation) {
  for (unsigned C = 0; C != analysis::NumAllMirFaultClasses; ++C) {
    const auto Class = static_cast<analysis::MirFaultClass>(C);
    SCOPED_TRACE(analysis::mirFaultClassName(Class));
    unsigned Injected = 0;
    for (const driver::Program &P : programs()) {
      mir::MModule V = nopVariant(P, 11);
      ASSERT_TRUE(mir::equalModuloNops(P.MIR, V));
      std::string Desc;
      if (!analysis::injectMirFault(V, Class, 5, &Desc))
        continue; // No site of this class in this workload.
      ++Injected;
      EXPECT_FALSE(mir::equalModuloNops(P.MIR, V)) << P.MIR.Name << ": "
                                                   << Desc;
    }
    EXPECT_GT(Injected, 0u);
  }
}

TEST(MirEquiv, OtherTransformsBreakTheRelation) {
  const driver::Program &P = programs()[3];
  const std::string BasePrint = mir::print(P.MIR);
  for (diversity::TransformKind K :
       {diversity::TransformKind::Shift, diversity::TransformKind::Sched,
        diversity::TransformKind::Regs}) {
    SCOPED_TRACE(diversity::transformKindName(K));
    const diversity::Pipeline Pipe({diversity::TransformKind::Nop, K});
    // The first seed whose variant differs from the baseline in more
    // than its NOPs (by print, independently of the relation).
    bool Found = false;
    for (uint64_t Seed = 1; Seed != 33 && !Found; ++Seed) {
      driver::Variant V = driver::makeVariant(P, Pipe, configs()[0], Seed);
      if (mir::print(stripNops(V.MIR)) == BasePrint)
        continue;
      Found = true;
      EXPECT_FALSE(mir::equalModuloNops(P.MIR, V.MIR)) << "seed " << Seed;
    }
    EXPECT_TRUE(Found) << "no seed changed the module";
  }
}

TEST(MirEquiv, ChangedGlobalInitializerBreaksTheRelation) {
  driver::Program P = driver::compileProgram(
      "global table[4] = { 3, 5, 9 }; fn main() { var s = 0; var i = 0; "
      "while (i < 12) { s = s + table[i % 3] * i; i = i + 1; } "
      "print_int(s); return 0; }",
      "initialized");
  ASSERT_TRUE(P.ok()) << P.errors();
  mir::MModule V = nopVariant(P, 7);
  ASSERT_TRUE(mir::equalModuloNops(P.MIR, V));
  ASSERT_FALSE(V.Globals.empty());
  ASSERT_FALSE(V.Globals[0].Init.empty());
  ++V.Globals[0].Init[0];
  EXPECT_FALSE(mir::equalModuloNops(P.MIR, V));
}

TEST(MirEquiv, NamesAndProfileCountsAreNotCompared) {
  const driver::Program &P = programs()[0];
  mir::MModule V = nopVariant(P, 3);
  V.Name += "-variant";
  V.Functions[0].Name += "-renamed";
  V.Functions[0].Blocks[0].Name += "-renamed";
  V.Functions[0].Blocks[0].ProfileCount += 17;
  EXPECT_TRUE(mir::equalModuloNops(P.MIR, V));
}

TEST(MirEquiv, OnlyOneNopMayPrecedeEachInstruction) {
  const driver::Program &P = programs()[0];
  // The longest block of the baseline: two NOPs before its first
  // instruction keep the block's NOPs below its other instructions, yet
  // break the relation.
  size_t F = 0, B = 0;
  for (size_t I = 0; I != P.MIR.Functions.size(); ++I)
    for (size_t J = 0; J != P.MIR.Functions[I].Blocks.size(); ++J)
      if (P.MIR.Functions[I].Blocks[J].Instrs.size() >
          P.MIR.Functions[F].Blocks[B].Instrs.size()) {
        F = I;
        B = J;
      }
  ASSERT_GE(P.MIR.Functions[F].Blocks[B].Instrs.size(), 3u);
  mir::MInstr Nop;
  Nop.Op = mir::MOp::Nop;

  mir::MModule One = P.MIR;
  auto &OneInstrs = One.Functions[F].Blocks[B].Instrs;
  OneInstrs.insert(OneInstrs.begin(), Nop);
  EXPECT_TRUE(mir::equalModuloNops(P.MIR, One));

  mir::MModule Two = One;
  auto &TwoInstrs = Two.Functions[F].Blocks[B].Instrs;
  TwoInstrs.insert(TwoInstrs.begin(), Nop);
  EXPECT_FALSE(mir::equalModuloNops(P.MIR, Two));

  // A NOP after a block's last instruction precedes nothing.
  mir::MModule Trailing = P.MIR;
  Trailing.Functions[F].Blocks[B].Instrs.push_back(Nop);
  EXPECT_FALSE(mir::equalModuloNops(P.MIR, Trailing));
}
