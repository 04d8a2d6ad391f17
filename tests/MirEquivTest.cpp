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
// verify::verifyVariant admits such a variant on the relation alone,
// once its baseline's analysis is clean. The Admission tests pin why no
// verdict moves: every NOP-only variant gets its baseline's analyzer
// verdict and is proved, an unclean baseline's variant is still
// rejected by its own analysis, and a settled attempt runs neither the
// analyzer nor the prover.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "analysis/MirFault.h"
#include "bench/Experiments.h"
#include "codegen/Linker.h"
#include "driver/Driver.h"
#include "mexec/Precompiled.h"
#include "obs/Metrics.h"
#include "verify/BaselineCache.h"
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

//===----------------------------------------------------------------------===//
// Admission by the relation
//===----------------------------------------------------------------------===//

TEST(MirEquivAdmission, NopVariantsKeepTheBaselineVerdictAndAreProved) {
  const std::vector<diversity::DiversityOptions> Configs = configs();
  size_t Variants = 0;
  for (const driver::Program &P : programs()) {
    SCOPED_TRACE(P.MIR.Name);
    const verify::Report Base = analysis::analyzeModule(P.MIR);
    ASSERT_TRUE(Base.ok()) << Base.str();
    for (size_t C = 0; C != Configs.size(); ++C) {
      for (uint64_t Seed : {1, 2, 3}) {
        SCOPED_TRACE("config " + std::to_string(C) + " seed " +
                     std::to_string(Seed));
        driver::Variant V = driver::makeVariant(P, NopOnly, Configs[C], Seed);
        ++Variants;
        ASSERT_TRUE(mir::equalModuloNops(P.MIR, V.MIR));
        const verify::Report Own = analysis::analyzeModule(V.MIR);
        EXPECT_EQ(Own.ok(), Base.ok()) << Own.str();
        const verify::Report Proof =
            analysis::proveEquivalent(P.MIR, V.MIR);
        EXPECT_TRUE(Proof.ok()) << Proof.str();
      }
    }
  }
  EXPECT_EQ(Variants, programs().size() * Configs.size() * 3);
}

TEST(MirEquivAdmission, UncleanBaselineVariantIsRejectedByItsOwnAnalysis) {
  // The checker-aligned classes the NOP pass can run on: a CFG break or
  // a flag clobber in the baseline would trip the pass's own assertion.
  const analysis::MirFaultClass Classes[] = {
      analysis::MirFaultClass::DroppedDef,
      analysis::MirFaultClass::UnbalancedPush,
      analysis::MirFaultClass::FrameEscape,
      analysis::MirFaultClass::CallContractBreak,
  };
  for (analysis::MirFaultClass Class : Classes) {
    SCOPED_TRACE(analysis::mirFaultClassName(Class));
    unsigned Rejected = 0;
    for (const driver::Program &P : programs()) {
      mir::MModule Base = P.MIR;
      if (!analysis::injectMirFault(Base, Class, 5))
        continue;
      if (analysis::analyzeModule(Base).ok())
        continue; // The analyzer does not see this site; nothing to pin.
      mir::MModule V = diversity::Pipeline().run(Base, configs()[0], 9);
      ASSERT_TRUE(mir::equalModuloNops(Base, V)) << P.MIR.Name;

      verify::VerifyOptions Opts;
      verify::BaselineCache Cache(Base, Opts);
      Opts.Cache = &Cache;
      bool ModuloNops = true;
      verify::Report R = verify::verifyVariant(Base, V, codegen::link(V),
                                               Opts, {}, &ModuloNops);
      EXPECT_FALSE(ModuloNops) << P.MIR.Name;
      EXPECT_FALSE(Cache.analysisClean());
      EXPECT_EQ(Cache.identical(), 0u);
      // Exactly the diagnostics of the variant's own analysis.
      verify::Report Want = analysis::analyzeModule(V);
      Want.add(verify::ErrorCode::StaticAnalysisRejected,
               "variant rejected by static analysis before execution");
      EXPECT_EQ(R.str(), Want.str()) << P.MIR.Name;
      EXPECT_TRUE(R.has(verify::ErrorCode::StaticAnalysisRejected));
      ++Rejected;
    }
    EXPECT_GT(Rejected, 0u);
  }
}

TEST(MirEquivAdmission, SettledAttemptRunsNeitherAnalyzerNorProver) {
  const driver::Program &P = programs()[0];
  driver::Variant V = driver::makeVariant(P, NopOnly, configs()[0], 4);
  ASSERT_TRUE(mir::equalModuloNops(P.MIR, V.MIR));
  verify::VerifyOptions Opts;
  verify::BaselineCache Cache(P.MIR, Opts);
  Opts.Cache = &Cache;
  ASSERT_TRUE(Cache.analysisClean()); // the baseline's analysis, up front

  const bool WasEnabled = obs::enabled();
  obs::setEnabled(true);
  obs::LocalMetrics Sink;
  bool ModuloNops = false;
  verify::Report R;
  {
    obs::ScopedSink Route(&Sink);
    R = verify::verifyVariant(P.MIR, V.MIR, V.Image, Opts, {}, &ModuloNops);
  }
  obs::setEnabled(WasEnabled);

  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_TRUE(ModuloNops);
  EXPECT_EQ(Cache.identical(), 1u);
  EXPECT_EQ(Cache.fills() + Cache.hits(), 0u);
  for (const auto &[Name, Stats] : Sink.Phases) {
    EXPECT_NE(Name.rfind("analysis.", 0), 0u) << Name;
    EXPECT_NE(Name, "equiv.prove");
    EXPECT_NE(Name, "verify.diff_execute");
  }
  // The structural checks still ran.
  EXPECT_TRUE(Sink.Phases.count("verify.profile"));
  EXPECT_TRUE(Sink.Phases.count("verify.image"));
}
