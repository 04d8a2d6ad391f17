//===-- tests/TransformMatrixTest.cpp - Cross-transform verification -------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// The proof obligation of the composable pipeline: every transform and
// every pairwise composition must survive the *whole* admission path --
// static dataflow analysis, translation validation, differential
// execution -- on every workload of the suite, at both optimization
// levels, with zero clean-variant rejections. Alongside the clean
// matrix:
//
//   * batch parity: the parallel factory produces byte-identical
//     populations at Jobs=1 and Jobs=4 for every combo;
//   * seed entropy: 64 seeds yield pairwise-distinct .text images for
//     every combo (the diversity the security argument rests on);
//   * stream stability: the {nop} and {shift} singleton pipelines
//     byte-reproduce the historical seed walks of the pre-pipeline
//     entry points;
//   * fault injection: the two transform-bug fault classes (illegal
//     reorder across a memory dependence, live-range-violating register
//     swap) are detected 100% of the time, both by the standalone
//     prover and through the full admission path;
//   * admission hints: the prover's report is byte-identical with and
//     without liveness facts and the register-shuffle witness, on
//     clean variants, on every fault class, and under lying witnesses.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "analysis/MirFault.h"
#include "diversity/Transform.h"
#include "driver/Batch.h"
#include "driver/Driver.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <vector>

using namespace pgsd;
using diversity::Pipeline;
using diversity::TransformKind;

namespace {

/// Every single transform followed by every pairwise composition: the
/// ten cells of the verification matrix.
std::vector<Pipeline> allCombos() {
  std::vector<Pipeline> Out;
  for (unsigned A = 0; A != diversity::NumTransformKinds; ++A)
    Out.push_back(Pipeline({static_cast<TransformKind>(A)}));
  for (unsigned A = 0; A != diversity::NumTransformKinds; ++A)
    for (unsigned B = A + 1; B != diversity::NumTransformKinds; ++B)
      Out.push_back(Pipeline({static_cast<TransformKind>(A),
                              static_cast<TransformKind>(B)}));
  return Out;
}

/// The whole built-in battery: the 19 SPEC-like workloads plus the PHP
/// interpreter case study.
std::vector<workloads::Workload> fullSuite() {
  std::vector<workloads::Workload> Suite = workloads::specSuite();
  Suite.push_back(workloads::phpInterpreter());
  return Suite;
}

driver::Program compileStamped(const workloads::Workload &W,
                               bool Optimize) {
  driver::Program P =
      driver::compileProgram(W.Source, W.Name, Optimize);
  EXPECT_TRUE(P.ok()) << W.Name << ": " << P.errors();
  EXPECT_TRUE(driver::profileAndStamp(P, W.TrainInput)) << W.Name;
  return P;
}

std::string textBytes(const codegen::Image &Img) {
  return std::string(Img.Text.begin(), Img.Text.end());
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. The clean matrix: suite x combo x {O2, O0} through the full
//    admission path, zero rejections.
//===----------------------------------------------------------------------===//

class TransformMatrix : public ::testing::TestWithParam<unsigned> {};

TEST_P(TransformMatrix, CleanVariantsAdmittedEverywhere) {
  const Pipeline Pipe = allCombos()[GetParam()];
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  for (bool Optimize : {true, false}) {
    for (const workloads::Workload &W : fullSuite()) {
      driver::Program P = compileStamped(W, Optimize);
      uint64_t Seed = 0xA11CEull + GetParam() * 131 + Optimize;
      driver::VerifiedVariant VV =
          driver::makeVariantVerified(P, Pipe, Opts, Seed);
      ASSERT_TRUE(VV.ok())
          << W.Name << " (" << (Optimize ? "O2" : "O0") << ", "
          << Pipe.label() << "): clean variant rejected:\n"
          << VV.Report.str();
      // Zero rejections means zero: the first attempt must be admitted,
      // not merely some attempt within the retry budget.
      EXPECT_EQ(VV.Attempts, 1u)
          << W.Name << " (" << Pipe.label() << "): " << VV.Report.str();
      EXPECT_EQ(VV.SeedUsed, Seed);
    }
  }
}

TEST_P(TransformMatrix, BatchSerialParallelParity) {
  const Pipeline Pipe = allCombos()[GetParam()];
  const workloads::Workload W = workloads::specSuite().front();
  driver::Program P = compileStamped(W, /*Optimize=*/true);
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  std::vector<uint64_t> Seeds;
  for (uint64_t S = 40; S != 48; ++S)
    Seeds.push_back(S);

  driver::BatchOptions Serial;
  Serial.Jobs = 1;
  driver::BatchOptions Parallel;
  Parallel.Jobs = 4;
  driver::BatchResult A =
      driver::makeVariantsBatch(P, Pipe, Opts, Seeds, Serial);
  driver::BatchResult B =
      driver::makeVariantsBatch(P, Pipe, Opts, Seeds, Parallel);

  ASSERT_EQ(A.Variants.size(), Seeds.size());
  ASSERT_EQ(B.Variants.size(), Seeds.size());
  EXPECT_EQ(A.Accepted, Seeds.size()) << Pipe.label();
  for (size_t I = 0; I != Seeds.size(); ++I) {
    EXPECT_EQ(textBytes(A.Variants[I].V.Image),
              textBytes(B.Variants[I].V.Image))
        << Pipe.label() << ": seed " << Seeds[I]
        << " image differs between Jobs=1 and Jobs=4";
    EXPECT_EQ(A.Variants[I].SeedUsed, B.Variants[I].SeedUsed);
    EXPECT_EQ(A.Variants[I].Attempts, B.Variants[I].Attempts);
  }
}

TEST_P(TransformMatrix, SixtyFourSeedsPairwiseDistinct) {
  const Pipeline Pipe = allCombos()[GetParam()];
  // The largest workload gives every transform room to express entropy
  // (register shuffling in particular draws one of at most six
  // permutations per function, so the distinctness space grows with
  // function count).
  driver::Program P =
      compileStamped(workloads::phpInterpreter(), /*Optimize=*/true);
  auto Opts = diversity::DiversityOptions::uniform(1.0);
  std::set<std::string> Images;
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    driver::Variant V = driver::makeVariant(P, Pipe, Opts, Seed);
    Images.insert(textBytes(V.Image));
  }
  EXPECT_EQ(Images.size(), 64u)
      << Pipe.label() << ": seed collision -- only " << Images.size()
      << " distinct .text images from 64 seeds";
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TransformMatrix, ::testing::Range(0u, 10u),
    [](const ::testing::TestParamInfo<unsigned> &Info) {
      std::string Name = allCombos()[Info.param].label();
      for (char &C : Name)
        if (C == '+')
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// 2. Stream stability: singleton pipelines byte-reproduce the
//    pre-pipeline seed walks.
//===----------------------------------------------------------------------===//

TEST(TransformStreams, NopSingletonReproducesLegacyWalk) {
  const workloads::Workload W = workloads::specSuite().front();
  driver::Program P = compileStamped(W, /*Optimize=*/true);
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    // The pre-pipeline walk: NOP insertion seeded with Rng(Seed).
    mir::MModule Legacy;
    Rng G(Seed);
    diversity::InsertionStats Direct =
        diversity::insertNops(P.MIR, Legacy, Opts, G);
    diversity::PipelineStats S;
    mir::MModule Piped =
        Pipeline({TransformKind::Nop}).run(P.MIR, Opts, Seed, &S);
    EXPECT_EQ(textBytes(codegen::link(Legacy)),
              textBytes(codegen::link(Piped)))
        << "seed " << Seed << ": {nop} diverged from the legacy stream";
    EXPECT_EQ(S.Nop.CandidateSites, Direct.CandidateSites);
    EXPECT_EQ(S.Nop.NopsInserted, Direct.NopsInserted);
    EXPECT_EQ(S.Nop.NopsRejected, Direct.NopsRejected);
  }
}

TEST(TransformStreams, ShiftSingletonReproducesLegacyWalk) {
  const workloads::Workload W = workloads::specSuite().front();
  driver::Program P = compileStamped(W, /*Optimize=*/true);
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    // The pre-pipeline walk: block shifting seeded with
    // Rng(Seed ^ 0xb10c).
    mir::MModule Legacy = P.MIR;
    Rng G(Seed ^ 0xb10c);
    diversity::BlockShiftStats LS = diversity::insertBlockShift(Legacy, G);
    diversity::PipelineStats S;
    mir::MModule Piped =
        Pipeline({TransformKind::Shift}).run(P.MIR, Opts, Seed, &S);
    EXPECT_EQ(textBytes(codegen::link(Legacy)),
              textBytes(codegen::link(Piped)))
        << "seed " << Seed
        << ": {shift} diverged from the legacy stream";
    EXPECT_EQ(S.Shift.FunctionsShifted, LS.FunctionsShifted);
    EXPECT_EQ(S.Shift.PaddingInstrs, LS.PaddingInstrs);
  }
}

TEST(TransformStreams, LaterNopWritesFromTheWorkingModule) {
  // NOP insertion after another transform reads the module built so far
  // and writes the variant anew, on the kind-keyed sub-stream: the same
  // module as shifting a copy in place and inserting NOPs from it.
  const workloads::Workload W = workloads::specSuite().front();
  driver::Program P = compileStamped(W, /*Optimize=*/true);
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  Opts.IncludeXchgNops = true;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Rng Base(Seed);
    mir::MModule Shifted = P.MIR;
    Rng ShiftStream =
        Base.split(1 + static_cast<uint64_t>(TransformKind::Shift));
    diversity::insertBlockShift(Shifted, ShiftStream, 12, true);
    Rng NopStream =
        Base.split(1 + static_cast<uint64_t>(TransformKind::Nop));
    mir::MModule Expected;
    diversity::InsertionStats Direct =
        diversity::insertNops(Shifted, Expected, Opts, NopStream);
    diversity::PipelineStats S;
    mir::MModule Piped =
        Pipeline({TransformKind::Shift, TransformKind::Nop})
            .run(P.MIR, Opts, Seed, &S);
    EXPECT_EQ(mir::print(Piped), mir::print(Expected)) << "seed " << Seed;
    EXPECT_EQ(S.Nop.NopsInserted, Direct.NopsInserted);
    EXPECT_GT(S.Shift.FunctionsShifted, 0u);
  }
}

TEST(TransformStreams, DefaultPipelineIsNopOnly) {
  Pipeline Default;
  ASSERT_EQ(Default.kinds().size(), 1u);
  EXPECT_EQ(Default.kinds().front(), TransformKind::Nop);
  EXPECT_EQ(Default.label(), "nop");
}

TEST(TransformStreams, ParseListRejectsBadInput) {
  std::vector<TransformKind> Kinds;
  std::string Error;
  EXPECT_TRUE(diversity::parseTransformList("nop,shift,sched,regs",
                                            Kinds, &Error));
  ASSERT_EQ(Kinds.size(), 4u);
  EXPECT_FALSE(diversity::parseTransformList("nop,bogus", Kinds, &Error));
  EXPECT_NE(Error.find("bogus"), std::string::npos);
  EXPECT_FALSE(diversity::parseTransformList("nop,nop", Kinds, &Error));
  EXPECT_NE(Error.find("duplicate"), std::string::npos);
  EXPECT_FALSE(diversity::parseTransformList("", Kinds, &Error));
}

//===----------------------------------------------------------------------===//
// 3. Fault injection: the transform-bug classes are detected 100%.
//===----------------------------------------------------------------------===//

TEST(TransformFaults, NewClassesRefutedByProver) {
  driver::Program P =
      compileStamped(workloads::specSuite().front(), /*Optimize=*/true);
  for (analysis::MirFaultClass Class :
       {analysis::MirFaultClass::IllegalReorder,
        analysis::MirFaultClass::LiveRangeSwap}) {
    unsigned Injected = 0;
    for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
      mir::MModule Mutant = P.MIR;
      std::string Desc;
      if (!analysis::injectMirFault(Mutant, Class, Seed, &Desc))
        continue;
      ++Injected;
      verify::Report R = analysis::proveEquivalent(P.MIR, Mutant);
      EXPECT_FALSE(R.ok())
          << analysis::mirFaultClassName(Class) << " seed " << Seed
          << " (" << Desc << "): prover accepted a faulty module";
    }
    EXPECT_GT(Injected, 0u)
        << analysis::mirFaultClassName(Class) << ": no eligible site";
  }
}

TEST(TransformFaults, NewClassesRejectedByAdmissionPath) {
  // End-to-end: a buggy scheduler/allocator hiding inside a sched+regs
  // pipeline must exhaust every retry and fall back to the baseline --
  // the admission path never ships the corrupted variant.
  driver::Program P =
      compileStamped(workloads::specSuite().front(), /*Optimize=*/true);
  Pipeline Pipe({TransformKind::Sched, TransformKind::Regs});
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  for (analysis::MirFaultClass Class :
       {analysis::MirFaultClass::IllegalReorder,
        analysis::MirFaultClass::LiveRangeSwap}) {
    verify::VerifyOptions VOpts;
    VOpts.MaxAttempts = 3;
    unsigned Injections = 0;
    VOpts.InjectFault = [&](mir::MModule &M, codegen::Image &Img,
                            uint64_t Seed) {
      if (analysis::injectMirFault(M, Class, Seed)) {
        ++Injections;
        Img = codegen::link(M); // keep the image consistent with the MIR
      }
    };
    driver::VerifiedVariant VV =
        driver::makeVariantVerified(P, Pipe, Opts, 5, VOpts);
    ASSERT_GT(Injections, 0u)
        << analysis::mirFaultClassName(Class) << ": no eligible site";
    EXPECT_TRUE(VV.UsedFallback)
        << analysis::mirFaultClassName(Class)
        << ": admission path shipped a corrupted variant";
    EXPECT_FALSE(VV.Report.ok());
  }
}

TEST(TransformFaults, PipelineVariantsWithInjectedReorderRefuted) {
  // The prover must also catch the bug when the surrounding variant is
  // itself legitimately diversified: inject into a sched-randomized
  // module and prove against the *original* baseline.
  driver::Program P =
      compileStamped(workloads::specSuite().front(), /*Optimize=*/true);
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  Pipeline Pipe({TransformKind::Sched});
  unsigned Injected = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    mir::MModule Variant = Pipe.run(P.MIR, Opts, Seed);
    ASSERT_TRUE(analysis::proveEquivalent(P.MIR, Variant).ok());
    if (!analysis::injectMirFault(
            Variant, analysis::MirFaultClass::IllegalReorder, Seed))
      continue;
    ++Injected;
    EXPECT_FALSE(analysis::proveEquivalent(P.MIR, Variant).ok())
        << "seed " << Seed;
  }
  EXPECT_GT(Injected, 0u);
}

//===----------------------------------------------------------------------===//
// 4. Admission hints: liveness facts and the renaming witness change
//    only the time a proof takes, never its report.
//===----------------------------------------------------------------------===//

namespace {

bool livenessProved(const mir::MModule &M) {
  return analysis::analyzeModule(
             M, analysis::AnalysisOptions::only(
                    analysis::CheckerKind::RegLiveness))
      .ok();
}

/// One proof's report and tally.
struct Proof {
  verify::Report R;
  analysis::EquivStats S;
};

/// Proves \p V against \p Base without hints.
Proof proveBare(const mir::MModule &Base, const mir::MModule &V) {
  Proof Out;
  Out.R = analysis::proveEquivalent(Base, V, analysis::EquivOptions(),
                                    &Out.S);
  return Out;
}

/// Proves \p V against \p Base with facts computed on exactly these
/// modules and \p Witness as given, and expects the verdict and the
/// report of \p Bare byte for byte.
Proof expectSameReport(const Proof &Bare, const mir::MModule &Base,
                       bool BaseLive, const mir::MModule &V,
                       std::span<const uint8_t> Witness,
                       const std::string &What) {
  analysis::EquivFacts Facts;
  Facts.BaselineLiveness = BaseLive;
  Facts.VariantLiveness = livenessProved(V);
  Proof Out;
  Out.R = analysis::proveEquivalent(Base, V, analysis::EquivOptions(),
                                    &Out.S, Facts, Witness);
  EXPECT_EQ(Bare.R.ok(), Out.R.ok()) << What;
  EXPECT_EQ(Bare.R.str(), Out.R.str()) << What;
  EXPECT_EQ(Bare.S.FunctionsProved, Out.S.FunctionsProved) << What;
  EXPECT_EQ(Bare.S.FunctionsRefuted, Out.S.FunctionsRefuted) << What;
  EXPECT_EQ(Bare.S.FunctionsAborted, Out.S.FunctionsAborted) << What;
  return Out;
}

/// Witnesses that lie: every function shifted to each other row in turn
/// (so each function sees every non-applied index), one out of range,
/// an empty one and an over-long one.
std::vector<std::vector<uint8_t>>
wrongWitnesses(const std::vector<uint8_t> &Applied) {
  std::vector<std::vector<uint8_t>> Out;
  for (unsigned K = 1; K != analysis::NumCalleeSavedRenamings; ++K) {
    std::vector<uint8_t> W = Applied;
    for (uint8_t &Row : W)
      Row = static_cast<uint8_t>((Row + K) %
                                 analysis::NumCalleeSavedRenamings);
    Out.push_back(std::move(W));
  }
  Out.push_back(std::vector<uint8_t>(Applied.size(), 0xFF));
  Out.push_back({});
  std::vector<uint8_t> Long = Applied;
  Long.insert(Long.end(), {5, 0, 3});
  Out.push_back(std::move(Long));
  return Out;
}

} // namespace

TEST(TransformHints, CleanMatrixReportsAreUnchanged) {
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  const std::vector<Pipeline> Combos = allCombos();
  uint64_t ShuffledSearches = 0;
  for (bool Optimize : {true, false}) {
    for (const workloads::Workload &W : fullSuite()) {
      driver::Program P = compileStamped(W, Optimize);
      const bool BaseLive = livenessProved(P.MIR);
      for (const Pipeline &Pipe : Combos) {
        for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
          diversity::PipelineStats S;
          mir::MModule V = Pipe.run(P.MIR, Opts, Seed, &S);
          const std::vector<uint8_t> &Witness = S.Regs.Renamings;
          std::string What = W.Name + " (" + (Optimize ? "O2" : "O0") +
                             ", " + Pipe.label() + ", seed " +
                             std::to_string(Seed) + ")";
          Proof Bare = proveBare(P.MIR, V);
          ASSERT_TRUE(Bare.R.ok()) << What << ": " << Bare.R.str();
          Proof Hinted =
              expectSameReport(Bare, P.MIR, BaseLive, V, Witness, What);
          // The witness names the proving renaming: one candidate per
          // compared function.
          EXPECT_EQ(Hinted.S.CandidatesTried, P.MIR.Functions.size())
              << What;
          if (!Pipe.contains(TransformKind::Regs)) {
            EXPECT_TRUE(Witness.empty()) << What;
            continue;
          }
          EXPECT_EQ(Witness.size(), P.MIR.Functions.size()) << What;
          ShuffledSearches += Bare.S.CandidatesTried - Bare.S.FunctionsProved;
          if (Seed == 1)
            for (const std::vector<uint8_t> &Wrong : wrongWitnesses(Witness))
              expectSameReport(Bare, P.MIR, BaseLive, V, Wrong,
                               What + " wrong witness");
        }
      }
    }
  }
  // Without the witness, some shuffled function needed the search.
  EXPECT_GT(ShuffledSearches, 0u);
}

TEST(TransformHints, FaultReportsAreUnchanged) {
  // Every fault class, injected into a four-transform variant: the
  // witness (now partly wrong) and the exact facts of the mutant must
  // leave each refutation's text as it was.
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  const Pipeline Pipe({TransformKind::Nop, TransformKind::Shift,
                       TransformKind::Sched, TransformKind::Regs});
  unsigned Injected[analysis::NumAllMirFaultClasses] = {};
  unsigned Refuted = 0;
  for (const workloads::Workload &W : fullSuite()) {
    driver::Program P = compileStamped(W, /*Optimize=*/true);
    const bool BaseLive = livenessProved(P.MIR);
    for (unsigned C = 0; C != analysis::NumAllMirFaultClasses; ++C) {
      auto Class = static_cast<analysis::MirFaultClass>(C);
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        diversity::PipelineStats S;
        mir::MModule V = Pipe.run(P.MIR, Opts, Seed, &S);
        if (!analysis::injectMirFault(V, Class, Seed))
          continue;
        ++Injected[C];
        std::string What = W.Name + " " +
                           analysis::mirFaultClassName(Class) + " seed " +
                           std::to_string(Seed);
        Proof Bare = proveBare(P.MIR, V);
        Refuted += !Bare.R.ok();
        expectSameReport(Bare, P.MIR, BaseLive, V, S.Regs.Renamings, What);
        expectSameReport(Bare, P.MIR, BaseLive, V, {},
                         What + " no witness");
      }
    }
  }
  for (unsigned C = 0; C != analysis::NumAllMirFaultClasses; ++C)
    EXPECT_GT(Injected[C], 0u) << analysis::mirFaultClassName(
        static_cast<analysis::MirFaultClass>(C));
  EXPECT_GT(Refuted, 0u);
}
