//===-- tests/FuzzMiniCTest.cpp - MiniC fuzz/property tests -----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Feeds seeded random MiniC programs (tests/MiniCFuzzer.h) through the
// whole pipeline:
//
//   compile -> static analyzer -> diversify -> static analyzer again
//           -> translation validation -> differential execution
//              (baseline vs. every variant)
//
// asserting no crashes, analyzer-clean baselines and variants (zero
// false positives), and baseline/variant output equality. Each seed
// additionally drives a seed-derived random subset of the composable
// transform pipeline (nop/shift/sched/regs), so generated programs
// exercise schedule randomization and register shuffling too. Every
// failure carries its seed and full source via SCOPED_TRACE, so a red
// run reproduces from the printed seed alone.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "diversity/NopInsertion.h"
#include "diversity/Transform.h"
#include "driver/Driver.h"
#include "support/Rng.h"

#include "MiniCFuzzer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pgsd;

namespace {
struct Observation {
  std::string Output;
  int32_t ExitCode;
  uint32_t Checksum;
  bool operator==(const Observation &O) const = default;
};

Observation observe(const mir::MModule &M,
                    const std::vector<int32_t> &Input) {
  mexec::RunOptions Opts;
  Opts.Input = Input;
  Opts.CollectOutput = true;
  Opts.MaxSteps = 50'000'000;
  mexec::RunResult R = mexec::run(M, Opts);
  EXPECT_FALSE(R.Trapped) << R.TrapReason;
  return {R.Output, R.ExitCode, R.Checksum};
}

} // namespace

/// ~200 generated programs; a failure reproduces from the printed seed.
class FuzzMiniCTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzMiniCTest, PipelineIsSoundOnGeneratedPrograms) {
  uint64_t Seed = GetParam();
  MiniCFuzzer Fuzzer(Seed * 0x9e3779b97f4a7c15ull + 1);
  std::string Source = Fuzzer.generate();
  SCOPED_TRACE("fuzz seed " + std::to_string(Seed) + "\n" + Source);

  // Compile. compileProgram already rejects analyzer-dirty baselines,
  // so P.ok() asserts both "compiles" and "zero analyzer false
  // positives on the baseline".
  driver::Program P = driver::compileProgram(Source, "fuzz");
  ASSERT_TRUE(P.ok()) << P.errors();
  EXPECT_TRUE(analysis::analyzeModule(P.MIR).ok());

  const std::vector<int32_t> Input = {5, -3, 99, 0, 7, 123};
  Observation Reference = observe(P.MIR, Input);

  // Profile on the same input so the profiled configs bite.
  ASSERT_TRUE(driver::profileAndStamp(P, Input));

  diversity::DiversityOptions Configs[] = {
      diversity::DiversityOptions::uniform(0.6),
      diversity::DiversityOptions::profiled(
          diversity::ProbabilityModel::Log, 0.0, 0.4),
  };
  for (const auto &Opts : Configs) {
    mir::MModule V = diversity::Pipeline().run(P.MIR, Opts, Seed + 1);
    verify::Report R = analysis::analyzeModule(V);
    EXPECT_TRUE(R.ok()) << R.str();
    EXPECT_EQ(observe(V, Input), Reference) << "variant diverged";

    // Block-shifted sibling: the paper's Section 6 transformation must
    // also leave the analyzer and the observable behaviour unchanged.
    Rng Shift(Seed ^ 0xb10c);
    diversity::insertBlockShift(V, Shift);
    verify::Report RS = analysis::analyzeModule(V);
    EXPECT_TRUE(RS.ok()) << RS.str();
    EXPECT_EQ(observe(V, Input), Reference)
        << "block-shifted variant diverged";
  }

  // Composable pipeline: a seed-derived nonempty random subset of the
  // four transforms, in canonical order, through analyzer, translation
  // validator, and differential execution. Across the 200 seeds this
  // covers every subset many times over.
  {
    Rng Picker(Seed ^ 0x7a5f00d5ull);
    unsigned Mask = 1 + static_cast<unsigned>(Picker.nextBelow(15));
    std::vector<diversity::TransformKind> Kinds;
    for (unsigned K = 0; K != diversity::NumTransformKinds; ++K)
      if (Mask & (1u << K))
        Kinds.push_back(static_cast<diversity::TransformKind>(K));
    diversity::Pipeline Pipe(Kinds);
    SCOPED_TRACE("pipeline " + Pipe.label());

    diversity::PipelineStats S;
    mir::MModule V =
        Pipe.run(P.MIR, diversity::DiversityOptions::profiled(
                            diversity::ProbabilityModel::Log, 0.0, 0.4),
                 Seed + 2, &S);
    verify::Report R = analysis::analyzeModule(V);
    EXPECT_TRUE(R.ok()) << R.str();
    verify::Report E = analysis::proveEquivalent(P.MIR, V);
    EXPECT_TRUE(E.ok()) << E.str();
    // The admission path's hints -- exact liveness facts and the
    // renaming witness -- leave the report as it was.
    auto Live = [](const mir::MModule &M) {
      return analysis::analyzeModule(
                 M, analysis::AnalysisOptions::only(
                        analysis::CheckerKind::RegLiveness))
          .ok();
    };
    analysis::EquivFacts Facts;
    Facts.BaselineLiveness = Live(P.MIR);
    Facts.VariantLiveness = Live(V);
    EXPECT_EQ(analysis::proveEquivalent(P.MIR, V, analysis::EquivOptions(),
                                        nullptr, Facts, S.Regs.Renamings)
                  .str(),
              E.str());
    EXPECT_EQ(observe(V, Input), Reference)
        << "pipeline variant diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMiniCTest,
                         ::testing::Range<uint64_t>(0, 200));
