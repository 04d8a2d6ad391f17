//===-- tests/DriverTest.cpp - Driver facade tests ---------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "driver/Driver.h"
#include "obs/Metrics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace pgsd;

TEST(Driver, ReportsFrontendErrors) {
  driver::Program P =
      driver::compileProgram("fn main() { return undeclared; }", "bad");
  EXPECT_FALSE(P.ok());
  EXPECT_NE(P.errors().find("undeclared"), std::string::npos);
}

TEST(Driver, ReportsSyntaxErrorsWithLocations) {
  driver::Program P =
      driver::compileProgram("fn main() {\n  var x = ;\n}", "bad");
  EXPECT_FALSE(P.ok());
  EXPECT_NE(P.errors().find("2:"), std::string::npos); // line number
}

TEST(Driver, ProfileAndStampFailsOnTrappingTrainingRun) {
  driver::Program P = driver::compileProgram(
      "fn main() { return 1 / read_int(); }", "trap");
  ASSERT_TRUE(P.ok());
  EXPECT_FALSE(driver::profileAndStamp(P, {0})); // division by zero
  EXPECT_FALSE(P.HasProfile);
  EXPECT_TRUE(driver::profileAndStamp(P, {4}));
  EXPECT_TRUE(P.HasProfile);
}

TEST(Driver, BaselineLinkIsDeterministic) {
  driver::Program P = driver::compileProgram(
      "global g[8]; fn main() { g[0] = 1; return g[0]; }", "det");
  ASSERT_TRUE(P.ok());
  codegen::Image A = driver::linkBaseline(P);
  codegen::Image B = driver::linkBaseline(P);
  EXPECT_EQ(A.Text, B.Text);
  EXPECT_EQ(A.FuncOffsets, B.FuncOffsets);
  EXPECT_EQ(A.GlobalAddrs, B.GlobalAddrs);
}

TEST(Driver, VariantIsDeterministicPerSeed) {
  driver::Program P = driver::compileProgram(
      "fn main() { var s = 0; var i = 0; while (i < 50) { s = s + i; "
      "i = i + 1; } return s; }",
      "var");
  ASSERT_TRUE(P.ok());
  auto Opts = diversity::DiversityOptions::uniform(0.5);
  driver::Variant A = driver::makeVariant(P, Opts, 3);
  driver::Variant B = driver::makeVariant(P, Opts, 3);
  EXPECT_EQ(A.Image.Text, B.Image.Text);
  EXPECT_EQ(A.Pipeline.Nop.NopsInserted, B.Pipeline.Nop.NopsInserted);
}

TEST(Driver, DefaultOverloadMatchesNopPipeline) {
  // makeVariant(P, Opts, Seed) is the call the Figure 4 and Table 2
  // quality numbers are built on; it must stay byte-identical to the
  // explicit {nop} pipeline it forwards to.
  driver::Program P = driver::compileProgram(
      "fn main() { var s = 0; var i = 0; while (i < 50) { s = s + i; "
      "i = i + 1; } return s; }",
      "fwd");
  ASSERT_TRUE(P.ok());
  ASSERT_TRUE(driver::profileAndStamp(P, {}));
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  for (uint64_t Seed = 0; Seed != 16; ++Seed) {
    driver::Variant A = driver::makeVariant(P, Opts, Seed);
    driver::Variant B =
        driver::makeVariant(P, diversity::Pipeline(), Opts, Seed);
    EXPECT_EQ(mir::print(A.MIR), mir::print(B.MIR)) << "seed " << Seed;
    EXPECT_EQ(A.Image.Text, B.Image.Text) << "seed " << Seed;
  }
}

TEST(Driver, OutputCollectionIsOptIn) {
  driver::Program P = driver::compileProgram(
      "fn main() { print_int(42); return 0; }", "out");
  ASSERT_TRUE(P.ok());
  mexec::RunResult Quiet = driver::execute(P.MIR, {}, false);
  EXPECT_TRUE(Quiet.Output.empty());
  mexec::RunResult Loud = driver::execute(P.MIR, {}, true);
  EXPECT_EQ(Loud.Output, "42\n");
  // The checksum observes the print either way.
  EXPECT_EQ(Quiet.Checksum, Loud.Checksum);
}

TEST(Driver, UnoptimizedAndOptimizedShareInterface) {
  const char *Source =
      "fn main() { var x = 2 + 3; print_int(x * x); return 0; }";
  driver::Program O2 = driver::compileProgram(Source, "o2", true);
  driver::Program O0 = driver::compileProgram(Source, "o0", false);
  ASSERT_TRUE(O2.ok());
  ASSERT_TRUE(O0.ok());
  // -O2 emits strictly less machine code for this program.
  auto Count = [](const driver::Program &P) {
    size_t N = 0;
    for (const auto &F : P.MIR.Functions)
      for (const auto &BB : F.Blocks)
        N += BB.Instrs.size();
    return N;
  };
  EXPECT_LT(Count(O2), Count(O0));
  EXPECT_EQ(driver::execute(O2.MIR, {}, true).Output,
            driver::execute(O0.MIR, {}, true).Output);
}

TEST(Driver, AdmissionAnalysesTheVariantOnly) {
  // Static admission runs the RegLiveness checker once per variant
  // function (the six-checker pass) and never again: the prover takes
  // the variant's verdict from that pass and the baseline's from the
  // shared baseline cache, which derives it once for all attempts, even
  // when a renamed function needs the verdicts.
  const workloads::Workload W = workloads::specSuite().front();
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok());
  ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
  const diversity::Pipeline Pipe(
      {diversity::TransformKind::Nop, diversity::TransformKind::Shift,
       diversity::TransformKind::Sched, diversity::TransformKind::Regs});
  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  const uint64_t Seed = 7;

  // The seed moves a callee-saved register of a function that uses
  // one, so the identity renaming cannot prove that function.
  driver::Variant V = driver::makeVariant(P, Pipe, Opts, Seed);
  bool Renamed = false;
  for (size_t F = 0; F != P.MIR.Functions.size(); ++F) {
    const mir::MFunction &B = P.MIR.Functions[F];
    const mir::MFunction &VF = V.MIR.Functions[F];
    Renamed |= (B.UsesEbx || B.UsesEsi || B.UsesEdi) &&
               (B.UsesEbx != VF.UsesEbx || B.UsesEsi != VF.UsesEsi ||
                B.UsesEdi != VF.UsesEdi);
  }
  ASSERT_TRUE(Renamed) << "seed " << Seed << " renames no saved register";

  // Two attempts share one batch cache.
  driver::BatchOptions B;
  B.Jobs = 1;
  B.Verify.MaxAttempts = 1;
  obs::Registry::global().reset();
  obs::setEnabled(true);
  driver::BatchResult R =
      driver::makeVariantsBatch(P, Pipe, Opts, {Seed, Seed}, B);
  obs::LocalMetrics M = obs::Registry::global().snapshot();
  obs::setEnabled(false);
  obs::Registry::global().reset();

  ASSERT_TRUE(R.allAccepted());
  EXPECT_EQ(R.TotalAttempts, 2u);
  ASSERT_TRUE(M.Phases.count("analysis.reg-liveness"));
  EXPECT_EQ(M.Phases.at("analysis.reg-liveness").Count,
            2 * V.MIR.Functions.size() + P.MIR.Functions.size());
}
