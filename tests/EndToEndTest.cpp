//===-- tests/EndToEndTest.cpp - Experiment-shape properties ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Small-scale versions of the paper's evaluation claims, asserted as
// properties so regressions in any pipeline stage show up here:
//   * Figure 4 shape: overhead ordering across insertion configs.
//   * Table 2 shape: diversification kills most gadgets; profiling adds
//     only a modest number of extra survivors.
//   * Table 3 shape: the multi-version floor equals the undiversified
//     runtime stub's contribution.
//   * Section 5.2: the attack dies on diversified variants.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "gadget/Attack.h"
#include "gadget/Scanner.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace pgsd;
using diversity::DiversityOptions;
using diversity::ProbabilityModel;

namespace {

/// A benchmark-like program with one hot kernel and sizable cold code.
driver::Program benchProgram() {
  std::string Source = R"(
fn kernel(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    s = s + i * 3 - (s >> 4);
    i = i + 1;
  }
  return s;
}
fn main() {
  var r = kernel(30000);
  sink(lib_dispatch(r & 7, r));
  print_int(r);
  return 0;
}
)";
  workloads::appendColdLibrary(Source, 20, 99);
  driver::Program P = driver::compileProgram(Source, "bench");
  EXPECT_TRUE(P.ok()) << P.errors();
  EXPECT_TRUE(driver::profileAndStamp(P, {}));
  return P;
}

double meanOverheadPct(const driver::Program &P, DiversityOptions Opts,
                       unsigned Seeds) {
  double Base = driver::execute(P.MIR, {}).cycles();
  double Sum = 0;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    mir::MModule V = P.MIR;
    diversity::Pipeline().run(V, Opts, Seed);
    Sum += driver::execute(V, {}).cycles() / Base - 1.0;
  }
  return 100.0 * Sum / Seeds;
}

} // namespace

TEST(Figure4Shape, OverheadOrderingAcrossConfigs) {
  driver::Program P = benchProgram();
  double P50 = meanOverheadPct(P, DiversityOptions::uniform(0.5), 3);
  double P30 = meanOverheadPct(P, DiversityOptions::uniform(0.3), 3);
  double P25_50 = meanOverheadPct(
      P, DiversityOptions::profiled(ProbabilityModel::Log, 0.25, 0.5), 3);
  double P10_50 = meanOverheadPct(
      P, DiversityOptions::profiled(ProbabilityModel::Log, 0.10, 0.5), 3);
  double P0_30 = meanOverheadPct(
      P, DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.3), 3);

  // The paper's ordering (Figure 4).
  EXPECT_GT(P50, P30);
  EXPECT_GT(P30, P10_50);
  EXPECT_GT(P25_50, P10_50);
  EXPECT_GT(P10_50, P0_30);
  // Naive insertion is expensive; profile-guided 0-30% is negligible.
  EXPECT_GT(P50, 5.0);
  EXPECT_LT(P0_30, 1.5);
  // "Reduction factor of 5x compared to naive NOP insertion".
  EXPECT_GT(P50 / std::max(P0_30, 0.1), 4.0);
}

TEST(Figure4Shape, BothEndsOfRangeMatter) {
  // Section 5.1: lowering pmin (25% -> 10%) roughly halves overhead.
  driver::Program P = benchProgram();
  double P25_50 = meanOverheadPct(
      P, DiversityOptions::profiled(ProbabilityModel::Log, 0.25, 0.5), 3);
  double P10_50 = meanOverheadPct(
      P, DiversityOptions::profiled(ProbabilityModel::Log, 0.10, 0.5), 3);
  EXPECT_LT(P10_50, 0.7 * P25_50);
}

TEST(Figure4Shape, LinearHeuristicWorseThanLog) {
  // With exponential count spread, the linear heuristic polarizes mid
  // blocks toward pmax, inserting more NOPs in warm code.
  driver::Program P = benchProgram();
  auto NopsInserted = [&](ProbabilityModel Model) {
    mir::MModule V = P.MIR;
    return diversity::Pipeline()
        .run(V, DiversityOptions::profiled(Model, 0.0, 0.5), 1)
        .Nop.NopsInserted;
  };
  EXPECT_GT(NopsInserted(ProbabilityModel::Linear),
            NopsInserted(ProbabilityModel::Log));
}

TEST(Table2Shape, MostGadgetsDie) {
  driver::Program P = benchProgram();
  codegen::Image Base = driver::linkBaseline(P);
  auto BaseGadgets =
      gadget::scanGadgets(Base.Text.data(), Base.Text.size());
  ASSERT_GT(BaseGadgets.size(), 100u);

  auto Opts = DiversityOptions::uniform(0.5);
  double SurvivorSum = 0;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    driver::Variant V = driver::makeVariant(P, Opts, Seed);
    SurvivorSum += static_cast<double>(
        gadget::survivingGadgets(Base.Text, V.Image.Text).size());
  }
  double MeanSurvivors = SurvivorSum / 5.0;
  // Far fewer gadgets survive than exist; survivors are dominated by
  // the fixed stub at the image start.
  EXPECT_LT(MeanSurvivors, 0.5 * static_cast<double>(BaseGadgets.size()));
}

TEST(Table2Shape, ProfilingAddsOnlyModestExtraSurvivors) {
  driver::Program P = benchProgram();
  codegen::Image Base = driver::linkBaseline(P);
  auto MeanSurvivors = [&](DiversityOptions Opts) {
    double Sum = 0;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      driver::Variant V = driver::makeVariant(P, Opts, Seed);
      Sum += static_cast<double>(
          gadget::survivingGadgets(Base.Text, V.Image.Text).size());
    }
    return Sum / 5.0;
  };
  double Naive = MeanSurvivors(DiversityOptions::uniform(0.5));
  double Profiled = MeanSurvivors(
      DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.3));
  // Profiled insertion leaves somewhat more survivors (it inserts fewer
  // NOPs), but the absolute impact stays small (paper Section 5.2).
  EXPECT_GE(Profiled, Naive * 0.8);
  auto BaseGadgets =
      gadget::scanGadgets(Base.Text.data(), Base.Text.size());
  EXPECT_LT(Profiled - Naive,
            0.25 * static_cast<double>(BaseGadgets.size()));
}

TEST(Table3Shape, MultiVersionFloorIsTheStub) {
  driver::Program P = benchProgram();
  auto Opts = DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.3);
  std::vector<std::vector<uint8_t>> Versions;
  uint32_t StubSize = 0;
  for (uint64_t Seed = 1; Seed <= 9; ++Seed) {
    driver::Variant V = driver::makeVariant(P, Opts, Seed);
    StubSize = V.Image.StubSize;
    Versions.push_back(V.Image.Text);
  }
  auto Counts = gadget::gadgetsInAtLeast(Versions, {2, 5, 9});
  // Monotone in the threshold.
  EXPECT_GE(Counts[0], Counts[1]);
  EXPECT_GE(Counts[1], Counts[2]);

  // The all-versions floor equals the gadgets of the shared stub
  // (byte-identical at identical offsets in every version).
  auto StubGadgets = gadget::scanGadgets(Versions[0].data(), StubSize);
  EXPECT_GE(Counts[2], StubGadgets.size());
  // ...plus at most a small aligned-prologue residue.
  EXPECT_LE(Counts[2], StubGadgets.size() + 40);
}

TEST(Table3Shape, DiversifyingTheStubRemovesTheFloor) {
  // The paper: "this could be easily fixed in practice by also
  // diversifying the C library code."
  driver::Program P = benchProgram();
  auto Opts = DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.3);
  std::vector<std::vector<uint8_t>> Versions;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    codegen::LinkOptions Link;
    Link.DiversifyStub = true;
    Link.StubSeed = Seed; // a fresh stub per version
    driver::Variant V = driver::makeVariant(P, Opts, Seed, Link);
    Versions.push_back(V.Image.Text);
  }
  auto CountsDiv = gadget::gadgetsInAtLeast(Versions, {6});

  std::vector<std::vector<uint8_t>> Fixed;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    Fixed.push_back(
        driver::makeVariant(P, Opts, Seed).Image.Text);
  auto CountsFixed = gadget::gadgetsInAtLeast(Fixed, {6});
  EXPECT_LT(CountsDiv[0], CountsFixed[0]);
}

TEST(CaseStudy, AttackDiesOnEveryProfileAndVariant) {
  // A fast version of the Section 5.2 experiment: 2 scripts x 3 variants.
  workloads::Workload Php = workloads::phpInterpreter();
  driver::Program P = driver::compileProgram(Php.Source, Php.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  codegen::Image Base = driver::linkBaseline(P);

  auto BaseOutcome =
      gadget::checkAttackOnImage(Base.Text, gadget::AttackModel::RopGadget);
  ASSERT_TRUE(BaseOutcome.Feasible) << BaseOutcome.Missing;

  for (size_t ScriptIdx : {0u, 3u}) {
    const auto &Script = workloads::clbgScripts()[ScriptIdx];
    driver::Program Prof = driver::compileProgram(Php.Source, Php.Name);
    ASSERT_TRUE(driver::profileAndStamp(Prof, Script.Input));
    auto Opts = DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.3);
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      driver::Variant V = driver::makeVariant(Prof, Opts, Seed);
      auto Survivors = gadget::survivingGadgets(Base.Text, V.Image.Text);
      auto Gadgets = gadget::classifyGadgets(V.Image.Text.data(),
                                             V.Image.Text.size());
      auto Usable = gadget::filterToSurvivors(Gadgets, Survivors);
      auto Rop = gadget::checkAttack(Usable, gadget::AttackModel::RopGadget);
      auto Micro =
          gadget::checkAttack(Usable, gadget::AttackModel::Microgadget);
      EXPECT_FALSE(Rop.Feasible)
          << Script.Name << " seed " << Seed << " still attackable";
      EXPECT_FALSE(Micro.Feasible);
    }
  }
}

TEST(Scale, SurvivingFractionFallsWithBinarySize) {
  // Table 2's headline: bigger binaries -> smaller surviving fraction.
  auto FractionFor = [](const char *Name) {
    const workloads::Workload &W = workloads::specWorkload(Name);
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    EXPECT_TRUE(P.ok());
    EXPECT_TRUE(driver::profileAndStamp(P, W.TrainInput));
    codegen::Image Base = driver::linkBaseline(P);
    auto BaseGadgets =
        gadget::scanGadgets(Base.Text.data(), Base.Text.size());
    auto Opts = DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.3);
    driver::Variant V = driver::makeVariant(P, Opts, 1);
    auto Survivors = gadget::survivingGadgets(Base.Text, V.Image.Text);
    return static_cast<double>(Survivors.size()) /
           static_cast<double>(BaseGadgets.size());
  };
  double Small = FractionFor("470.lbm");
  double Large = FractionFor("403.gcc");
  EXPECT_LT(Large, Small);
}
