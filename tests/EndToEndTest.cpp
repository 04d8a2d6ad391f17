//===-- tests/EndToEndTest.cpp - Experiment-shape properties ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Small-scale versions of the paper's evaluation claims, computed by the
// same bench/Experiments.h functions that print the full-size tables and
// asserted as properties, so regressions in any pipeline stage show up
// here:
//   * Figure 4 shape: overhead ordering across insertion configs.
//   * Table 2 shape: diversification kills most gadgets; profiling adds
//     only a modest number of extra survivors.
//   * Table 3 shape: the multi-version floor equals the undiversified
//     runtime stub's contribution.
//   * Section 5.2: the attack dies on diversified variants.
//   * The experiments' rows do not depend on the worker count.
//
//===----------------------------------------------------------------------===//

#include "bench/Experiments.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

using namespace pgsd;
using namespace pgsd::experiments;

namespace {

/// A benchmark-like workload with one hot kernel and sizable cold code;
/// it reads no input, so train and ref are both empty.
workloads::Workload benchWorkload() {
  workloads::Workload W;
  W.Name = "bench";
  W.Source = R"(
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
  workloads::appendColdLibrary(W.Source, 20, 99);
  return W;
}

// Column indices into paperConfigs().
enum { P50, P30, P25_50, P10_50, P0_30 };

} // namespace

TEST(Figure4Shape, OverheadOrderingAcrossConfigs) {
  const std::vector<double> Pct =
      figure4({benchWorkload()}, 3).Rows[0].OverheadPct;

  // The paper's ordering (Figure 4).
  EXPECT_GT(Pct[P50], Pct[P30]);
  EXPECT_GT(Pct[P30], Pct[P10_50]);
  EXPECT_GT(Pct[P25_50], Pct[P10_50]);
  EXPECT_GT(Pct[P10_50], Pct[P0_30]);
  // Naive insertion is expensive; profile-guided 0-30% is negligible.
  EXPECT_GT(Pct[P50], 5.0);
  EXPECT_LT(Pct[P0_30], 1.5);
  // "Reduction factor of 5x compared to naive NOP insertion".
  EXPECT_GT(Pct[P50] / std::max(Pct[P0_30], 0.1), 4.0);
}

TEST(Figure4Shape, BothEndsOfRangeMatter) {
  // Section 5.1: lowering pmin (25% -> 10%) roughly halves overhead.
  const std::vector<double> Pct =
      figure4({benchWorkload()}, 3).Rows[0].OverheadPct;
  EXPECT_LT(Pct[P10_50], 0.7 * Pct[P25_50]);
}

TEST(Figure4Shape, LinearHeuristicWorseThanLog) {
  // With exponential count spread, the linear heuristic polarizes mid
  // blocks toward pmax, inserting more NOPs in warm code.
  Ablation A = ablation({benchWorkload()}, 1);
  ASSERT_EQ(A.Heuristics.size(), 2u);
  ASSERT_EQ(A.Heuristics[0].Model, diversity::ProbabilityModel::Linear);
  EXPECT_GT(A.Heuristics[0].Nops, A.Heuristics[1].Nops);
}

TEST(Table2Shape, MostGadgetsDie) {
  Table2Row Row = table2({benchWorkload()}, 5)[0];
  ASSERT_GT(Row.Baseline, 100u);
  // Far fewer gadgets survive than exist; survivors are dominated by
  // the fixed stub at the image start.
  EXPECT_LT(Row.MeanSurvivors[P50], 0.5 * static_cast<double>(Row.Baseline));
}

TEST(Table2Shape, ProfilingAddsOnlyModestExtraSurvivors) {
  Table2Row Row = table2({benchWorkload()}, 5)[0];
  double Naive = Row.MeanSurvivors[P50];
  double Profiled = Row.MeanSurvivors[P0_30];
  // Profiled insertion leaves somewhat more survivors (it inserts fewer
  // NOPs), but the absolute impact stays small (paper Section 5.2).
  EXPECT_GE(Profiled, Naive * 0.8);
  EXPECT_LT(Profiled - Naive, 0.25 * static_cast<double>(Row.Baseline));
}

TEST(Table3Shape, MultiVersionFloorIsTheStub) {
  Table3 T = table3({benchWorkload()}, 9, {2, 5, 9});
  const std::vector<uint64_t> &Counts = T.Rows[0].Counts[P0_30];
  // Monotone in the threshold.
  EXPECT_GE(Counts[0], Counts[1]);
  EXPECT_GE(Counts[1], Counts[2]);

  // The all-versions floor equals the gadgets of the shared stub
  // (byte-identical at identical offsets in every version).
  EXPECT_GE(Counts[2], T.StubGadgets);
  // ...plus at most a small aligned-prologue residue.
  EXPECT_LE(Counts[2], T.StubGadgets + 40);
}

TEST(Table3Shape, DiversifyingTheStubRemovesTheFloor) {
  // The paper: "this could be easily fixed in practice by also
  // diversifying the C library code."
  StubFloor Floor = stubFloor(benchWorkload(), 6, 6);
  EXPECT_LT(Floor.Diversified, Floor.Fixed);
}

TEST(CaseStudy, AttackDiesOnEveryProfileAndVariant) {
  // A fast version of the Section 5.2 experiment: 2 scripts x 3 variants.
  CaseStudy CS = caseStudy(
      {workloads::clbgScripts()[0], workloads::clbgScripts()[3]}, 3);
  ASSERT_TRUE(CS.BaseRopFeasible);
  for (const CaseStudyRow &Row : CS.Rows) {
    EXPECT_EQ(Row.RopFeasible, 0u) << Row.Script << " still attackable";
    EXPECT_EQ(Row.MicroFeasible, 0u) << Row.Script;
  }
}

TEST(Scale, SurvivingFractionFallsWithBinarySize) {
  // Table 2's headline: bigger binaries -> smaller surviving fraction.
  // One pNOP=0-30% variant each; rows come back sorted by size.
  std::vector<Table2Row> Rows = table2(
      {workloads::specWorkload("470.lbm"), workloads::specWorkload("403.gcc")},
      1);
  ASSERT_EQ(Rows[0].Name, "470.lbm");
  ASSERT_EQ(Rows[1].Name, "403.gcc");
  EXPECT_LT(Rows[1].survivingPct(), Rows[0].survivingPct());
}

TEST(Experiments, RowsIndependentOfWorkerCount) {
  // The pooled cells write their own slots and rows are reduced in
  // suite order, so one worker and four give identical rows.
  const std::vector<workloads::Workload> Suite = {
      workloads::specWorkload("401.bzip2"), workloads::specWorkload("429.mcf"),
      workloads::specWorkload("462.libquantum")};
  const std::vector<unsigned> Thresholds = paperThresholds(2);
  EXPECT_EQ(figure4(Suite, 2, 1), figure4(Suite, 2, 4));
  EXPECT_EQ(table2(Suite, 2, 1), table2(Suite, 2, 4));
  EXPECT_EQ(table3(Suite, 2, Thresholds, 1), table3(Suite, 2, Thresholds, 4));
}

TEST(Experiments, FailureNamesFirstFailingWorkloadInSuiteOrder) {
  // Two workloads fail to compile. The first takes longer to fail (a
  // large body before its syntax error), so with four workers the
  // second usually fails first in time; the error must still name the
  // first in suite order, on every run.
  workloads::Workload SlowBad = benchWorkload();
  SlowBad.Name = "slow-bad";
  SlowBad.Source += "\nfn broken( {\n";
  workloads::Workload FastBad;
  FastBad.Name = "fast-bad";
  FastBad.Source = "fn main( {";
  const std::vector<workloads::Workload> Suite = {SlowBad, FastBad};
  for (unsigned Run = 0; Run != 20; ++Run) {
    try {
      (void)table2(Suite, 1, 4);
      ADD_FAILURE() << "run " << Run << ": no error";
    } catch (const std::runtime_error &E) {
      EXPECT_EQ(std::string(E.what()).rfind("slow-bad:", 0), 0u)
          << "run " << Run << ": " << E.what();
    }
  }
}
