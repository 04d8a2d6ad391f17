//===-- bench/reproduce.cpp - Print the paper's evaluation ---------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Usage: reproduce <artifact>|all
//
// Prints one evaluation artifact at paper size (or every artifact, in
// the order below) as the rows bench/Experiments.h computes. Stdout is
// deterministic: the same on every run, build type and core count, and
// committed as docs/REPRODUCED.txt. Wall-clock figures (the nvx
// lockstep overhead against K and the combos' ms/variant) go to stderr.
//
// Exit codes: 0 every requested artifact ran and passed its gate;
// 1 an artifact could not run or failed its gate (a Table 1 encoding
// the decoder disagrees with, a baseline not attackable or a version
// still attackable in the case study, a variant the translation
// validator refutes, nvx detection below 90% or no class invisible to a
// single variant, a suite variant that diverges); 2 usage (no or an
// unknown artifact name; the artifact list goes to stderr).
//
//===----------------------------------------------------------------------===//

#include "bench/Experiments.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <cstring>
#include <exception>

using namespace pgsd;
using namespace pgsd::experiments;

namespace {

int printFigure4() {
  const std::vector<Config> Configs = paperConfigs();
  const unsigned Variants = 5;
  std::printf("Figure 4: SPEC CPU 2006 performance overhead of NOP "
              "insertion (slowdown %%)\n");
  std::printf("variants per cell: %u; profile input: train; measured "
              "input: ref\n\n",
              Variants);
  Figure4 F = figure4(workloads::specSuite(), Variants);

  TablePrinter Table;
  std::vector<std::string> Header = {"Benchmark"};
  for (const Config &C : Configs)
    Header.push_back(C.Label);
  Table.addRow(Header);
  for (const Figure4Row &Row : F.Rows) {
    std::vector<std::string> Cells = {Row.Name};
    for (double Pct : Row.OverheadPct)
      Cells.push_back(formatDouble(Pct, 2));
    Table.addRow(Cells);
  }
  std::vector<std::string> GeoRow = {"Geometric Mean"};
  for (double Pct : F.GeomeanPct)
    GeoRow.push_back(formatDouble(Pct, 2));
  Table.addRow(GeoRow);
  Table.print(stdout);
  std::printf("\nPaper reference (geomean): ~8%% @ pNOP=50%%, <5%% @ 30%%, "
              "~2.5%% @ 10-50%%, ~1%% @ 0-30%%.\n");
  return 0;
}

int printTable1() {
  std::printf("Table 1: NOP insertion candidate instructions\n\n");
  TablePrinter Table;
  Table.addRow({"Instruction", "Encoding", "Second-byte decoding",
                "Verified", "Notes"});
  std::vector<Table1Row> Rows = table1();
  bool AllOK = true;
  size_t Enabled = 0;
  for (const Table1Row &Row : Rows) {
    AllOK = AllOK && Row.Verified;
    Enabled += !Row.LocksBus;
    Table.addRow({Row.Mnemonic, Row.Encoding, Row.SecondByte,
                  Row.Verified ? "yes" : "NO",
                  Row.LocksBus ? "excluded by default (locks the bus)"
                               : "default candidate"});
  }
  Table.print(stdout);
  std::printf("\n%zu candidates, %zu enabled by default (paper: \"our "
              "implementation only uses five of them\").\n",
              Rows.size(), Enabled);
  return AllOK ? 0 : 1;
}

int printTable2() {
  const std::vector<Config> Configs = paperConfigs();
  const unsigned Variants = 25;
  std::printf("Table 2: surviving gadgets on SPEC CPU 2006 binaries\n");
  std::printf("variants per cell: %u (paper: 25); Survivor algorithm per "
              "Section 5.2\n\n",
              Variants);
  TablePrinter Table;
  std::vector<std::string> Header = {"Benchmark", "Baseline"};
  for (const Config &C : Configs)
    Header.push_back(C.Label);
  Header.push_back("Extra%");
  Header.push_back("Surviving%");
  Table.addRow(Header);
  for (const Table2Row &Row : table2(workloads::specSuite(), Variants)) {
    std::vector<std::string> Cells = {Row.Name, formatCount(Row.Baseline)};
    for (double M : Row.MeanSurvivors)
      Cells.push_back(formatDouble(M, 2));
    Cells.push_back(formatPercent(Row.extraPct(), 0));
    Cells.push_back(formatPercent(Row.survivingPct(), 2));
    Table.addRow(Cells);
  }
  Table.print(stdout);
  std::printf("\nExpected shape (paper): Surviving%% falls as binaries "
              "grow (18%% for lbm down to 0.05%% for xalancbmk); Extra%% "
              "stays modest except the astar-like outlier.\n");
  return 0;
}

int printTable3() {
  const std::vector<Config> Configs = paperConfigs();
  const unsigned Versions = 25;
  const std::vector<unsigned> Thresholds = paperThresholds(Versions);
  std::printf("Table 3: gadgets surviving in at least %u/%u/%u of %u "
              "versions\n\n",
              Thresholds[0], Thresholds[1], Thresholds[2], Versions);
  Table3 T = table3(workloads::specSuite(), Versions, Thresholds);

  TablePrinter Table;
  std::vector<std::string> Header = {"Benchmark"};
  for (unsigned Th : Thresholds)
    for (const Config &C : Configs)
      Header.push_back(">=" + std::to_string(Th) + " " + C.Label);
  Table.addRow(Header);
  // Threshold-major, matching the paper's column grouping.
  for (const Table3Row &Row : T.Rows) {
    std::vector<std::string> Cells = {Row.Name};
    for (size_t TI = 0; TI != Thresholds.size(); ++TI)
      for (const std::vector<uint64_t> &PerConfig : Row.Counts)
        Cells.push_back(formatCount(PerConfig[TI]));
    Table.addRow(Cells);
  }
  Table.print(stdout);
  std::printf("\nUndiversified C-runtime stub contributes %llu gadgets "
              "(the floor of the last column group).\n",
              static_cast<unsigned long long>(T.StubGadgets));

  // Extension (Section 5.2: "could be easily fixed in practice by also
  // diversifying the C library code").
  StubFloor Floor = stubFloor(workloads::specWorkload("433.milc"), Versions,
                              Thresholds.back());
  std::printf("\nExtension (433.milc, pNOP=0-30%%): >=%u-of-%u floor "
              "with fixed libc stub: %llu; with diversified stub: "
              "%llu.\n",
              Thresholds.back(), Versions,
              static_cast<unsigned long long>(Floor.Fixed),
              static_cast<unsigned long long>(Floor.Diversified));
  return 0;
}

int printCaseStudy() {
  const unsigned Versions = 25;
  CaseStudy CS = caseStudy(workloads::clbgScripts(), Versions);
  std::printf("Case study: ROP attacks against the %s interpreter\n",
              CS.Interpreter.c_str());
  std::printf(".text: %zu bytes; %u diversified versions per profile; "
              "pNOP=0-30%% (log heuristic)\n\n",
              CS.TextBytes, Versions);
  // Paper: "we verified that the undiversified PHP binary is indeed
  // vulnerable to both these attacks".
  std::printf("undiversified binary: ROPgadget-model %s, "
              "microgadgets-model %s\n",
              CS.BaseRopFeasible ? "FEASIBLE" : "infeasible",
              CS.BaseMicroFeasible ? "FEASIBLE" : "infeasible");
  if (!CS.BaseRopFeasible || !CS.BaseMicroFeasible) {
    std::fprintf(stderr, "expected the baseline to be attackable\n");
    return 1;
  }

  TablePrinter Table;
  Table.addRow({"Profile script", "Versions", "Mean survivors",
                "ROPgadget feasible", "microgadgets feasible"});
  unsigned TotalFeasible = 0;
  for (const CaseStudyRow &Row : CS.Rows) {
    TotalFeasible += Row.RopFeasible + Row.MicroFeasible;
    Table.addRow({Row.Script, formatCount(Versions),
                  formatDouble(Row.MeanSurvivors, 1),
                  formatCount(Row.RopFeasible) + "/" + formatCount(Versions),
                  formatCount(Row.MicroFeasible) + "/" +
                      formatCount(Versions)});
  }
  Table.print(stdout);
  std::printf("\n%s\n",
              TotalFeasible == 0
                  ? "Result: no profile produced any attackable binary "
                    "(matches the paper)."
                  : "RESULT MISMATCH: some variants remained attackable!");
  return TotalFeasible == 0 ? 0 : 1;
}

int printAblation() {
  std::vector<workloads::Workload> Suite;
  for (const char *Name : {"403.gcc", "456.hmmer", "473.astar", "401.bzip2",
                           "400.perlbench", "482.sphinx3"})
    Suite.push_back(workloads::specWorkload(Name));
  const unsigned Variants = 3;
  Ablation A = ablation(Suite, Variants);

  std::printf("Ablation: execution-count spread and the linear vs log "
              "heuristic (Section 3.1)\n\n");
  TablePrinter Stats;
  Stats.addRow({"Benchmark", "xmax", "median>0", "median/max",
                "p(median) linear", "p(median) log"});
  for (const SpreadRow &Row : A.Spread)
    Stats.addRow({Row.Name, formatCount(Row.XMax), formatCount(Row.Median),
                  formatDouble(static_cast<double>(Row.Median) /
                                   static_cast<double>(Row.XMax),
                               6),
                  formatPercent(Row.PLinearPct, 1),
                  formatPercent(Row.PLogPct, 1)});
  Stats.print(stdout);
  std::printf("\nThe linear heuristic pins mid-frequency blocks at pmax "
              "(paper: \"would simply polarize the probabilities\"); the "
              "log heuristic places them mid-interval.\n\n");

  std::printf("Measured consequences (pNOP=10-50%%, mean of %u "
              "variants)\n\n",
              Variants);
  TablePrinter Out;
  Out.addRow({"Benchmark", "Heuristic", "NOPs inserted", "Slowdown",
              "Survivors"});
  for (const HeuristicRow &Row : A.Heuristics)
    Out.addRow({Row.Name,
                Row.Model == diversity::ProbabilityModel::Linear ? "linear"
                                                                 : "log",
                formatDouble(Row.Nops, 0), formatPercent(Row.SlowdownPct, 2),
                formatDouble(Row.Survivors, 1)});
  Out.print(stdout);

  std::printf("\nXCHG-NOP ablation (%s, pNOP=30%% uniform): the "
              "bus-locking pair was excluded by the paper.\n",
              Suite.back().Name.c_str());
  std::printf("  5 candidates: %+.2f%%   7 candidates (with XCHG): "
              "%+.2f%%\n",
              A.PlainOverheadPct, A.XchgOverheadPct);
  return 0;
}

int printCombos() {
  for (const ComboRow &Row :
       transformCombos(workloads::specSuite(), /*Variants=*/8)) {
    std::printf("%-16s %3llu variants: survival %.1f%%, size %+.1f%%\n",
                Row.Label.c_str(),
                static_cast<unsigned long long>(Row.Variants),
                100.0 * Row.survivalRate(), 100.0 * Row.sizeOverhead());
    std::fprintf(stderr, "combos: %-16s %.2fms/variant\n", Row.Label.c_str(),
                 Row.msPerVariant());
  }
  return 0;
}

int printNvx() {
  const std::vector<workloads::Workload> &Spec = workloads::specSuite();
  std::vector<workloads::Workload> Suite(Spec.begin(), Spec.begin() + 4);
  NvxSensor S = nvxSensor(Suite, /*SeedsPerClass=*/8);

  std::printf("%-20s %10s %6s %6s %6s %12s %10s\n", "class", "injected",
              "load", "inert", "active", "single-rate", "nvx-rate");
  for (const NvxClassRow &Row : S.Classes) {
    double SingleRate =
        Row.Active ? static_cast<double>(Row.SingleDetected) / Row.Active
                   : 0.0;
    double NvxRate =
        Row.Active ? static_cast<double>(Row.NvxDetected) / Row.Active : 0.0;
    std::printf("%-20s %10llu %6llu %6llu %6llu %11.0f%% %9.0f%%\n",
                Row.Class.c_str(),
                static_cast<unsigned long long>(Row.Injections),
                static_cast<unsigned long long>(Row.LoadRejected),
                static_cast<unsigned long long>(Row.Inert),
                static_cast<unsigned long long>(Row.Active),
                100.0 * SingleRate, 100.0 * NvxRate);
  }
  std::printf("aggregate: %llu/%llu detected (%.1f%%) over active + "
              "load-rejected runs at K=%u majority\n",
              static_cast<unsigned long long>(S.Detected),
              static_cast<unsigned long long>(S.Denominator),
              100.0 * S.rate(), S.Replicas);
  for (const NvxOverheadRow &Row : S.Overhead)
    std::fprintf(stderr,
                 "overhead: K=%u: %.4fs wall, %.4fs cpu over %llu "
                 "rounds (%.2fx wall vs K=1)\n",
                 Row.K, Row.WallSeconds, Row.CpuSeconds,
                 static_cast<unsigned long long>(Row.Rounds),
                 S.Overhead[0].WallSeconds > 0
                     ? Row.WallSeconds / S.Overhead[0].WallSeconds
                     : 0.0);

  if (S.rate() < 0.90) {
    std::fprintf(stderr,
                 "nvx: detection rate %.1f%% below the 90%% acceptance "
                 "floor\n",
                 100.0 * S.rate());
    return 1;
  }
  if (!S.hasSilentClass()) {
    std::fprintf(stderr,
                 "nvx: no workload/class cell combined 0%% single-variant "
                 "detection with full divergence detection\n");
    return 1;
  }
  return 0;
}

int printSuite() {
  std::printf("%-16s %8s %8s %12s %14s %12s %9s %s\n", "benchmark", "text",
              "gadgets", "dyn-instr", "xmax", "median", "cycles",
              "variant");
  bool AllOK = true;
  for (const SuiteRow &Row : suiteReport(workloads::specSuite())) {
    AllOK = AllOK && Row.VariantMatches;
    std::printf("%-16s %8zu %8zu %12llu %14llu %12llu %9.0fk %s\n",
                Row.Name.c_str(), Row.TextBytes, Row.Gadgets,
                static_cast<unsigned long long>(Row.DynInstructions),
                static_cast<unsigned long long>(Row.XMax),
                static_cast<unsigned long long>(Row.Median),
                Row.Cycles / 1000.0,
                Row.VariantMatches ? "ok" : "MISMATCH");
  }
  return AllOK ? 0 : 1;
}

struct Artifact {
  const char *Name;
  int (*Print)();
};

/// In the order `reproduce all` prints them.
const Artifact Artifacts[] = {
    {"table1", printTable1},     {"fig4", printFigure4},
    {"table2", printTable2},     {"table3", printTable3},
    {"php", printCaseStudy},     {"ablation", printAblation},
    {"combos", printCombos},     {"nvx", printNvx},
    {"suite", printSuite},
};

int run(const Artifact &A) {
  try {
    return A.Print();
  } catch (const std::exception &E) {
    std::fflush(stdout);
    std::fprintf(stderr, "reproduce %s: %s\n", A.Name, E.what());
    return 1;
  }
}

int usage() {
  std::fprintf(stderr, "usage: reproduce <artifact>|all\nartifacts:");
  for (const Artifact &A : Artifacts)
    std::fprintf(stderr, " %s", A.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2)
    return usage();
  if (std::strcmp(Argv[1], "all") == 0) {
    int Status = 0;
    for (const Artifact &A : Artifacts) {
      std::printf("%s=== reproduce %s ===\n\n", &A == Artifacts ? "" : "\n",
                  A.Name);
      if (run(A) != 0)
        Status = 1;
    }
    return Status;
  }
  for (const Artifact &A : Artifacts)
    if (std::strcmp(Argv[1], A.Name) == 0)
      return run(A);
  return usage();
}
