//===-- bench/ablation_heuristic.cpp - Section 3.1 ablations ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Regenerates the Section 3.1 analysis that motivates the logarithmic
// heuristic:
//   1. execution-count statistics per benchmark (the paper reports x_max
//      from 14M (gcc) to 4B (hmmer), and the astar median of 117,635
//      sitting far below its 2B maximum);
//   2. the linear-vs-log probability distribution on real profiles;
//   3. measured overhead and surviving gadgets under both heuristics,
//      plus the XCHG-NOP ablation (the bus-lock cost that made the paper
//      exclude those candidates).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "driver/Driver.h"
#include "gadget/Scanner.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace pgsd;
using diversity::DiversityOptions;
using diversity::ProbabilityModel;

int main() {
  std::printf("Ablation: execution-count spread and the linear vs log "
              "heuristic (Section 3.1)\n\n");

  TablePrinter Stats;
  Stats.addRow({"Benchmark", "xmax", "median>0", "median/max",
                "p(median) linear", "p(median) log"});

  const char *Names[] = {"403.gcc",   "456.hmmer",    "473.astar",
                         "401.bzip2", "400.perlbench", "482.sphinx3"};
  struct Measured {
    std::string Name;
    driver::Program P;
  };
  std::vector<Measured> Programs;

  for (const char *Name : Names) {
    const workloads::Workload &W = workloads::specWorkload(Name);
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    if (!P.ok() || !driver::profileAndStamp(P, W.TrainInput)) {
      std::fprintf(stderr, "%s: setup failed\n", Name);
      return 1;
    }
    uint64_t XMax = 0;
    std::vector<uint64_t> NonZero;
    for (const mir::MFunction &F : P.MIR.Functions)
      for (const mir::MBasicBlock &BB : F.Blocks) {
        XMax = std::max(XMax, BB.ProfileCount);
        if (BB.ProfileCount)
          NonZero.push_back(BB.ProfileCount);
      }
    uint64_t Median = medianCount(NonZero);

    DiversityOptions Lin =
        DiversityOptions::profiled(ProbabilityModel::Linear, 0.10, 0.50);
    DiversityOptions Log =
        DiversityOptions::profiled(ProbabilityModel::Log, 0.10, 0.50);
    Stats.addRow(
        {Name, formatCount(XMax), formatCount(Median),
         formatDouble(static_cast<double>(Median) /
                          static_cast<double>(XMax),
                      6),
         formatPercent(100.0 * diversity::nopProbability(Median, XMax, Lin),
                       1),
         formatPercent(100.0 * diversity::nopProbability(Median, XMax, Log),
                       1)});
    Programs.push_back({Name, std::move(P)});
  }
  Stats.print(stdout);
  std::printf("\nThe linear heuristic pins mid-frequency blocks at pmax "
              "(paper: \"would simply polarize the probabilities\"); the "
              "log heuristic places them mid-interval.\n\n");

  // Measured consequences on one representative benchmark.
  std::printf("Measured consequences (pNOP=10-50%%, mean of 3 variants)\n\n");
  TablePrinter Out;
  Out.addRow({"Benchmark", "Heuristic", "NOPs inserted", "Slowdown",
              "Survivors"});
  for (Measured &M : Programs) {
    const workloads::Workload &W = workloads::specWorkload(M.Name);
    codegen::Image Base = driver::linkBaseline(M.P);
    double BaseCycles = driver::execute(M.P.MIR, W.RefInput).cycles();
    for (ProbabilityModel Model :
         {ProbabilityModel::Linear, ProbabilityModel::Log}) {
      DiversityOptions Opts =
          DiversityOptions::profiled(Model, 0.10, 0.50);
      double Nops = 0, Overhead = 0, Survivors = 0;
      const unsigned Seeds = 3;
      for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
        driver::Variant V = driver::makeVariant(M.P, Opts, Seed);
        Nops += static_cast<double>(V.Pipeline.Nop.NopsInserted);
        Overhead +=
            driver::execute(V.MIR, W.RefInput).cycles() / BaseCycles - 1.0;
        Survivors += static_cast<double>(
            gadget::survivingGadgets(Base.Text, V.Image.Text).size());
      }
      Out.addRow({M.Name,
                  Model == ProbabilityModel::Linear ? "linear" : "log",
                  formatDouble(Nops / Seeds, 0),
                  formatPercent(100.0 * Overhead / Seeds, 2),
                  formatDouble(Survivors / Seeds, 1)});
    }
  }
  Out.print(stdout);

  // XCHG ablation on the hottest-overhead benchmark.
  std::printf("\nXCHG-NOP ablation (482.sphinx3, pNOP=30%% uniform): the "
              "bus-locking pair was excluded by the paper.\n");
  {
    Measured &M = Programs.back(); // sphinx3
    const workloads::Workload &W = workloads::specWorkload(M.Name);
    double BaseCycles = driver::execute(M.P.MIR, W.RefInput).cycles();
    DiversityOptions Plain = DiversityOptions::uniform(0.30);
    DiversityOptions WithXchg = DiversityOptions::uniform(0.30);
    WithXchg.IncludeXchgNops = true;
    double PlainOv =
        driver::execute(driver::makeVariant(M.P, Plain, 1).MIR, W.RefInput)
            .cycles() /
        BaseCycles * 100.0 - 100.0;
    double XchgOv =
        driver::execute(driver::makeVariant(M.P, WithXchg, 1).MIR,
                        W.RefInput)
            .cycles() /
        BaseCycles * 100.0 - 100.0;
    std::printf("  5 candidates: %+.2f%%   7 candidates (with XCHG): "
                "%+.2f%%\n",
                PlainOv, XchgOv);
  }
  return 0;
}
