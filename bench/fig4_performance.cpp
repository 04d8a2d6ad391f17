//===-- bench/fig4_performance.cpp - Paper Figure 4 -------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Regenerates Figure 4: "SPEC CPU 2006 performance overhead of NOP
// insertion" -- per-benchmark slowdown percentages for the five
// insertion configurations, plus the geometric-mean column.
//
// Method, mirroring Section 5.1: compile each benchmark at -O2, profile
// on the train input, build N diversified variants per configuration
// (paper: 5), execute each on the ref input in the cycle-cost simulator,
// and report mean slowdown versus the undiversified baseline. The
// simulator is deterministic, so the paper's 3-run averaging is not
// needed; variance across variants (random insertion) remains and is
// averaged exactly as in the paper.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "driver/Driver.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace pgsd;

int main() {
  const std::vector<bench::Config> Configs = bench::paperConfigs();
  const unsigned NumVariants = bench::variantCount(5);

  std::printf("Figure 4: SPEC CPU 2006 performance overhead of NOP "
              "insertion (slowdown %%)\n");
  std::printf("variants per cell: %u; profile input: train; measured "
              "input: ref\n\n",
              NumVariants);

  TablePrinter Table;
  std::vector<std::string> Header = {"Benchmark"};
  for (const bench::Config &C : Configs)
    Header.push_back(C.Label);
  Table.addRow(Header);

  // Per-config slowdown ratios for the geometric mean row.
  std::vector<std::vector<double>> Ratios(Configs.size());

  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    if (!P.ok()) {
      std::fprintf(stderr, "%s: compile failed\n%s", W.Name.c_str(),
                   P.errors().c_str());
      return 1;
    }
    if (!driver::profileAndStamp(P, W.TrainInput)) {
      std::fprintf(stderr, "%s: training run failed\n", W.Name.c_str());
      return 1;
    }
    mexec::RunResult Base = driver::execute(P.MIR, W.RefInput);
    if (Base.Trapped) {
      std::fprintf(stderr, "%s: baseline trapped: %s\n", W.Name.c_str(),
                   Base.TrapReason.c_str());
      return 1;
    }

    std::vector<std::string> Row = {W.Name};
    for (size_t CI = 0; CI != Configs.size(); ++CI) {
      std::vector<double> Overheads;
      for (uint64_t Seed = 1; Seed <= NumVariants; ++Seed) {
        mir::MModule V = P.MIR;
        diversity::Pipeline().run(V, Configs[CI].Opts, Seed);
        mexec::RunResult R = driver::execute(V, W.RefInput);
        if (R.Trapped || R.Checksum != Base.Checksum) {
          std::fprintf(stderr, "%s: variant diverged!\n", W.Name.c_str());
          return 1;
        }
        Overheads.push_back(R.cycles() / Base.cycles() - 1.0);
      }
      double MeanOverhead = mean(Overheads);
      Ratios[CI].push_back(1.0 + MeanOverhead);
      Row.push_back(formatDouble(100.0 * MeanOverhead, 2));
    }
    Table.addRow(Row);
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  std::vector<std::string> GeoRow = {"Geometric Mean"};
  for (size_t CI = 0; CI != Configs.size(); ++CI)
    GeoRow.push_back(
        formatDouble(100.0 * (geometricMean(Ratios[CI]) - 1.0), 2));
  Table.addRow(GeoRow);

  Table.print(stdout);
  std::printf("\nPaper reference (geomean): ~8%% @ pNOP=50%%, <5%% @ 30%%, "
              "~2.5%% @ 10-50%%, ~1%% @ 0-30%%.\n");
  return 0;
}
