//===-- examples/quickstart.cpp - Minimal end-to-end walkthrough ----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Compiles a small MiniC program, profiles it on a training input,
// produces two diversified variants (naive pNOP=50% and profile-guided
// pNOP=0-30%), and reports:
//   * that all variants compute the same result (semantic preservation),
//   * the simulated slowdown of each variant (the paper's Figure 4 axis),
//   * how many gadgets survive at their original offsets (Table 2 axis).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "gadget/Scanner.h"

#include <cstdio>

using namespace pgsd;

// A toy "benchmark": a hot inner loop (checksum over a sieve of primes)
// plus cold error-handling-style code that never runs.
static const char *Source = R"(
global sieve[10000];

fn build_sieve(n) {
  var i = 2;
  while (i * i <= n) {
    if (sieve[i] == 0) {
      var j = i * i;
      while (j <= n) {
        sieve[j] = 1;
        j = j + i;
      }
    }
    i = i + 1;
  }
  return 0;
}

fn report_error(code) {
  // Cold: diagnostic path that a correct run never reaches.
  print_char('E'); print_char('R'); print_char('R');
  print_int(code);
  return 0-1;
}

fn main() {
  var n = read_int();
  if (n <= 1 || n > 9999) { return report_error(n); }
  build_sieve(n);
  var count = 0;
  var i = 2;
  while (i <= n) {
    if (sieve[i] == 0) { count = count + 1; }
    i = i + 1;
  }
  print_int(count);
  return 0;
}
)";

int main() {
  // 1. Compile (parse -> IR -> -O2 -> machine IR).
  driver::Program P = driver::compileProgram(Source, "quickstart");
  if (!P.ok()) {
    std::fprintf(stderr, "compile failed:\n%s", P.errors().c_str());
    return 1;
  }

  // 2. Profile on a training input (the paper's "train" set).
  if (!driver::profileAndStamp(P, {3000})) {
    std::fprintf(stderr, "training run failed\n");
    return 1;
  }

  // 3. Baseline: undiversified build, measured on the "ref" input.
  std::vector<int32_t> RefInput = {9999};
  mexec::RunResult Base = driver::execute(P.MIR, RefInput, true);
  std::printf("baseline: primes(9999) -> %s cycles=%.0f checksum=%08x\n",
              Base.Output.c_str(), Base.cycles(), Base.Checksum);
  codegen::Image BaseImage = driver::linkBaseline(P);
  auto BaseGadgets =
      gadget::scanGadgets(BaseImage.Text.data(), BaseImage.Text.size());
  std::printf("baseline: .text=%zu bytes, %zu gadgets\n",
              BaseImage.Text.size(), BaseGadgets.size());

  // 4. Two diversified variants.
  struct Config {
    const char *Name;
    diversity::DiversityOptions Opts;
  } Configs[] = {
      {"naive pNOP=50%", diversity::DiversityOptions::uniform(0.5)},
      {"profiled pNOP=0-30%",
       diversity::DiversityOptions::profiled(
           diversity::ProbabilityModel::Log, 0.0, 0.3)},
  };

  for (const Config &C : Configs) {
    driver::Variant V = driver::makeVariant(P, diversity::Pipeline(), C.Opts,
                                             /*Seed=*/42);
    mexec::RunResult R = driver::execute(V.MIR, RefInput, true);
    if (R.Checksum != Base.Checksum || R.Trapped) {
      std::fprintf(stderr, "%s: variant diverged!\n", C.Name);
      return 1;
    }
    double Slowdown =
        100.0 * (R.cycles() / Base.cycles() - 1.0);
    auto Survivors = gadget::survivingGadgets(BaseImage.Text, V.Image.Text);
    std::printf("%-22s nops=%llu (%.1f%% of sites)  slowdown=%+.2f%%  "
                "surviving gadgets=%zu/%zu\n",
                C.Name,
                static_cast<unsigned long long>(V.Pipeline.Nop.NopsInserted),
                100.0 * V.Pipeline.Nop.insertionRate(), Slowdown,
                Survivors.size(), BaseGadgets.size());
  }
  return 0;
}
