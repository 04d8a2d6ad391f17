//===-- perfbench/src/Main.cpp - Repository benchmark entry point ----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Usage:
//   pgsd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--trace-file PATH]
//                  [--corrupt checksum|survivors|digest]
//
// Prints progress lines starting with '#' and, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exit codes:
// 0 ok, 2 usage, 3 output-check mismatch. --corrupt is a test seam that
// falsifies one expected value so the benchmark's own tests can see the
// matching output check fire.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace pgsd;
using namespace pgsd::perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "pgsd_perfbench: %s\n"
               "usage: pgsd_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-file PATH] "
               "[--corrupt checksum|survivors|digest]\n",
               Why);
  return 2;
}

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.size() > 19 ||
      !std::all_of(Text.begin(), Text.end(),
                   [](char Ch) { return Ch >= '0' && Ch <= '9'; }))
    return false;
  Out = std::stoull(Text);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Context C;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const std::string Value = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      C.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(Value, N))
        return usage("--seed takes a non-negative integer");
      C.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Value, N) || N == 0 || N > 600)
        return usage("--seconds takes an integer in 1..600");
      C.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      C.Trace = Value == "1";
      HaveTrace = true;
    } else if (Flag == "--work-dir") {
      C.WorkDir = Value;
    } else if (Flag == "--trace-file") {
      C.TraceFile = Value;
    } else if (Flag == "--corrupt") {
      if (Value != "checksum" && Value != "survivors" && Value != "digest")
        return usage("--corrupt takes checksum, survivors or digest");
      C.Corrupt = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace ||
      C.WorkDir.empty())
    return usage("--workload, --seed, --seconds, --trace and --work-dir "
                 "are required");
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), C.Workload) == Names.end())
    return usage(("unknown workload " + C.Workload).c_str());

  HostRef Ref;
  Tracer Off(false);
  C.Ref = &Ref;
  C.T = &Off;
  Report Out;
  runWorkload(C, Out);
  std::printf("%s\n", Out.json().c_str());
  return 0;
}
