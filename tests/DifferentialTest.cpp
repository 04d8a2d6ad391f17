//===-- tests/DifferentialTest.cpp - Random-program differential tests ------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Property-based end-to-end testing: generate random (but always
// terminating and trap-free) MiniC programs and require that the
// unoptimized pipeline, the -O2 pipeline, the instrumented build, and
// several diversified variants all produce identical observable
// behaviour. This is the strongest whole-toolchain invariant we have:
// any bug in folding, CFG simplification, register planning, ISel,
// peepholes, profiling instrumentation, or NOP insertion shows up as a
// divergence here.
//
//===----------------------------------------------------------------------===//

#include "diversity/NopInsertion.h"
#include "driver/Driver.h"
#include "profile/Profile.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdarg>
#include <string>

using namespace pgsd;

namespace {

/// Generates a random MiniC program that always terminates (loops have
/// literal bounds) and never traps (divisions use nonzero divisors,
/// array indices are masked).
class ProgramGenerator {
public:
  explicit ProgramGenerator(uint64_t Seed) : Gen(Seed) {}

  std::string generate() {
    Out.clear();
    Out += "global data[64];\n";
    Out += "global acc;\n";
    // A couple of helper functions with parameters.
    Out += "fn mix(a, b) { return (a ^ b) + ((a & b) << 1); }\n";
    Out += "fn clamp(x) { if (x < 0) { return 0 - x; } return x; }\n";
    Out += "fn main() {\n";
    for (int V = 0; V != 6; ++V)
      appendf("  var %c = %d;\n", 'a' + V,
              static_cast<int>(Gen.nextInRange(-50, 50)));
    unsigned NumStmts = 6 + static_cast<unsigned>(Gen.nextBelow(10));
    for (unsigned S = 0; S != NumStmts; ++S)
      statement(2, 2);
    // Observe everything.
    for (int V = 0; V != 6; ++V)
      appendf("  print_int(%c);\n", 'a' + V);
    Out += "  var k = 0;\n";
    Out += "  while (k < 64) { acc = acc ^ data[k]; k = k + 1; }\n";
    Out += "  print_int(acc);\n";
    Out += "  return a & 127;\n";
    Out += "}\n";
    return Out;
  }

private:
  void appendf(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  char var() { return static_cast<char>('a' + Gen.nextBelow(6)); }

  /// Emits a side-effect-free expression over the scalar variables.
  std::string expr(unsigned Depth) {
    if (Depth == 0 || Gen.nextBernoulli(0.3)) {
      if (Gen.nextBernoulli(0.4))
        return std::string(1, var());
      return std::to_string(Gen.nextInRange(-99, 99));
    }
    std::string A = expr(Depth - 1);
    std::string B = expr(Depth - 1);
    switch (Gen.nextBelow(12)) {
    case 0:
      return "(" + A + " + " + B + ")";
    case 1:
      return "(" + A + " - " + B + ")";
    case 2:
      return "(" + A + " * " + B + ")";
    case 3: // division by a guaranteed nonzero, non-minus-one value
      return "(" + A + " / ((" + B + " & 7) + 2))";
    case 4:
      return "(" + A + " % ((" + B + " & 7) + 2))";
    case 5:
      return "(" + A + " & " + B + ")";
    case 6:
      return "(" + A + " | " + B + ")";
    case 7:
      return "(" + A + " ^ " + B + ")";
    case 8:
      return "(" + A + " << (" + B + " & 7))";
    case 9:
      return "(" + A + " >> (" + B + " & 7))";
    case 10:
      return "mix(" + A + ", " + B + ")";
    default:
      return "(" + A + (Gen.nextBernoulli(0.5) ? " < " : " == ") + B + ")";
    }
  }

  void statement(unsigned Depth, unsigned LoopBudget) {
    switch (Gen.nextBelow(Depth > 0 ? 6u : 3u)) {
    case 0: // scalar assignment
      appendf("  %c = %s;\n", var(), expr(2).c_str());
      break;
    case 1: // array store (masked index)
      appendf("  data[(%s) & 63] = %s;\n", expr(1).c_str(),
              expr(2).c_str());
      break;
    case 2: // array load into accumulator
      appendf("  acc = acc + data[(%s) & 63];\n", expr(1).c_str());
      break;
    case 3: { // if/else
      appendf("  if (%s) {\n", expr(2).c_str());
      statement(Depth - 1, LoopBudget);
      if (Gen.nextBernoulli(0.6)) {
        Out += "  } else {\n";
        statement(Depth - 1, LoopBudget);
      }
      Out += "  }\n";
      break;
    }
    case 4: { // bounded counting loop with a unique counter name
      if (LoopBudget == 0) {
        appendf("  %c = %s;\n", var(), expr(2).c_str());
        break;
      }
      std::string Counter = "i";
      Counter += std::to_string(NextLoopId++);
      appendf("  var %s = 0;\n", Counter.c_str());
      appendf("  while (%s < %d) {\n", Counter.c_str(),
              static_cast<int>(Gen.nextBelow(20) + 1));
      statement(Depth - 1, LoopBudget - 1);
      appendf("    %s = %s + 1;\n", Counter.c_str(), Counter.c_str());
      Out += "  }\n";
      break;
    }
    default: // call statement
      appendf("  %c = clamp(%s);\n", var(), expr(2).c_str());
      break;
    }
  }

  Rng Gen;
  std::string Out;
  unsigned NextLoopId = 0;
};

void ProgramGenerator::appendf(const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, static_cast<size_t>(N) < sizeof(Buf)
                        ? static_cast<size_t>(N)
                        : sizeof(Buf) - 1);
}

struct Observation {
  std::string Output;
  int32_t ExitCode;
  uint32_t Checksum;
  bool operator==(const Observation &O) const = default;
};

Observation observe(const mir::MModule &M) {
  mexec::RunOptions Opts;
  Opts.CollectOutput = true;
  Opts.MaxSteps = 50'000'000;
  mexec::RunResult R = mexec::run(M, Opts);
  EXPECT_FALSE(R.Trapped) << R.TrapReason;
  return {R.Output, R.ExitCode, R.Checksum};
}

} // namespace

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllPipelinesAgree) {
  ProgramGenerator Generator(GetParam() * 0x9e3779b9 + 1);
  std::string Source = Generator.generate();
  SCOPED_TRACE(Source);

  driver::Program O2 = driver::compileProgram(Source, "fuzz");
  ASSERT_TRUE(O2.ok()) << O2.errors();
  driver::Program O0 =
      driver::compileProgram(Source, "fuzz", /*Optimize=*/false);
  ASSERT_TRUE(O0.ok()) << O0.errors();

  Observation Reference = observe(O0.MIR);
  EXPECT_EQ(observe(O2.MIR), Reference) << "-O2 diverged";

  // Instrumented build.
  mir::MModule Instrumented = O2.MIR;
  profile::InstrumentationPlan Plan =
      profile::instrumentModule(Instrumented);
  Instrumented.NumProfCounters = Plan.NumCounters;
  EXPECT_EQ(observe(Instrumented), Reference) << "instrumentation diverged";

  // Profile-guided and uniform variants, with and without XCHG NOPs.
  ASSERT_TRUE(driver::profileAndStamp(O2, {}));
  diversity::DiversityOptions Configs[] = {
      diversity::DiversityOptions::uniform(1.0),
      diversity::DiversityOptions::uniform(0.5),
      diversity::DiversityOptions::profiled(
          diversity::ProbabilityModel::Log, 0.0, 0.5),
      diversity::DiversityOptions::profiled(
          diversity::ProbabilityModel::Linear, 0.1, 0.4),
  };
  Configs[0].IncludeXchgNops = true;
  for (const auto &Opts : Configs)
    for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
      mir::MModule V = diversity::Pipeline().run(O2.MIR, Opts, Seed);
      EXPECT_EQ(observe(V), Reference)
          << "variant diverged (seed " << Seed << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(0, 40));
