//===-- tests/EngineParityTest.cpp - Fast-vs-reference engine parity -------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// The contract under test (mexec/Precompiled.h): the precompiled
// direct-threaded engine returns *bit-identical* RunResults to the
// tree-walking reference engine -- every field, on every program. The
// corpus stacks the deck:
//
//  - all 19 workloads, with output, block counts, and instrumented
//    profile counters collected,
//  - 200 generated MiniC programs (tests/MiniCFuzzer.h) plus
//    diversified variants (XCHG NOPs, block shift),
//  - programs that trap every way the machine can trap (step budget,
//    call depth, #DE both ways, bad memory, stack overflow, ADC/SBB),
//    where the engines must agree on kind, reason string, and the exact
//    instruction/cycle counts at the trap point,
//  - fault-injected variants (analysis/MirFault.h) that survive
//    mir::verify, exercising broken-but-executable control flow,
//  - custom cost models (the baked-stream fallback path).
//
//===----------------------------------------------------------------------===//

#include "analysis/MirFault.h"
#include "diversity/NopInsertion.h"
#include "driver/Driver.h"
#include "mexec/Precompiled.h"
#include "profile/Profile.h"
#include "workloads/Workloads.h"

#include "MiniCFuzzer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <functional>
#include <string>
#include <vector>

using namespace pgsd;
using namespace pgsd::mir;
using x86::CondCode;
using x86::Reg;

namespace {

/// Field-for-field RunResult equality with per-field diagnostics.
void expectSame(const mexec::RunResult &Ref, const mexec::RunResult &Fast,
                const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Ref.Trapped, Fast.Trapped);
  EXPECT_EQ(Ref.Trap, Fast.Trap)
      << mexec::trapKindName(Ref.Trap) << " vs "
      << mexec::trapKindName(Fast.Trap);
  EXPECT_EQ(Ref.TrapReason, Fast.TrapReason);
  EXPECT_EQ(Ref.ExitCode, Fast.ExitCode);
  EXPECT_EQ(Ref.Cycles10, Fast.Cycles10);
  EXPECT_EQ(Ref.Instructions, Fast.Instructions);
  EXPECT_EQ(Ref.Checksum, Fast.Checksum);
  EXPECT_EQ(Ref.Output, Fast.Output);
  EXPECT_EQ(Ref.Counters, Fast.Counters);
  EXPECT_EQ(Ref.BlockCounts, Fast.BlockCounts);
}

/// Runs \p M on both engines and asserts bit-identity.
void runBoth(const MModule &M, const mexec::RunOptions &Opts,
             const std::string &What) {
  mexec::RunResult Ref = mexec::run(M, Opts);
  mexec::Precompiled P(M, Opts.Costs);
  expectSame(Ref, P.run(Opts), What);
  // One compiled stream must serve repeated runs (the BaselineCache and
  // diffExecute reuse patterns): a second run from the same stream must
  // reproduce the first.
  expectSame(Ref, P.run(Opts), What + " (stream reuse)");
}

mexec::RunOptions fullCollect(const std::vector<int32_t> &Input) {
  mexec::RunOptions Opts;
  Opts.Input = Input;
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  Opts.MaxSteps = 50'000'000;
  return Opts;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload suite
//===----------------------------------------------------------------------===//

TEST(EngineParity, WorkloadSuiteFieldForField) {
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << P.errors();
    runBoth(P.MIR, fullCollect(W.TrainInput), W.Name);
  }
}

TEST(EngineParity, InstrumentedCountersMatch) {
  // ProfInc counters feed minimal-counter profiling; both engines must
  // agree on every counter value (and on everything else while
  // instrumented).
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << P.errors();
    MModule Instrumented = P.MIR;
    profile::InstrumentationPlan Plan =
        profile::instrumentModule(Instrumented);
    Instrumented.NumProfCounters = Plan.NumCounters;
    runBoth(Instrumented, fullCollect(W.TrainInput),
            W.Name + " (instrumented)");
  }
}

TEST(EngineParity, DiversifiedVariantsMatch) {
  // NOP-inserted (including bus-locking XCHG forms) and block-shifted
  // variants: the transformed streams the verifier actually executes.
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << P.errors();
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
    diversity::DiversityOptions D = diversity::DiversityOptions::profiled(
        diversity::ProbabilityModel::Log, 0.0, 0.5);
    D.IncludeXchgNops = true;
    MModule V = P.MIR;
    diversity::Pipeline().run(V, D, /*Seed=*/0xd1ce + 1);
    runBoth(V, fullCollect(W.TrainInput), W.Name + " (variant)");
    Rng Shift(0xb10c);
    diversity::insertBlockShift(V, Shift);
    runBoth(V, fullCollect(W.TrainInput), W.Name + " (block-shifted)");
  }
}

//===----------------------------------------------------------------------===//
// Fuzz corpus
//===----------------------------------------------------------------------===//

class EngineParityFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineParityFuzz, GeneratedProgramsMatch) {
  uint64_t Seed = GetParam();
  // Same derivation as FuzzMiniCTest: identical corpus, different
  // property (cross-engine bit-identity instead of variant equality).
  MiniCFuzzer Fuzzer(Seed * 0x9e3779b97f4a7c15ull + 1);
  std::string Source = Fuzzer.generate();
  SCOPED_TRACE("fuzz seed " + std::to_string(Seed) + "\n" + Source);
  driver::Program P = driver::compileProgram(Source, "fuzz");
  ASSERT_TRUE(P.ok()) << P.errors();
  runBoth(P.MIR, fullCollect({5, -3, 99, 0, 7, 123}),
          "seed " + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineParityFuzz,
                         ::testing::Range<uint64_t>(0, 200));

//===----------------------------------------------------------------------===//
// Trap corpus: the engines must agree at the exact trap point.
//===----------------------------------------------------------------------===//

namespace {

void runBothSource(const char *Source, const mexec::RunOptions &Opts,
                   mexec::TrapKind Expect, const std::string &What) {
  driver::Program P = driver::compileProgram(Source, "trap");
  ASSERT_TRUE(P.ok()) << P.errors();
  mexec::RunResult Ref = mexec::run(P.MIR, Opts);
  EXPECT_TRUE(Ref.Trapped);
  EXPECT_EQ(Ref.Trap, Expect);
  mexec::Precompiled PC(P.MIR, Opts.Costs);
  expectSame(Ref, PC.run(Opts), What);
}

/// Builds `main() { eax = A; <op>; ret }` by hand for instructions the
/// MiniC frontend cannot express.
MModule handBuilt(const std::function<void(MBasicBlock &)> &Fill) {
  MModule M;
  M.EntryFunction = 0;
  MFunction F;
  F.Name = "main";
  MBasicBlock BB;
  Fill(BB);
  MInstr Ret;
  Ret.Op = MOp::Ret;
  BB.Instrs.push_back(Ret);
  F.Blocks.push_back(std::move(BB));
  M.Functions.push_back(std::move(F));
  return M;
}

} // namespace

TEST(EngineParityTrap, StepBudget) {
  mexec::RunOptions Opts;
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  // Sweep budgets so the trap lands on different instruction kinds
  // (loop body, compare, branch): the budget check order is part of the
  // bit-identity contract.
  for (uint64_t Budget : {1ull, 2ull, 17ull, 100ull, 1000ull, 4096ull}) {
    Opts.MaxSteps = Budget;
    runBothSource(R"(
      fn main() {
        var i = 0;
        while (i >= 0) { i = i + 1; }
        return i;
      }
    )",
                  Opts, mexec::TrapKind::StepBudget,
                  "budget " + std::to_string(Budget));
  }
}

TEST(EngineParityTrap, PreSetCancelFlag) {
  // Cooperative cancellation (the nvx watchdog's kill switch): both
  // engines poll RunOptions::Cancel at the same counted-instruction
  // stride, so a flag raised before the run starts traps bit-identically
  // at the first poll point. (Mid-run cancellation is wall-clock timing
  // and thus exempt from the bit-identity contract.)
  std::atomic<bool> Flag{true};
  mexec::RunOptions Opts;
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  Opts.Cancel = &Flag;
  runBothSource(R"(
    fn main() {
      var i = 0;
      while (i >= 0) { i = i + 1; }
      return i;
    }
  )",
                Opts, mexec::TrapKind::Cancelled, "pre-set cancel");
  EXPECT_STREQ(mexec::trapKindName(mexec::TrapKind::Cancelled),
               "cancelled");
}

TEST(EngineParityTrap, CallDepth) {
  mexec::RunOptions Opts;
  Opts.MaxCallDepth = 16;
  runBothSource("fn down(n) { return down(n + 1); }\n"
                "fn main() { return down(0); }",
                Opts, mexec::TrapKind::CallDepth, "call depth");
}

TEST(EngineParityTrap, DivideByZeroAndOverflow) {
  mexec::RunOptions Opts;
  Opts.Input = {0};
  runBothSource("fn main() { return 10 / read_int(); }", Opts,
                mexec::TrapKind::DivideByZero, "zero divisor");
  Opts.Input = {INT32_MIN, -1};
  runBothSource("fn main() { return read_int() / read_int(); }", Opts,
                mexec::TrapKind::DivideByZero, "INT_MIN / -1");
}

TEST(EngineParityTrap, StackOverflow) {
  // 4 KiB frames recurse through the 11 MiB stack window long before
  // the default call-depth limit.
  mexec::RunOptions Opts;
  runBothSource(R"(
    fn down(n) {
      array t[1024];
      t[n & 1023] = n;
      return down(n + 1) + t[0];
    }
    fn main() { return down(0); }
  )",
                Opts, mexec::TrapKind::StackOverflow, "stack overflow");
}

TEST(EngineParityTrap, BadMemoryLoadAndStore) {
  for (int32_t Addr : {INT32_MAX, 0, 42, -4, INT32_MIN}) {
    for (bool IsStore : {false, true}) {
      MModule M = handBuilt([&](MBasicBlock &BB) {
        MInstr Mov;
        Mov.Op = MOp::MovRI;
        Mov.Dst = Reg::EAX;
        Mov.Imm = Addr;
        BB.Instrs.push_back(Mov);
        MInstr Bad;
        Bad.Op = IsStore ? MOp::Store : MOp::Load;
        Bad.Dst = IsStore ? Reg::EAX : Reg::ECX;
        Bad.Src = IsStore ? Reg::ECX : Reg::EAX;
        Bad.Imm = 0;
        BB.Instrs.push_back(Bad);
      });
      mexec::RunResult Ref = mexec::run(M, {});
      ASSERT_TRUE(Ref.Trapped);
      EXPECT_EQ(Ref.Trap, mexec::TrapKind::BadMemory);
      mexec::Precompiled P(M);
      expectSame(Ref, P.run({}),
                 std::string(IsStore ? "store @" : "load @") +
                     std::to_string(Addr));
    }
  }
}

TEST(EngineParityTrap, AdcSbbAreBadInstructions) {
  for (x86::AluOp Op : {x86::AluOp::Adc, x86::AluOp::Sbb}) {
    MModule M = handBuilt([&](MBasicBlock &BB) {
      MInstr I;
      I.Op = MOp::AluRR;
      I.Alu = Op;
      I.Dst = Reg::EAX;
      I.Src = Reg::ECX;
      BB.Instrs.push_back(I);
    });
    mexec::RunResult Ref = mexec::run(M, {});
    ASSERT_TRUE(Ref.Trapped);
    EXPECT_EQ(Ref.Trap, mexec::TrapKind::BadInstruction);
    mexec::Precompiled P(M);
    expectSame(Ref, P.run({}), "ADC/SBB");
  }
}

//===----------------------------------------------------------------------===//
// Fault-injected corpus: broken-but-executable modules.
//===----------------------------------------------------------------------===//

TEST(EngineParity, FaultInjectedVariantsMatch) {
  const workloads::Workload &W = workloads::specWorkload("401.bzip2");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  mexec::RunOptions Opts = fullCollect(W.TrainInput);
  // Corrupted modules may loop or wander; keep runs bounded.
  Opts.MaxSteps = 2'000'000;
  unsigned Executed = 0;
  for (unsigned C = 0; C != analysis::NumMirFaultClasses; ++C) {
    for (uint64_t Seed = 1; Seed != 9; ++Seed) {
      MModule V = P.MIR;
      std::string Desc;
      if (!analysis::injectMirFault(
              V, static_cast<analysis::MirFaultClass>(C), Seed, &Desc))
        continue;
      // The production pipeline (verify::verifyVariant) refuses to
      // execute modules that fail mir::verify, so the contract only
      // covers verifiable ones.
      if (!mir::verify(V).empty())
        continue;
      ++Executed;
      runBoth(V, Opts, "fault class " + std::to_string(C) + " seed " +
                           std::to_string(Seed) + ": " + Desc);
    }
  }
  // The corpus must actually exercise faulted modules, not skip its way
  // to green.
  EXPECT_GE(Executed, 12u);
}

//===----------------------------------------------------------------------===//
// Custom cost models
//===----------------------------------------------------------------------===//

TEST(EngineParity, CustomCostsMatchViaBakedStream) {
  const workloads::Workload &W = workloads::specWorkload("429.mcf");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  mexec::RunOptions Opts = fullCollect(W.TrainInput);
  Opts.Costs.Nop = 17;
  Opts.Costs.Idiv = 999;
  Opts.Costs.Call = 1;
  // A stream baked against the custom model executes it natively.
  runBoth(P.MIR, Opts, "custom costs, baked");
}

TEST(EngineParity, CostMismatchFallsBackToReference) {
  const workloads::Workload &W = workloads::specWorkload("429.mcf");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  // Stream baked against the default model, run with a different one:
  // Precompiled::run must detect the mismatch and delegate to the
  // reference engine rather than charge stale costs.
  mexec::Precompiled PC(P.MIR);
  mexec::RunOptions Opts = fullCollect(W.TrainInput);
  Opts.Costs.Alu *= 3;
  expectSame(mexec::run(P.MIR, Opts), PC.run(Opts), "mismatched costs");
  // And runWith(Fast) bakes the custom model instead of falling back.
  expectSame(mexec::run(P.MIR, Opts),
             mexec::runWith(mexec::Engine::Fast, P.MIR, Opts),
             "runWith custom costs");
}

//===----------------------------------------------------------------------===//
// Engine name plumbing (the pgsdc --engine flag parses through these).
//===----------------------------------------------------------------------===//

TEST(EngineParity, EngineNamesRoundTrip) {
  EXPECT_STREQ(mexec::engineName(mexec::Engine::Fast), "fast");
  EXPECT_STREQ(mexec::engineName(mexec::Engine::Reference), "reference");
  mexec::Engine E = mexec::Engine::Reference;
  EXPECT_TRUE(mexec::parseEngine("fast", E));
  EXPECT_EQ(E, mexec::Engine::Fast);
  EXPECT_TRUE(mexec::parseEngine("reference", E));
  EXPECT_EQ(E, mexec::Engine::Reference);
  EXPECT_FALSE(mexec::parseEngine("turbo", E));
  EXPECT_EQ(E, mexec::Engine::Reference); // untouched on failure
}
