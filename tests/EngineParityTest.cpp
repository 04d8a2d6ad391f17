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
//    instruction/cycle counts at the trap point -- including traps that
//    land mid-segment, next to NOPs the fast engine drops from its
//    stream, and every step budget from 1 to 2,000 on a call-heavy
//    variant,
//  - fault-injected variants (analysis/MirFault.h) that survive
//    mir::verify, exercising broken-but-executable control flow,
//  - custom cost models baked into the stream,
//  - one stream shared by concurrent runs (the battery reuse pattern).
//
// The derived path (mexec::runMemoized, what driver::execute and every
// baseline battery entry run) is one more engine under the same
// contract: every runBoth comparison also checks it, and its own cases
// cover every suite program under the paper's configurations, NOPs that
// only a not-taken Jcc reaches, trapping and over-budget runs that must
// fall back, and concurrent derivations of one program's variants.
//
//===----------------------------------------------------------------------===//

#include "analysis/MirFault.h"
#include "bench/Experiments.h"
#include "codegen/Layout.h"
#include "diversity/NopInsertion.h"
#include "driver/Driver.h"
#include "mexec/Precompiled.h"
#include "mexec/RunMemo.h"
#include "obs/Metrics.h"
#include "profile/Profile.h"
#include "verify/Verifier.h"
#include "workloads/Workloads.h"

#include "MiniCFuzzer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <functional>
#include <string>
#include <thread>
#include <utility>
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
  // One compiled stream must serve repeated runs (the diffExecute and
  // nvx reuse patterns): a second run from the same stream must
  // reproduce the first.
  expectSame(Ref, P.run(Opts), What + " (stream reuse)");
  // Filled, derived or run plainly, the memo returns the same run.
  expectSame(Ref, mexec::runMemoized(M, Opts), What + " (run memo)");
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
    MModule V = diversity::Pipeline().run(P.MIR, D, /*Seed=*/0xd1ce + 1);
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
  expectSame(Ref, mexec::runMemoized(P.MIR, Opts), What + " (run memo)");
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

namespace {

MInstr nop(x86::NopKind K) {
  MInstr I;
  I.Op = MOp::Nop;
  I.NopK = K;
  return I;
}

MInstr movRI(Reg Dst, int32_t Imm) {
  MInstr I;
  I.Op = MOp::MovRI;
  I.Dst = Dst;
  I.Imm = Imm;
  return I;
}

MInstr op(MOp Op, Reg Dst = Reg::EAX, Reg Src = Reg::EAX, int32_t Imm = 0) {
  MInstr I;
  I.Op = Op;
  I.Dst = Dst;
  I.Src = Src;
  I.Imm = Imm;
  return I;
}

MInstr call(ir::Callee Target) {
  MInstr I;
  I.Op = MOp::Call;
  I.Target = Target;
  return I;
}

/// A call-dense program: f(18) makes 8,361 calls, and the then-block's
/// jump to the lexically next block is a free jump.
const char *const FibSource = R"(
  fn f(n) {
    var r = n;
    if (n >= 2) { r = f(n - 1) + f(n - 2); }
    return r;
  }
  fn main() { print_int(f(18)); return 0; }
)";

/// \p Source diversified by every transform at pNOP = 50%, XCHG NOPs
/// included: NOP runs the fast engine drops, shift preludes, and
/// reordered, renamed code around many call/return edges.
MModule allTransformsVariant(const char *Source) {
  driver::Program P = driver::compileProgram(Source, "variant");
  EXPECT_TRUE(P.ok()) << P.errors();
  diversity::DiversityOptions D = diversity::DiversityOptions::uniform(0.5);
  D.IncludeXchgNops = true;
  using diversity::TransformKind;
  diversity::PipelineStats Stats;
  MModule V = diversity::Pipeline({TransformKind::Nop, TransformKind::Shift,
                                   TransformKind::Sched, TransformKind::Regs})
                  .run(P.MIR, D, /*Seed=*/0x5e9, &Stats);
  EXPECT_GT(Stats.Nop.NopsInserted, 0u);
  EXPECT_GT(Stats.Shift.FunctionsShifted, 0u);
  return V;
}

} // namespace

TEST(EngineParityTrap, EveryStepBudgetOnACallHeavyVariant) {
  // Each budget B traps on the (B+1)-th counted instruction. Sweeping
  // B over the first 2,000 puts that instruction on every kind of
  // stream position: NOPs and free jumps that have no record, Jcc,
  // calls, and the first instruction after a return.
  MModule V = allTransformsVariant(FibSource);
  mexec::Precompiled PC(V);
  mexec::RunOptions Opts;
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  std::vector<uint64_t> RefCycles;
  for (uint64_t Budget = 1; Budget <= 2000; ++Budget) {
    Opts.MaxSteps = Budget;
    mexec::RunResult Ref = mexec::run(V, Opts);
    ASSERT_EQ(Ref.Trap, mexec::TrapKind::StepBudget);
    ASSERT_EQ(Ref.Instructions, Budget + 1);
    expectSame(Ref, PC.run(Opts), "budget " + std::to_string(Budget));
    RefCycles.push_back(Ref.Cycles10);
  }
  // What the (B+1)-th instruction is, read off the cycles it adds
  // between budget B and B+1 (default cost model): 0 = free jump, 2/30
  // = NOP, 6/16 = Jcc, 55 + 8k = call plus prologue, 48 + 8k = ret.
  unsigned FreeJumps = 0, Nops = 0, Jccs = 0, Calls = 0, AfterRet = 0;
  for (size_t B = 1; B < RefCycles.size(); ++B) {
    uint64_t Delta = RefCycles[B] - RefCycles[B - 1];
    FreeJumps += Delta == 0;
    Nops += Delta == 2 || Delta == 30;
    Jccs += Delta == 6 || Delta == 16;
    Calls += Delta >= 55 && Delta <= 79 && (Delta - 55) % 8 == 0;
    if (B >= 2) {
      uint64_t Prev = RefCycles[B - 1] - RefCycles[B - 2];
      AfterRet += Prev >= 48 && Prev <= 72 && (Prev - 48) % 8 == 0;
    }
  }
  EXPECT_GT(FreeJumps, 0u);
  EXPECT_GT(Nops, 0u);
  EXPECT_GT(Jccs, 0u);
  EXPECT_GT(Calls, 0u);
  EXPECT_GT(AfterRet, 0u);
}

TEST(EngineParityTrap, PreSetCancelOnACallHeavyVariant) {
  MModule V = allTransformsVariant(FibSource);
  mexec::Precompiled PC(V);
  std::atomic<bool> Flag{true};
  mexec::RunOptions Opts;
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  Opts.Cancel = &Flag;
  // The budget before, on, just past and far past the first poll.
  const uint64_t Stride = mexec::CancelPollStride;
  for (uint64_t Budget : {Stride - 1, Stride, Stride + 1, uint64_t{4} << 30}) {
    Opts.MaxSteps = Budget;
    mexec::RunResult Ref = mexec::run(V, Opts);
    ASSERT_TRUE(Ref.Trapped);
    expectSame(Ref, PC.run(Opts), "cancel, budget " + std::to_string(Budget));
  }
}

TEST(EngineParity, UnsetCancelFlagChangesNothing) {
  // A watchdog that never fires: polling a clear flag must leave every
  // field as it is without a flag, on finishing and on trapping runs.
  MModule V = allTransformsVariant(FibSource);
  mexec::Precompiled PC(V);
  std::atomic<bool> Clear{false};
  for (uint64_t Budget : {1000ull, 1024ull, 5000ull, 100000ull, 4ull << 30}) {
    mexec::RunOptions Opts;
    Opts.CollectOutput = true;
    Opts.CollectBlockCounts = true;
    Opts.MaxSteps = Budget;
    mexec::RunResult Ref = mexec::run(V, Opts);
    mexec::RunResult Plain = PC.run(Opts);
    Opts.Cancel = &Clear;
    std::string What = "budget " + std::to_string(Budget);
    expectSame(Ref, Plain, What);
    expectSame(Plain, PC.run(Opts), What + ", clear flag");
    expectSame(Ref, mexec::run(V, Opts), What + ", clear flag (reference)");
  }
}

TEST(EngineParityTrap, TrapsBesideDroppedNops) {
  // Each trapping instruction sits between NOPs the fast engine never
  // dispatches: its segment head has already charged them, so the trap
  // must take back exactly the instructions and cycles after the trap
  // point -- and keep the trapping op's own cost only where the
  // reference charges it before the access.
  using ir::Callee;
  using ir::Intrinsic;
  struct Case {
    const char *Name;
    std::vector<MInstr> Setup;
    MInstr Trap;
    mexec::TrapKind Kind;
  };
  MInstr Adc = op(MOp::AluRR, Reg::EAX, Reg::ECX);
  Adc.Alu = x86::AluOp::Adc;
  const std::vector<Case> Cases = {
      {"store", {movRI(Reg::EAX, 42)}, op(MOp::Store, Reg::EAX, Reg::ECX),
       mexec::TrapKind::BadMemory},
      {"load", {movRI(Reg::EAX, -4)}, op(MOp::Load, Reg::ECX, Reg::EAX),
       mexec::TrapKind::BadMemory},
      {"store-frame", {movRI(Reg::EBP, 0)},
       op(MOp::StoreFrame, Reg::EAX, Reg::ECX), mexec::TrapKind::BadMemory},
      {"load-frame", {movRI(Reg::EBP, 0)},
       op(MOp::LoadFrame, Reg::ECX), mexec::TrapKind::BadMemory},
      {"pop", {movRI(Reg::ESP, 0)}, op(MOp::Pop, Reg::ECX),
       mexec::TrapKind::BadMemory},
      {"push", {movRI(Reg::ESP, static_cast<int32_t>(codegen::StackLimit))},
       op(MOp::Push, Reg::EAX, Reg::EAX), mexec::TrapKind::StackOverflow},
      {"push-imm",
       {movRI(Reg::ESP, static_cast<int32_t>(codegen::StackLimit))},
       op(MOp::PushI, Reg::EAX, Reg::EAX, 7), mexec::TrapKind::StackOverflow},
      {"idiv-zero", {movRI(Reg::EAX, 10), op(MOp::Cdq)},
       op(MOp::Idiv, Reg::EAX, Reg::ECX), mexec::TrapKind::DivideByZero},
      {"idiv-overflow",
       {movRI(Reg::EAX, INT32_MIN), op(MOp::Cdq), movRI(Reg::ECX, -1)},
       op(MOp::Idiv, Reg::EAX, Reg::ECX), mexec::TrapKind::DivideByZero},
      {"adc", {}, Adc, mexec::TrapKind::BadInstruction},
      {"print-bad-stack", {movRI(Reg::ESP, 0)},
       call(Callee::intrinsic(Intrinsic::PrintI32)),
       mexec::TrapKind::BadMemory},
      {"sink-bad-stack", {movRI(Reg::ESP, 0)},
       call(Callee::intrinsic(Intrinsic::Sink)), mexec::TrapKind::BadMemory},
  };
  for (const Case &C : Cases) {
    for (x86::NopKind K : {x86::NopKind::Nop90, x86::NopKind::XchgEspEsp}) {
      MModule M = handBuilt([&](MBasicBlock &BB) {
        BB.Instrs.push_back(nop(x86::NopKind::XchgEbpEbp));
        for (const MInstr &I : C.Setup) {
          BB.Instrs.push_back(I);
          BB.Instrs.push_back(nop(K));
        }
        BB.Instrs.push_back(nop(K));
        BB.Instrs.push_back(C.Trap);
        BB.Instrs.push_back(nop(K));
        BB.Instrs.push_back(nop(x86::NopKind::XchgEbpEbp));
      });
      std::string What = std::string(C.Name) + " after " +
                         x86::nopInfo(K).Mnemonic;
      mexec::RunResult Ref = mexec::run(M, {});
      ASSERT_TRUE(Ref.Trapped) << What;
      EXPECT_EQ(Ref.Trap, C.Kind) << What;
      mexec::Precompiled P(M);
      expectSame(Ref, P.run({}), What);
    }
  }
}

TEST(EngineParityTrap, CallTrapsBesideDroppedNops) {
  // f calls itself with NOPs around the call: the call-depth trap (at
  // the call) and the stack-overflow trap (in the callee's prologue,
  // charged only past the stack check) both land mid-stream.
  for (x86::NopKind K : {x86::NopKind::Nop90, x86::NopKind::XchgEspEsp}) {
    for (uint32_t FrameBytes : {0u, 1u << 20}) {
      MModule M;
      M.EntryFunction = 0;
      for (unsigned FI = 0; FI != 2; ++FI) {
        MFunction F;
        F.Name = FI == 0 ? "main" : "f";
        F.FrameBytes = FI == 0 ? 0 : FrameBytes;
        F.UsesEbx = FI == 1;
        MBasicBlock BB;
        BB.Instrs = {nop(K), movRI(Reg::EAX, 1), nop(K),
                     call(ir::Callee::function(1)), nop(K),
                     nop(x86::NopKind::XchgEbpEbp), op(MOp::Ret)};
        F.Blocks.push_back(std::move(BB));
        M.Functions.push_back(std::move(F));
      }
      mexec::RunOptions Opts;
      Opts.MaxCallDepth = FrameBytes ? 64 : 5;
      mexec::RunResult Ref = mexec::run(M, Opts);
      ASSERT_TRUE(Ref.Trapped);
      EXPECT_EQ(Ref.Trap, FrameBytes ? mexec::TrapKind::StackOverflow
                                     : mexec::TrapKind::CallDepth);
      mexec::Precompiled P(M);
      expectSame(Ref, P.run(Opts),
                 std::string("recursion after ") + x86::nopInfo(K).Mnemonic +
                     ", frame " + std::to_string(FrameBytes));
    }
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
// One stream, many threads
//===----------------------------------------------------------------------===//

TEST(EngineParity, ConcurrentRunsShareOneStream) {
  // The verifier and the nvx replicas run one Precompiled from several
  // workers at once. Runs on the shared stream -- finishing, dividing
  // by zero and exhausting the budget -- must equal a serial run, and
  // TSan must see no write to shared state.
  MModule V = allTransformsVariant(R"(
    fn f(n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); }
    fn main() {
      var a = read_int();
      var b = read_int();
      print_int(f(a & 15));
      while (a > 200) { a = a + 0; }
      return 1000 / b;
    }
  )");
  mexec::Precompiled PC(V);
  const std::vector<std::vector<int32_t>> Battery =
      verify::defaultInputBattery();
  mexec::RunOptions Base;
  Base.CollectOutput = true;
  Base.CollectBlockCounts = true;
  Base.MaxSteps = 200'000;
  std::vector<mexec::RunResult> Serial;
  bool Finished = false, DivideByZero = false, OutOfBudget = false;
  for (const std::vector<int32_t> &Input : Battery) {
    mexec::RunOptions Opts = Base;
    Opts.Input = Input;
    Serial.push_back(PC.run(Opts));
    expectSame(mexec::run(V, Opts), Serial.back(), "serial reference");
    Finished |= !Serial.back().Trapped;
    DivideByZero |= Serial.back().Trap == mexec::TrapKind::DivideByZero;
    OutOfBudget |= Serial.back().Trap == mexec::TrapKind::StepBudget;
  }
  EXPECT_TRUE(Finished && DivideByZero && OutOfBudget)
      << "the battery must finish, divide by zero and exhaust the budget";

  constexpr unsigned Threads = 4;
  constexpr unsigned Rounds = 3;
  std::vector<std::vector<mexec::RunResult>> Got(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T) {
    Workers.emplace_back([&, T] {
      for (unsigned Round = 0; Round != Rounds; ++Round) {
        // Stagger the start so threads overlap on different inputs.
        for (size_t I = 0; I != Battery.size(); ++I) {
          size_t In = (I + T) % Battery.size();
          mexec::RunOptions Opts = Base;
          Opts.Input = Battery[In];
          Got[T].push_back(PC.run(Opts));
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  for (unsigned T = 0; T != Threads; ++T) {
    ASSERT_EQ(Got[T].size(), Rounds * Battery.size());
    for (size_t K = 0; K != Got[T].size(); ++K) {
      size_t In = (K % Battery.size() + T) % Battery.size();
      expectSame(Serial[In], Got[T][K],
                 "thread " + std::to_string(T) + " input " +
                     std::to_string(In));
    }
  }
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

TEST(EngineParity, CustomCostsCompiledPerRun) {
  const workloads::Workload &W = workloads::specWorkload("429.mcf");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  // A stream compiled against a custom model for one run, as profile
  // training builds one, matches the reference engine under that model.
  mexec::RunOptions Opts = fullCollect(W.TrainInput);
  Opts.Costs.Alu *= 3;
  expectSame(mexec::run(P.MIR, Opts),
             mexec::Precompiled(P.MIR, Opts.Costs).run(Opts),
             "custom costs, compiled per run");
}

//===----------------------------------------------------------------------===//
// Derived runs: mexec::runMemoized against Precompiled::run
//===----------------------------------------------------------------------===//

namespace {

/// The run memo's counters, read from the global registry (now() turns
/// telemetry on, so the counts that follow it are recorded).
struct MemoCounts {
  uint64_t Fills = 0, Derived = 0, Fallbacks = 0;

  static MemoCounts now() {
    obs::setEnabled(true);
    obs::LocalMetrics S = obs::Registry::global().snapshot();
    auto Get = [&](const char *Key) -> uint64_t {
      auto It = S.Counters.find(Key);
      return It == S.Counters.end() ? 0 : It->second;
    };
    return {Get("mexec.run_memo.fills"), Get("mexec.run_memo.derived"),
            Get("mexec.run_memo.fallbacks")};
  }
  MemoCounts operator-(const MemoCounts &O) const {
    return {Fills - O.Fills, Derived - O.Derived, Fallbacks - O.Fallbacks};
  }
};

size_t countNops(const MModule &M) {
  size_t N = 0;
  for (const MFunction &F : M.Functions)
    for (const MBasicBlock &BB : F.Blocks)
      for (const MInstr &I : BB.Instrs)
        N += I.Op == MOp::Nop;
  return N;
}

MModule nopVariant(const MModule &Base,
                   const diversity::DiversityOptions &Opts, uint64_t Seed) {
  return diversity::Pipeline().run(Base, Opts, Seed);
}

} // namespace

TEST(EngineParityDerived, PaperConfigsOnEverySuiteProgram) {
  // Every suite program under each Figure 4 configuration, three seeds,
  // the third with the bus-locking XCHG pair enabled: each variant's run
  // is derived from one run of its baseline and must equal a real run
  // field for field, block counts included.
  const MemoCounts Before = MemoCounts::now();
  size_t Programs = 0, Variants = 0;
  for (const workloads::Workload &W : workloads::specSuite()) {
    ++Programs;
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << P.errors();
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
    const mexec::RunOptions Opts = fullCollect(W.TrainInput);
    expectSame(mexec::Precompiled(P.MIR).run(Opts),
               mexec::runMemoized(P.MIR, Opts), W.Name + " baseline");
    for (const experiments::Config &C : experiments::paperConfigs()) {
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        diversity::DiversityOptions D = C.Opts;
        D.IncludeXchgNops = Seed == 3;
        MModule V = nopVariant(P.MIR, D, Seed);
        expectSame(mexec::Precompiled(V).run(Opts),
                   mexec::runMemoized(V, Opts),
                   W.Name + " " + C.Label + " seed " +
                       std::to_string(Seed));
        ++Variants;
      }
    }
  }
  const MemoCounts D = MemoCounts::now() - Before;
  // One run per program at most; every call derived.
  EXPECT_LE(D.Fills, Programs);
  EXPECT_EQ(D.Derived, Variants + Programs);
  EXPECT_EQ(D.Fallbacks, 0u);
}

TEST(EngineParityDerived, NopsAfterATakenJccCountSegmentsNotBlocks) {
  // A NOP between a block's Jcc and its Jmp runs only when the Jcc falls
  // through. Derived from block counts it would be charged on every
  // entry to its block; segment counts charge it exactly.
  driver::Program P = driver::compileProgram(R"(
    fn main() {
      var n = read_int();
      var s = 0;
      var i = 0;
      while (i < n) {
        if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
        i = i + 1;
      }
      print_int(s);
      return 0;
    }
  )",
                                             "segments");
  ASSERT_TRUE(P.ok()) << P.errors();
  MModule V = P.MIR;
  size_t Placed = 0;
  for (MFunction &F : V.Functions) {
    for (MBasicBlock &BB : F.Blocks) {
      for (size_t I = 0; I + 1 < BB.Instrs.size(); ++I) {
        if (BB.Instrs[I].Op != MOp::Jcc)
          continue;
        MInstr Nop;
        Nop.Op = MOp::Nop;
        Nop.NopK = x86::NopKind::XchgEbpEbp;
        BB.Instrs.insert(BB.Instrs.begin() + static_cast<long>(I) + 1, Nop);
        ++Placed;
        ++I;
      }
    }
  }
  ASSERT_GT(Placed, 0u) << "no block holds a Jcc before its last instr";
  ASSERT_TRUE(mir::equalModuloNops(P.MIR, V));

  const mexec::RunOptions Opts = fullCollect({30});
  const mexec::RunResult Real = mexec::Precompiled(V).run(Opts);
  const MemoCounts Before = MemoCounts::now();
  expectSame(Real, mexec::runMemoized(V, Opts), "derived from segments");
  EXPECT_EQ((MemoCounts::now() - Before).Derived, 1u);

  const mexec::RunResult Base = mexec::Precompiled(P.MIR).run(Opts);
  uint64_t ByBlock = Base.Instructions;
  for (size_t F = 0; F != V.Functions.size(); ++F)
    for (size_t B = 0; B != V.Functions[F].Blocks.size(); ++B)
      for (const MInstr &I : V.Functions[F].Blocks[B].Instrs)
        ByBlock += I.Op == MOp::Nop ? Base.BlockCounts[F][B] : 0;
  EXPECT_GT(ByBlock, Real.Instructions)
      << "block counts must overcount here, or this case tests nothing";
}

TEST(EngineParityDerived, TrappedOrOverBudgetBaseFallsBack) {
  driver::Program P = driver::compileProgram(R"(
    fn main() {
      var a = read_int();
      var s = 0;
      var i = 0;
      while (i < 40) { s = s + i * a; i = i + 1; }
      print_int(s);
      return 1000 / a;
    }
  )",
                                             "trap");
  ASSERT_TRUE(P.ok()) << P.errors();
  MModule V = nopVariant(P.MIR, diversity::DiversityOptions::uniform(0.5), 1);
  ASSERT_GT(countNops(V), 0u);
  ASSERT_TRUE(mir::equalModuloNops(P.MIR, V));

  // Dividing by zero: the baseline itself is answered from its stored
  // run, trap included; its NOP-only variant must run.
  mexec::RunOptions Opts;
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  Opts.Input = {0};
  MemoCounts Before = MemoCounts::now();
  const mexec::RunResult BaseTrap = mexec::runMemoized(P.MIR, Opts);
  EXPECT_EQ(BaseTrap.Trap, mexec::TrapKind::DivideByZero);
  expectSame(mexec::run(P.MIR, Opts), BaseTrap, "trapping baseline");
  expectSame(mexec::Precompiled(V).run(Opts), mexec::runMemoized(V, Opts),
             "trapping variant");
  MemoCounts D = MemoCounts::now() - Before;
  EXPECT_EQ(D.Fills, 1u);
  EXPECT_EQ(D.Derived, 1u);
  EXPECT_EQ(D.Fallbacks, 1u);

  // A budget the baseline finishes in exactly but the variant exceeds:
  // the derived count is over MaxSteps, so the variant must run (and
  // trap on the budget).
  Opts.Input = {7};
  Opts.MaxSteps = mexec::Precompiled(P.MIR).run(Opts).Instructions;
  Before = MemoCounts::now();
  expectSame(mexec::run(P.MIR, Opts), mexec::runMemoized(P.MIR, Opts),
             "baseline at its exact budget");
  const mexec::RunResult Over = mexec::runMemoized(V, Opts);
  EXPECT_EQ(Over.Trap, mexec::TrapKind::StepBudget);
  expectSame(mexec::Precompiled(V).run(Opts), Over, "variant over budget");
  D = MemoCounts::now() - Before;
  EXPECT_EQ(D.Derived, 1u);
  EXPECT_EQ(D.Fallbacks, 1u);
}

namespace {

/// Undoes one step of mir::hashModuloNops's fold, H = mix(Prev, V):
/// returns Prev.
uint64_t unmix(uint64_t H, uint64_t V) {
  constexpr uint64_t K = 0x9e3779b97f4a7c15ull;
  uint64_t KInv = K; // Newton's iteration for K^-1 mod 2^64.
  for (int I = 0; I != 5; ++I)
    KInv *= 2 - K * KInv;
  H ^= (H >> 29) ^ (H >> 58); // undo H ^= H >> 29
  return (H * KInv) ^ V;
}

/// One step of the fold, as mir::hashModuloNops takes it.
uint64_t mixed(uint64_t H, uint64_t V) {
  H = (H ^ V) * 0x9e3779b97f4a7c15ull;
  return H ^ (H >> 29);
}

/// The two words mir::hashModuloNops folds in for \p I.
std::pair<uint64_t, uint64_t> hashWords(const MInstr &I) {
  return {static_cast<uint64_t>(I.Op) | static_cast<uint64_t>(I.Dst) << 8 |
              static_cast<uint64_t>(I.Src) << 16 |
              static_cast<uint64_t>(I.Alu) << 24 |
              static_cast<uint64_t>(I.Shift) << 32 |
              static_cast<uint64_t>(I.CC) << 40 |
              static_cast<uint64_t>(I.NopK) << 48 |
              static_cast<uint64_t>(I.Target.IsIntrinsic) << 56 |
              static_cast<uint64_t>(I.Target.Intr) << 57,
          static_cast<uint32_t>(I.Imm) |
              static_cast<uint64_t>(I.Target.Func) << 32};
}

} // namespace

TEST(EngineParityDerived, HashHitsThatAreNotTheBasePlusNopsRunPlainly) {
  // Two modules that hash like a stored NOP-free base but are not that
  // base plus single NOPs: one with two NOPs before one instruction, one
  // whose last instruction differs in a field and whose digest still
  // collides. The one walk that checks equality and charges NOPs must
  // refuse both: each runs plainly, equals a real run, and counts one
  // fallback.
  driver::Program P = driver::compileProgram(R"(
    fn main() {
      var n = read_int();
      var s = 0;
      var i = 0;
      while (i < n) { s = s + i * i; i = i + 1; }
      print_int(s);
      return 0;
    }
  )",
                                             "collide");
  ASSERT_TRUE(P.ok()) << P.errors();
  const mexec::RunOptions Opts = fullCollect({25});
  const MemoCounts Before = MemoCounts::now();
  expectSame(mexec::Precompiled(P.MIR).run(Opts),
             mexec::runMemoized(P.MIR, Opts), "stored base");
  EXPECT_EQ((MemoCounts::now() - Before).Fills, 1u);
  const uint64_t Digest = mir::hashModuloNops(P.MIR);
  const MModule V =
      nopVariant(P.MIR, diversity::DiversityOptions::uniform(0.5), 3);
  ASSERT_GT(countNops(V), 0u);

  MModule TwoNops = V;
  bool Doubled = false;
  for (MFunction &F : TwoNops.Functions)
    for (MBasicBlock &BB : F.Blocks)
      for (size_t I = 0; I != BB.Instrs.size() && !Doubled; ++I)
        if (BB.Instrs[I].Op == MOp::Nop) {
          BB.Instrs.insert(BB.Instrs.begin() + static_cast<long>(I),
                           BB.Instrs[I]);
          Doubled = true;
        }
  ASSERT_TRUE(Doubled);

  // The digest ends with the last instruction's two words and the last
  // block's instruction count. Give that Ret another Shift field (which
  // a Ret does not read) and pick the Imm/Func word that folds back to
  // the same digest.
  MModule Collides = V;
  const MBasicBlock &LastBlock = Collides.Functions.back().Blocks.back();
  MInstr &Last = Collides.Functions.back().Blocks.back().Instrs.back();
  ASSERT_EQ(Last.Op, MOp::Ret);
  uint64_t Kept = 0;
  for (const MInstr &I : LastBlock.Instrs)
    Kept += I.Op != MOp::Nop;
  const auto [W1, W2] = hashWords(Last);
  const uint64_t AfterLast = unmix(Digest, Kept);
  const uint64_t BeforeLast = unmix(unmix(AfterLast, W2), W1);
  Last.Shift = Last.Shift == x86::ShiftOp::Shl ? x86::ShiftOp::Sar
                                               : x86::ShiftOp::Shl;
  const uint64_t W2New =
      unmix(AfterLast, 0) ^ mixed(BeforeLast, hashWords(Last).first);
  Last.Imm = static_cast<int32_t>(static_cast<uint32_t>(W2New));
  Last.Target.Func = static_cast<uint32_t>(W2New >> 32);

  for (const auto &[M, What] :
       {std::pair<const MModule *, const char *>{&TwoNops, "two NOPs"},
        {&Collides, "colliding digest"}}) {
    SCOPED_TRACE(What);
    ASSERT_EQ(mir::hashModuloNops(*M), Digest);
    ASSERT_FALSE(mir::equalModuloNops(P.MIR, *M));
    const mexec::RunResult Real = mexec::Precompiled(*M).run(Opts);
    const MemoCounts At = MemoCounts::now();
    expectSame(Real, mexec::runMemoized(*M, Opts), What);
    const MemoCounts D = MemoCounts::now() - At;
    EXPECT_EQ(D.Fallbacks, 1u);
    EXPECT_EQ(D.Derived, 0u);
    EXPECT_EQ(D.Fills, 0u);
  }
}

TEST(EngineParityDerived, ConcurrentDerivationsOfOneProgram) {
  // Four threads derive one program's variants at once from a cold
  // memo entry, so they race on its fill: every result must equal a
  // serial real run, TSan must see no unguarded shared write, and the
  // racing misses must share a single fill.
  const workloads::Workload &W = workloads::specWorkload("429.mcf");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
  mexec::RunOptions Opts;
  Opts.Input = W.TrainInput;
  Opts.CollectOutput = true;
  Opts.MaxSteps = 40'000'000; // a key no other case fills
  std::vector<MModule> Variants = {P.MIR};
  std::vector<mexec::RunResult> Serial;
  for (const experiments::Config &C : experiments::paperConfigs())
    for (uint64_t Seed = 11; Seed <= 12; ++Seed)
      Variants.push_back(nopVariant(P.MIR, C.Opts, Seed));
  for (const MModule &V : Variants)
    Serial.push_back(mexec::Precompiled(V).run(Opts));

  constexpr unsigned Threads = 4;
  const MemoCounts Before = MemoCounts::now();
  std::vector<std::vector<mexec::RunResult>> Got(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T) {
    Workers.emplace_back([&, T] {
      for (size_t I = 0; I != Variants.size(); ++I)
        Got[T].push_back(mexec::runMemoized(
            Variants[(I + T) % Variants.size()], Opts));
    });
  }
  for (std::thread &Wk : Workers)
    Wk.join();
  const MemoCounts Delta = MemoCounts::now() - Before;
  EXPECT_EQ(Delta.Fills, 1u);
  EXPECT_EQ(Delta.Derived, Threads * Variants.size());
  for (unsigned T = 0; T != Threads; ++T) {
    ASSERT_EQ(Got[T].size(), Variants.size());
    for (size_t I = 0; I != Variants.size(); ++I) {
      size_t V = (I + T) % Variants.size();
      expectSame(Serial[V], Got[T][I],
                 "thread " + std::to_string(T) + " variant " +
                     std::to_string(V));
    }
  }
}
