//===-- tests/BatchTest.cpp - Parallel variant factory tests ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// The core guarantee of driver::makeVariantsBatch: parallelism never
// changes diversification output. For every workload, Jobs=1 and Jobs=8
// must produce byte-identical images and identical insertion statistics
// per seed, because each variant is a pure function of (program,
// options, seed). The TSan CI job runs this same binary to prove the
// shared baseline really is read-only across workers.
//
//===----------------------------------------------------------------------===//

#include "codegen/Linker.h"
#include "driver/Batch.h"
#include "mexec/Precompiled.h"
#include "obs/Metrics.h"
#include "support/ThreadPool.h"
#include "verify/BaselineCache.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

using namespace pgsd;

namespace {

/// Batches here run the default {nop} pipeline, whose variants
/// differential execution settles by mir::equalModuloNops without
/// running them, unless they must reach execution: then {nop,sched}.
const diversity::Pipeline Nop;
const diversity::Pipeline NopSched({diversity::TransformKind::Nop,
                                    diversity::TransformKind::Sched});

/// Byte-wise equality of two verified variants, stats included.
void expectIdentical(const driver::VerifiedVariant &A,
                     const driver::VerifiedVariant &B, size_t SeedIndex) {
  SCOPED_TRACE("seed index " + std::to_string(SeedIndex));
  EXPECT_EQ(A.V.Image.Text, B.V.Image.Text);
  const diversity::InsertionStats &SA = A.V.Pipeline.Nop;
  const diversity::InsertionStats &SB = B.V.Pipeline.Nop;
  EXPECT_EQ(SA.NopsInserted, SB.NopsInserted);
  EXPECT_EQ(SA.CandidateSites, SB.CandidateSites);
  EXPECT_EQ(SA.PerKind, SB.PerKind);
  EXPECT_EQ(A.SeedUsed, B.SeedUsed);
  EXPECT_EQ(A.Attempts, B.Attempts);
  EXPECT_EQ(A.UsedFallback, B.UsedFallback);
}

} // namespace

/// Determinism parity over the whole SPEC-like suite: serial and
/// 8-worker batches must be indistinguishable, seed for seed.
class BatchParityTest : public ::testing::TestWithParam<const char *> {};

TEST_P(BatchParityTest, SerialAndParallelImagesAreByteIdentical) {
  const workloads::Workload &W = workloads::specWorkload(GetParam());
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));

  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  std::vector<uint64_t> Seeds = {0x5eed0000ull ^ W.Name[0], 42};

  driver::BatchOptions Serial;
  Serial.Jobs = 1;
  // One bounded, known-terminating input keeps the suite-wide sweep
  // fast; the full default battery is exercised by BatchStressTest.
  Serial.Verify.InputBattery = {W.TrainInput};
  driver::BatchOptions Parallel = Serial;
  Parallel.Jobs = 8;

  driver::BatchResult A =
      driver::makeVariantsBatch(P, Nop, Opts, Seeds, Serial);
  driver::BatchResult B =
      driver::makeVariantsBatch(P, Nop, Opts, Seeds, Parallel);

  ASSERT_EQ(A.Variants.size(), Seeds.size());
  ASSERT_EQ(B.Variants.size(), Seeds.size());
  EXPECT_EQ(A.Jobs, 1u);
  EXPECT_EQ(B.Jobs, 8u);
  for (size_t I = 0; I != Seeds.size(); ++I)
    expectIdentical(A.Variants[I], B.Variants[I], I);
  // The aggregate counters are scheduling-independent too.
  EXPECT_EQ(A.Accepted, B.Accepted);
  EXPECT_EQ(A.Rejected, B.Rejected);
  EXPECT_EQ(A.Retried, B.Retried);
  EXPECT_EQ(A.TotalAttempts, B.TotalAttempts);
  // The workload battery is known-good: nothing should be rejected.
  EXPECT_TRUE(B.allAccepted());
  // Every {nop} attempt is its baseline plus NOPs, so differential
  // execution settles it without running: the baseline never runs or
  // consults the run memo -- under any job count. Each attempt is either
  // settled or served from the one-input battery.
  EXPECT_EQ(A.DiffIdentical, A.TotalAttempts);
  EXPECT_EQ(B.DiffIdentical, B.TotalAttempts);
  EXPECT_EQ(A.BaselineCacheFills, 0u);
  EXPECT_EQ(B.BaselineCacheFills, 0u);
  EXPECT_EQ(A.BaselineCacheHits + A.BaselineCacheFills + A.DiffIdentical,
            A.TotalAttempts);
  EXPECT_EQ(B.BaselineCacheHits + B.BaselineCacheFills + B.DiffIdentical,
            B.TotalAttempts);
}

INSTANTIATE_TEST_SUITE_P(
    Spec, BatchParityTest,
    ::testing::Values("470.lbm", "429.mcf", "462.libquantum", "401.bzip2",
                      "473.astar", "433.milc", "458.sjeng", "456.hmmer",
                      "444.namd", "482.sphinx3", "464.h264ref",
                      "450.soplex", "447.dealII", "453.povray",
                      "400.perlbench", "445.gobmk", "471.omnetpp",
                      "403.gcc", "483.xalancbmk"),
    [](const auto &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name;
    });

TEST(Batch, CountersAccountForEverySeed) {
  driver::Program P = driver::compileProgram(
      "fn main() { var s = 0; var i = 0; while (i < 40) { s = s + i; "
      "i = i + 1; } print_int(s); return 0; }",
      "counters");
  ASSERT_TRUE(P.ok()) << P.errors();

  std::vector<uint64_t> Seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  driver::BatchOptions B;
  B.Jobs = 4;
  driver::BatchResult R = driver::makeVariantsBatch(
      P, Nop, diversity::DiversityOptions::uniform(0.5), Seeds, B);

  EXPECT_EQ(R.Variants.size(), Seeds.size());
  EXPECT_EQ(R.Accepted + R.Rejected, Seeds.size());
  EXPECT_GE(R.TotalAttempts, Seeds.size());
  EXPECT_GT(R.WallSeconds, 0.0);
  EXPECT_GT(R.variantsPerSecond(), 0.0);
  EXPECT_EQ(R.Jobs, 4u);
  for (size_t I = 0; I != Seeds.size(); ++I)
    EXPECT_EQ(R.Variants[I].SeedUsed, Seeds[I]) << I;
  // Default battery: the baseline fills each input's cache entry at
  // most once, and every attempt is either settled modulo NOPs or
  // requests the whole battery. A {nop} batch settles every attempt.
  const size_t N = verify::defaultInputBattery().size();
  EXPECT_LE(R.BaselineCacheFills, N);
  EXPECT_EQ(R.BaselineCacheHits + R.BaselineCacheFills,
            (R.TotalAttempts - R.DiffIdentical) * N);
  EXPECT_EQ(R.DiffIdentical, R.TotalAttempts);
}

TEST(Batch, MetricsAgreeWithBatchResultCounters) {
  driver::Program P = driver::compileProgram(
      "fn main() { var s = 0; var i = 0; while (i < 25) { s = s + i; "
      "i = i + 1; } print_int(s); return 0; }",
      "metrics-parity");
  ASSERT_TRUE(P.ok()) << P.errors();

  obs::Registry::global().reset();
  obs::setEnabled(true);
  std::vector<uint64_t> Seeds = {21, 22, 23, 24, 25, 26};
  driver::BatchOptions B;
  B.Jobs = 4;
  driver::BatchResult R = driver::makeVariantsBatch(
      P, Nop, diversity::DiversityOptions::uniform(0.5), Seeds, B);
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  obs::setEnabled(false);
  obs::Registry::global().reset();

  // The exported counters must equal the BatchResult bookkeeping
  // exactly -- they are two views of the same run.
  EXPECT_EQ(Snap.Counters.at("batch.seeds"), Seeds.size());
  EXPECT_EQ(Snap.Counters.at("batch.accepted"), R.Accepted);
  EXPECT_EQ(Snap.Counters.at("batch.rejected"), R.Rejected);
  EXPECT_EQ(Snap.Counters.at("batch.retried"), R.Retried);
  EXPECT_EQ(Snap.Counters.at("batch.attempts_total"), R.TotalAttempts);
  EXPECT_EQ(Snap.Counters.at("verify.baseline_cache.hits"),
            R.BaselineCacheHits);
  EXPECT_EQ(Snap.Counters.at("verify.baseline_cache.fills"),
            R.BaselineCacheFills);
  EXPECT_EQ(Snap.Counters.at("verify.diff_identical"), R.DiffIdentical);
  EXPECT_EQ(Snap.Counters.at("verify.attempts"), R.TotalAttempts);
  EXPECT_EQ(Snap.Counters.at("batch.suppressed_exceptions"),
            R.SuppressedExceptions);
  EXPECT_EQ(R.SuppressedExceptions, 0u); // clean run suppresses nothing
  EXPECT_DOUBLE_EQ(Snap.Gauges.at("batch.jobs"), 4.0);
  EXPECT_DOUBLE_EQ(Snap.Gauges.at("batch.wall_seconds"), R.WallSeconds);

  // Every seed ran under a span, and the worker-side pipeline phases
  // were merged in (one diversify + one emit per attempt at minimum).
  EXPECT_EQ(Snap.Phases.at("batch.seed").Count, Seeds.size());
  EXPECT_GE(Snap.Phases.at("pipeline.diversify").Count, Seeds.size());
  EXPECT_EQ(Snap.Phases.at("batch.setup").Count, 1u);
  EXPECT_EQ(Snap.Phases.at("batch.fanout").Count, 1u);

  // Coordinator phases partition the measured window: setup + fanout
  // must reproduce WallSeconds to within scheduling noise (10%).
  double PhaseSum = Snap.Phases.at("batch.setup").WallSeconds +
                    Snap.Phases.at("batch.fanout").WallSeconds;
  EXPECT_NEAR(PhaseSum, R.WallSeconds,
              0.10 * R.WallSeconds + 1e-4);

  // Determinism guard: the same seeds with telemetry off must produce
  // byte-identical images (telemetry never touches variant bits).
  driver::BatchResult Quiet = driver::makeVariantsBatch(
      P, Nop, diversity::DiversityOptions::uniform(0.5), Seeds, B);
  for (size_t I = 0; I != Seeds.size(); ++I)
    EXPECT_EQ(R.Variants[I].V.Image.Text, Quiet.Variants[I].V.Image.Text)
        << "telemetry changed variant bits at seed index " << I;
}

TEST(Batch, SuppressedWorkerExceptionsAreCountedAndExported) {
  driver::Program P =
      driver::compileProgram("fn main() { return 7; }", "thrower");
  ASSERT_TRUE(P.ok()) << P.errors();

  obs::Registry::global().reset();
  obs::setEnabled(true);
  driver::BatchOptions B;
  B.Jobs = 4;
  B.Verify.MaxAttempts = 1;
  // Every worker task throws: the first exception propagates out of the
  // batch, and the other three must be counted, not silently dropped.
  B.Verify.InjectFault = [](mir::MModule &, codegen::Image &, uint64_t) {
    throw std::runtime_error("seam exploded");
  };
  EXPECT_THROW(driver::makeVariantsBatch(
                   P, Nop, diversity::DiversityOptions::uniform(0.5),
                   {1, 2, 3, 4}, B),
               std::runtime_error);
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  obs::setEnabled(false);
  obs::Registry::global().reset();
  EXPECT_EQ(Snap.Counters.at("batch.suppressed_exceptions"), 3u);
}

TEST(Batch, DefaultJobCountUsesHardwareConcurrency) {
  driver::Program P =
      driver::compileProgram("fn main() { return 7; }", "tiny");
  ASSERT_TRUE(P.ok()) << P.errors();
  driver::BatchResult R = driver::makeVariantsBatch(
      P, Nop, diversity::DiversityOptions::uniform(0.3), {1, 2});
  EXPECT_EQ(R.Jobs, support::ThreadPool::defaultConcurrency());
}

TEST(Batch, RejectedSeedsFallBackToBaselineAndAreCounted) {
  driver::Program P = driver::compileProgram(
      "fn main() { print_int(read_int() * 3); return 0; }", "reject");
  ASSERT_TRUE(P.ok()) << P.errors();
  codegen::Image Baseline = driver::linkBaseline(P);

  driver::BatchOptions B;
  B.Jobs = 4;
  B.Verify.MaxAttempts = 2;
  // Corrupt every candidate image: each worker mutates only its own
  // variant, so the seam stays thread-safe while guaranteeing that
  // image verification rejects every attempt.
  B.Verify.InjectFault = [](mir::MModule &, codegen::Image &Img,
                            uint64_t) {
    if (!Img.Text.empty())
      Img.Text[0] ^= 0xFF;
  };
  std::vector<uint64_t> Seeds = {10, 11, 12, 13};
  driver::BatchResult R = driver::makeVariantsBatch(
      P, Nop, diversity::DiversityOptions::uniform(0.5), Seeds, B);

  EXPECT_FALSE(R.allAccepted());
  EXPECT_EQ(R.Rejected, Seeds.size());
  EXPECT_EQ(R.Accepted, 0u);
  EXPECT_EQ(R.Retried, Seeds.size());
  EXPECT_EQ(R.TotalAttempts, Seeds.size() * 2);
  for (const driver::VerifiedVariant &V : R.Variants) {
    EXPECT_TRUE(V.UsedFallback);
    EXPECT_EQ(V.V.Image.Text, Baseline.Text);
    EXPECT_TRUE(V.Report.has(verify::ErrorCode::RetriesExhausted));
  }
}

//===----------------------------------------------------------------------===//
// Baseline batteries through the process-wide run memo (mexec/RunMemo.h)
//===----------------------------------------------------------------------===//

namespace {

/// Field-by-field RunResult equality.
void expectSameRun(const mexec::RunResult &A, const mexec::RunResult &B) {
  EXPECT_EQ(A.Trapped, B.Trapped);
  EXPECT_EQ(A.Trap, B.Trap);
  EXPECT_EQ(A.TrapReason, B.TrapReason);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.Cycles10, B.Cycles10);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.Checksum, B.Checksum);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Counters, B.Counters);
  EXPECT_EQ(A.BlockCounts, B.BlockCounts);
}

/// Requests every entry of \p C.
void fillAll(const verify::BaselineCache &C) {
  for (size_t I = 0; I != C.battery().size(); ++I)
    C.baselineRun(I);
}

/// An input no other battery in this process holds, so a run on it
/// misses the memo whatever ran before (--gtest_repeat included).
std::vector<int32_t> uniqueInput() {
  static std::atomic<int32_t> Next{0};
  return {-424242, Next.fetch_add(1)};
}

/// A terminating test program; \p Tag varies a global initializer (and
/// hence the memo key).
driver::Program memoProgram(int Tag) {
  driver::Program P = driver::compileProgram(
      "global table[4] = { 3, " + std::to_string(Tag) +
          ", 9 }; fn main() { var n = read_int(); var s = 0; var i = 0; "
          "while (i < 30) { s = s + table[i % 3] * i + n; i = i + 1; } "
          "print_int(s); return 0; }",
      "memo" + std::to_string(Tag));
  EXPECT_TRUE(P.ok()) << P.errors();
  return P;
}

/// The run memo's counters over one call of \p Body, with telemetry on.
struct MemoCounts {
  uint64_t Fills = 0, Derived = 0, Fallbacks = 0, Copies = 0;
};
template <typename Fn> MemoCounts memoCountsOf(Fn &&Body) {
  obs::Registry::global().reset();
  obs::setEnabled(true);
  Body();
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  obs::setEnabled(false);
  obs::Registry::global().reset();
  auto Get = [&](const char *Key) -> uint64_t {
    auto It = Snap.Counters.find(Key);
    return It == Snap.Counters.end() ? 0 : It->second;
  };
  return {Get("mexec.run_memo.fills"), Get("mexec.run_memo.derived"),
          Get("mexec.run_memo.fallbacks"), Get("mexec.run_memo.copies")};
}

} // namespace

TEST(RunMemo, SecondBatchFillsNothing) {
  driver::Program P = memoProgram(101);
  const size_t N = verify::defaultInputBattery().size();
  const auto Opts = diversity::DiversityOptions::uniform(0.5);
  std::vector<uint64_t> Seeds = {1, 2, 3, 4, 5};
  driver::BatchOptions B;
  B.Jobs = 2;

  // The first batch runs the battery or finds it in the memo.
  driver::BatchResult First =
      driver::makeVariantsBatch(P, NopSched, Opts, Seeds, B);
  EXPECT_EQ(First.BaselineCacheFills, N);

  driver::BatchResult Second;
  MemoCounts C = memoCountsOf([&] {
    Second = driver::makeVariantsBatch(P, NopSched, Opts, Seeds, B);
  });
  EXPECT_EQ(C.Fills, 0u);
  EXPECT_EQ(C.Derived, N);
  EXPECT_EQ(C.Fallbacks, 0u);
  EXPECT_EQ(Second.BaselineCacheFills, N);
  EXPECT_LT(Second.DiffIdentical, Second.TotalAttempts);
  EXPECT_EQ(Second.BaselineCacheHits + Second.BaselineCacheFills,
            (Second.TotalAttempts - Second.DiffIdentical) * N);
  ASSERT_EQ(Second.Variants.size(), Seeds.size());
  for (size_t I = 0; I != Seeds.size(); ++I) {
    expectIdentical(First.Variants[I], Second.Variants[I], I);
    EXPECT_EQ(First.Variants[I].Report.str(), Second.Variants[I].Report.str());
  }
  EXPECT_EQ(First.Accepted, Second.Accepted);
  EXPECT_EQ(First.TotalAttempts, Second.TotalAttempts);

  // So does makeVariantVerified when the caller brings no cache.
  driver::VerifiedVariant One;
  C = memoCountsOf([&] {
    One = driver::makeVariantVerified(P, NopSched, Opts, Seeds[0],
                                      verify::VerifyOptions(),
                                      codegen::LinkOptions());
  });
  EXPECT_EQ(C.Fills, 0u);
  EXPECT_EQ(C.Derived, N);
  EXPECT_EQ(One.V.Image.Text, First.Variants[0].V.Image.Text);
}

TEST(RunMemo, RecalledRunsEqualPlainRunsOnEveryWorkload) {
  for (const workloads::Workload &W : workloads::specSuite()) {
    SCOPED_TRACE(W.Name);
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << P.errors();
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
    const verify::VerifyOptions VOpts;

    // Make sure the memo holds the battery (a no-op if it already does).
    fillAll(verify::BaselineCache(P.MIR, VOpts));

    verify::BaselineCache Recalled(P.MIR, VOpts);
    EXPECT_EQ(memoCountsOf([&] { fillAll(Recalled); }).Fills, 0u);
    const mexec::Precompiled Plain(P.MIR);
    for (size_t I = 0; I != Recalled.battery().size(); ++I) {
      SCOPED_TRACE("input #" + std::to_string(I));
      mexec::RunOptions Run;
      Run.Input = Recalled.battery()[I];
      Run.CollectOutput = true;
      Run.MaxSteps = VOpts.MaxSteps;
      expectSameRun(Recalled.baselineRun(I), Plain.run(Run));
    }
  }
}

TEST(RunMemo, EveryKeyFieldDiscriminates) {
  driver::Program P = memoProgram(202);
  const std::vector<int32_t> In = uniqueInput();
  verify::VerifyOptions VOpts;
  VOpts.InputBattery = {In};
  auto FillsFor = [](const driver::Program &Prog,
                     const verify::VerifyOptions &O) {
    return memoCountsOf([&] { fillAll(verify::BaselineCache(Prog.MIR, O)); })
        .Fills;
  };
  EXPECT_EQ(FillsFor(P, VOpts), 1u);
  EXPECT_EQ(FillsFor(P, VOpts), 0u);

  // Global initializer: table[1] = 7 instead of 202.
  EXPECT_EQ(FillsFor(memoProgram(7), VOpts), 1u);

  // Input: one word changed, and one word appended that the program
  // never reads.
  verify::VerifyOptions Other = VOpts;
  Other.InputBattery = {{In[0] - 1, In[1]}};
  EXPECT_EQ(FillsFor(P, Other), 1u);
  Other.InputBattery = {{In[0], In[1], 0}};
  EXPECT_EQ(FillsFor(P, Other), 1u);

  // Step budget.
  Other = VOpts;
  Other.MaxSteps = VOpts.MaxSteps - 1;
  EXPECT_EQ(FillsFor(P, Other), 1u);
}

TEST(RunMemo, OneModuleCopyServesEveryInput) {
  driver::Program P = memoProgram(303);
  verify::VerifyOptions VOpts;
  VOpts.InputBattery = {uniqueInput(), uniqueInput(), uniqueInput()};
  MemoCounts C = memoCountsOf([&] {
    fillAll(verify::BaselineCache(P.MIR, VOpts));
  });
  EXPECT_EQ(C.Fills, 3u);
  EXPECT_LE(C.Copies, 1u); // 0 when an earlier test stored this module.
}

TEST(RunMemo, ConcurrentBatchesFillEachPairOnce) {
  driver::Program P = memoProgram(505);
  const auto Opts = diversity::DiversityOptions::uniform(0.5);
  std::vector<uint64_t> Seeds = {7, 8, 9, 10};
  driver::BatchOptions B;
  B.Jobs = 2;
  B.Verify.InputBattery = {{5}, uniqueInput(), uniqueInput()};
  const size_t N = B.Verify.InputBattery.size();

  driver::BatchResult R[2];
  MemoCounts C = memoCountsOf([&] {
    auto Run = [&](int I) {
      R[I] = driver::makeVariantsBatch(P, NopSched, Opts, Seeds, B);
    };
    std::thread T0(Run, 0), T1(Run, 1);
    T0.join();
    T1.join();
  });
  // {5} may be warm from an earlier repetition; the unique inputs are
  // cold, and each is run once however the two batches interleave.
  EXPECT_GE(C.Fills, N - 1);
  EXPECT_LE(C.Fills, N);
  EXPECT_EQ(C.Derived + C.Fallbacks, 2 * N);
  for (const driver::BatchResult &X : R) {
    EXPECT_EQ(X.BaselineCacheFills, N);
    EXPECT_TRUE(X.allAccepted());
  }
  for (size_t I = 0; I != Seeds.size(); ++I)
    expectIdentical(R[0].Variants[I], R[1].Variants[I], I);

  EXPECT_EQ(memoCountsOf([&] {
              driver::makeVariantsBatch(P, NopSched, Opts, Seeds, B);
            }).Fills,
            0u);
}

TEST(RunMemo, WarmMemoStillRejectsSemanticFaults) {
  driver::Program P = driver::compileProgram(
      "fn main() { var x = read_int(); print_int(x + 1234); return 0; }",
      "memo-fault");
  ASSERT_TRUE(P.ok()) << P.errors();
  const auto Opts = diversity::DiversityOptions::uniform(0.5);
  std::vector<uint64_t> Seeds = {1, 2, 3};
  driver::BatchOptions B;
  B.Jobs = 2;
  ASSERT_TRUE(
      driver::makeVariantsBatch(P, Nop, Opts, Seeds, B).allAccepted());

  // Only differential execution can see this fault: the constant changes
  // in the MIR and the image is re-linked from it, and the prover is
  // off.
  B.Verify.CheckEquiv = false;
  B.Verify.MaxAttempts = 1;
  B.Verify.InjectFault = [](mir::MModule &M, codegen::Image &Img,
                            uint64_t) {
    for (mir::MFunction &F : M.Functions)
      for (mir::MBasicBlock &BB : F.Blocks)
        for (mir::MInstr &I : BB.Instrs)
          if (I.Imm == 1234)
            I.Imm = 1235;
    Img = codegen::link(M, codegen::LinkOptions());
  };
  // The faulty variants execute: the first faulty batch leaves the
  // baseline's battery in the memo (if nothing else had), the second
  // recalls it and still rejects every seed.
  driver::BatchResult Cold = driver::makeVariantsBatch(P, Nop, Opts, Seeds, B);
  EXPECT_EQ(Cold.Rejected, Seeds.size());
  driver::BatchResult R;
  MemoCounts C = memoCountsOf(
      [&] { R = driver::makeVariantsBatch(P, Nop, Opts, Seeds, B); });
  EXPECT_EQ(C.Fills, 0u);
  EXPECT_EQ(R.DiffIdentical, 0u);
  EXPECT_EQ(R.Rejected, Seeds.size());
  for (const driver::VerifiedVariant &V : R.Variants)
    EXPECT_TRUE(V.Report.has(verify::ErrorCode::ChecksumMismatch))
        << V.Report.str();
}

TEST(RunMemo, NopBatchConsultsNothing) {
  driver::Program P = memoProgram(606);
  const auto Opts = diversity::DiversityOptions::uniform(0.5);
  std::vector<uint64_t> Seeds = {1, 2, 3, 4};
  driver::BatchOptions B;
  B.Jobs = 2;
  // A battery no other test runs, so an executing batch must fill it.
  B.Verify.InputBattery = {uniqueInput(), uniqueInput()};

  // Every {nop} attempt is settled modulo NOPs: no baseline entry fills
  // and the run memo is never consulted.
  driver::BatchResult R;
  MemoCounts C = memoCountsOf(
      [&] { R = driver::makeVariantsBatch(P, Nop, Opts, Seeds, B); });
  EXPECT_TRUE(R.allAccepted());
  EXPECT_EQ(R.DiffIdentical, R.TotalAttempts);
  EXPECT_EQ(R.BaselineCacheFills, 0u);
  EXPECT_EQ(R.BaselineCacheHits, 0u);
  EXPECT_EQ(C.Fills + C.Derived + C.Fallbacks, 0u);

  // The same batch under {nop,sched} executes its variants, and fills
  // each battery entry through the memo exactly once.
  driver::BatchResult S;
  C = memoCountsOf(
      [&] { S = driver::makeVariantsBatch(P, NopSched, Opts, Seeds, B); });
  EXPECT_TRUE(S.allAccepted());
  EXPECT_LT(S.DiffIdentical, S.TotalAttempts);
  EXPECT_EQ(S.BaselineCacheFills, B.Verify.InputBattery.size());
  EXPECT_EQ(C.Fills, B.Verify.InputBattery.size());
  EXPECT_EQ(C.Derived, B.Verify.InputBattery.size());
}
