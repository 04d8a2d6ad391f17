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

#include "driver/Batch.h"
#include "obs/Metrics.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace pgsd;

namespace {

/// Every batch here runs the default {nop} pipeline.
const diversity::Pipeline Nop;

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
  // The shared baseline cache runs the baseline once per input (the
  // battery here is a single stream), then serves every further variant
  // attempt from memory -- under any job count.
  EXPECT_EQ(A.BaselineCacheFills, 1u);
  EXPECT_EQ(B.BaselineCacheFills, 1u);
  EXPECT_EQ(A.BaselineCacheHits, A.TotalAttempts - 1);
  EXPECT_EQ(B.BaselineCacheHits, B.TotalAttempts - 1);
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
  // most once; with 8 seeds sharing one cache, most requests must hit.
  EXPECT_LE(R.BaselineCacheFills, verify::defaultInputBattery().size());
  EXPECT_GT(R.BaselineCacheHits, R.BaselineCacheFills);
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
