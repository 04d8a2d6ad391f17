//===-- tests/BatchStressTest.cpp - Batch factory stress tests --------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Tier-2 stress coverage of the parallel variant factory: every workload
// of the SPEC-like suite, many seeds each, 8 workers, through the *full*
// admission path (analysis, prover, default input battery, image check),
// asserting zero rejected variants and bounded retry counts.
//
// Scale is environment-keyed so the binary serves two ctest tiers:
//   default        -- smoke scale (2 seeds, train-input battery), cheap
//                     enough for the tier-1 run and the TSan CI job.
//   PGSD_STRESS=1  -- full scale: 16 seeds per workload with the default
//                     battery (19 x 16 x 8 jobs). Run it via
//                     `PGSD_STRESS=1 ctest -L stress`.
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace pgsd;

namespace {

bool fullScale() {
  const char *S = std::getenv("PGSD_STRESS");
  return S && S[0] == '1';
}

} // namespace

class BatchStressTest : public ::testing::TestWithParam<const char *> {};

TEST_P(BatchStressTest, AllSeedsVerifyWithBoundedRetries) {
  const workloads::Workload &W = workloads::specWorkload(GetParam());
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));

  unsigned SeedsPer = fullScale() ? 16 : 2;
  std::vector<uint64_t> Seeds;
  for (unsigned S = 0; S != SeedsPer; ++S)
    Seeds.push_back(0x57e55ull * (S + 1) + W.Name[0]);

  driver::BatchOptions B;
  B.Jobs = 8;
  B.Verify.MaxAttempts = 3;
  if (!fullScale())
    B.Verify.InputBattery = {W.TrainInput};

  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  driver::BatchResult R =
      driver::makeVariantsBatch(P, diversity::Pipeline(), Opts, Seeds, B);

  // Zero rejected: every seed must yield a verified diversified image.
  EXPECT_TRUE(R.allAccepted()) << R.Rejected << " seed(s) rejected";
  EXPECT_EQ(R.Accepted, Seeds.size());
  // Bounded retries: the battery is known-good, so first-attempt
  // acceptance is the norm and the retry budget is never exhausted.
  EXPECT_LE(R.TotalAttempts, Seeds.size() * B.Verify.MaxAttempts);
  for (const driver::VerifiedVariant &V : R.Variants) {
    EXPECT_FALSE(V.UsedFallback);
    EXPECT_LE(V.Attempts, B.Verify.MaxAttempts);
    EXPECT_GT(V.V.Pipeline.Nop.NopsInserted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spec, BatchStressTest,
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
