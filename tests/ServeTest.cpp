//===-- tests/ServeTest.cpp - Serving daemon tests ---------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the `pgsdc serve` subsystem: content-addressed store keying
/// and round trips, corruption self-healing (crash recovery), restart
/// resume from cache hits, baseline prewarming, deterministic admission
/// shedding, and the distinct-variant serving contract.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "serve/Admission.h"
#include "serve/Server.h"
#include "serve/VariantStore.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "verify/BaselineCache.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

namespace fs = std::filesystem;
using namespace pgsd;

namespace {

/// Fixture: one compiled, profile-stamped workload and a private store
/// directory per test (ctest may run suites in parallel).
class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    const workloads::Workload &W = workloads::specSuite().front();
    P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok());
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
    Train = W.TrainInput;
    const ::testing::TestInfo *Info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = fs::temp_directory_path() /
          ("pgsd-serve-" + std::to_string(::getpid()) + "-" + Info->name());
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  void TearDown() override {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  /// Options shared by the serve-loop tests: the private store, the
  /// paper's profiled model, and a single-input battery for speed.
  serve::ServeOptions baseOptions() const {
    serve::ServeOptions O;
    O.StoreDir = Dir.string();
    O.Diversity = diversity::DiversityOptions::profiled(
        diversity::ProbabilityModel::Log, 0.0, 0.3);
    O.Verify.InputBattery = {Train};
    O.Jobs = 2;
    return O;
  }

  /// The on-disk path of the variant entry for \p Seed under
  /// baseOptions() -- what the crash-recovery tests corrupt.
  fs::path variantPath(const serve::ServeOptions &O, uint64_t Seed) const {
    serve::StoreKey K =
        serve::makeVariantKey(P.MIR, O.Pipe, O.Diversity, Seed, O.Link);
    return Dir / (K.hex() + ".variant");
  }

  driver::Program P;
  std::vector<int32_t> Train;
  fs::path Dir;
};

//===----------------------------------------------------------------------===//
// Store keying
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, KeyDiscriminatesEveryInput) {
  diversity::Pipeline Nop;
  diversity::DiversityOptions D = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  codegen::LinkOptions Link;

  serve::StoreKey Base = serve::makeVariantKey(P.MIR, Nop, D, 7, Link);
  EXPECT_EQ(Base, serve::makeVariantKey(P.MIR, Nop, D, 7, Link))
      << "keying must be deterministic";

  // Seed.
  EXPECT_FALSE(Base == serve::makeVariantKey(P.MIR, Nop, D, 8, Link));

  // Diversity budget.
  diversity::DiversityOptions D2 = D;
  D2.PMax = 0.5;
  EXPECT_FALSE(Base == serve::makeVariantKey(P.MIR, Nop, D2, 7, Link));

  // Pipeline.
  diversity::Pipeline Wide(std::vector<diversity::TransformKind>{
      diversity::TransformKind::Nop, diversity::TransformKind::Shift});
  EXPECT_FALSE(Base == serve::makeVariantKey(P.MIR, Wide, D, 7, Link));

  // The baseline artifact never collides with a variant.
  serve::StoreKey BK = serve::makeBaselineKey(P.MIR, Link);
  EXPECT_FALSE(Base == BK);

  // Precomputed key material derives identical keys.
  std::string Material = serve::baseKeyMaterial(P.MIR, Link);
  EXPECT_EQ(Base, serve::makeVariantKey(Material, Nop, D, 7));
}

TEST_F(ServeTest, KeyIncludesProfile) {
  // The profile counts are stamped into the MIR and printed into the key
  // material, so re-profiling with a different train input re-keys.
  diversity::Pipeline Nop;
  diversity::DiversityOptions D;
  codegen::LinkOptions Link;
  serve::StoreKey Before = serve::makeVariantKey(P.MIR, Nop, D, 1, Link);

  const workloads::Workload &W = workloads::specSuite().front();
  driver::Program Q = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(Q.ok());
  std::vector<int32_t> Other = W.TrainInput;
  ASSERT_FALSE(Other.empty());
  Other[0] = Other[0] / 2 + 1;
  ASSERT_TRUE(driver::profileAndStamp(Q, Other));
  serve::StoreKey After = serve::makeVariantKey(Q.MIR, Nop, D, 1, Link);
  EXPECT_FALSE(Before == After);
}

TEST_F(ServeTest, BaselineKeyCoversBatteryAndSteps) {
  codegen::LinkOptions Link;
  const std::string Material = serve::baseKeyMaterial(P.MIR, Link);
  const serve::StoreKey Default = serve::makeBaselineKey(P.MIR, Link);
  verify::VerifyOptions V;
  EXPECT_EQ(Default, serve::makeBaselineKey(Material, V))
      << "the 2-argument key is the key of the default options";
  V.InputBattery = verify::defaultInputBattery();
  EXPECT_EQ(Default, serve::makeBaselineKey(Material, V))
      << "keys cover the resolved battery, not how it was spelled";

  V.InputBattery = {Train};
  EXPECT_FALSE(Default == serve::makeBaselineKey(Material, V));
  V = verify::VerifyOptions();
  V.MaxSteps /= 2;
  EXPECT_FALSE(Default == serve::makeBaselineKey(Material, V));
}

TEST_F(ServeTest, KeysCoverGlobalLayoutAndInitializers) {
  // Two pairs whose MIR instructions print identically: one differs
  // only in a global initializer (same .text, different baseline runs),
  // the other in a global's size (same runs, different .text -- the
  // next global moves). One shared store must never serve or prewarm
  // across either pair.
  const char *Pairs[][2] = {
      {"global table[4] = { 1, 2, 3 }; fn main() { "
       "print_int(table[1]); return 0; }",
       "global table[4] = { 1, 7, 3 }; fn main() { "
       "print_int(table[1]); return 0; }"},
      {"global a[4]; global b[1]; fn main() { b[0] = 5; a[1] = 2; "
       "print_int(b[0] + a[1]); return 0; }",
       "global a[8]; global b[1]; fn main() { b[0] = 5; a[1] = 2; "
       "print_int(b[0] + a[1]); return 0; }"},
  };
  serve::ServeOptions O;
  O.StoreDir = Dir.string();
  O.Diversity = diversity::DiversityOptions::uniform(0.5);
  O.Requests = 2;
  O.Jobs = 2;
  for (const auto &Pair : Pairs) {
    driver::Program First = driver::compileProgram(Pair[0], "first");
    driver::Program Second = driver::compileProgram(Pair[1], "second");
    ASSERT_TRUE(First.ok()) << First.errors();
    ASSERT_TRUE(Second.ok()) << Second.errors();

    serve::ServeResult A = serve::serveVariants(First, O);
    ASSERT_TRUE(A.ok()) << A.Error;
    EXPECT_EQ(A.Fills, 2u);
    serve::ServeResult B = serve::serveVariants(Second, O);
    ASSERT_TRUE(B.ok()) << B.Error;
    EXPECT_EQ(B.Hits, 0u) << Pair[1];
    EXPECT_EQ(B.BaselinePrewarmed, 0u) << Pair[1];
    EXPECT_EQ(B.Fills, 2u);
    EXPECT_EQ(B.Failed, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Store round trip and corruption handling
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, StoreRoundTrip) {
  serve::VariantStore Store(Dir.string());
  std::string Err;
  ASSERT_TRUE(Store.open(&Err)) << Err;

  serve::StoreKey K{0x1234, 0x5678};
  serve::StoredVariant V;
  V.Text = {0x90, 0x48, 0x89, 0xe5, 0x00, 0xff};
  V.Seed = 21;
  V.SeedUsed = 23;
  V.Attempts = 3;
  ASSERT_TRUE(Store.publish(K, V, &Err)) << Err;
  EXPECT_TRUE(Store.contains(K));

  serve::StoredVariant Out;
  ASSERT_EQ(Store.load(K, Out), serve::LoadStatus::Hit);
  EXPECT_EQ(Out.Text, V.Text);
  EXPECT_EQ(Out.Seed, 21u);
  EXPECT_EQ(Out.SeedUsed, 23u);
  EXPECT_EQ(Out.Attempts, 3u);

  serve::StoreKey Unknown{0xdead, 0xbeef};
  EXPECT_EQ(Store.load(Unknown, Out), serve::LoadStatus::Miss);
  EXPECT_FALSE(Store.contains(Unknown));
  EXPECT_EQ(Store.hits(), 1u);
  EXPECT_EQ(Store.misses(), 1u);
  EXPECT_EQ(Store.publishes(), 1u);
}

TEST_F(ServeTest, BaselineArtifactRoundTrip) {
  serve::VariantStore Store(Dir.string());
  ASSERT_TRUE(Store.open());

  serve::BaselineArtifact A;
  mexec::RunResult R;
  R.ExitCode = 7;
  R.Checksum = 0xabcdef01;
  R.Instructions = 123456;
  R.Cycles10 = 789;
  R.Output = "hello\n42\n";
  A.Runs.emplace_back(2, R);

  serve::StoreKey K = serve::makeBaselineKey(P.MIR, codegen::LinkOptions());
  std::string Err;
  ASSERT_TRUE(Store.publishBaseline(K, A, &Err)) << Err;

  serve::BaselineArtifact Out;
  ASSERT_EQ(Store.loadBaseline(K, Out), serve::LoadStatus::Hit);
  ASSERT_EQ(Out.Runs.size(), 1u);
  EXPECT_EQ(Out.Runs[0].first, 2u);
  EXPECT_EQ(Out.Runs[0].second.ExitCode, 7);
  EXPECT_EQ(Out.Runs[0].second.Checksum, 0xabcdef01u);
  EXPECT_EQ(Out.Runs[0].second.Instructions, 123456u);
  EXPECT_EQ(Out.Runs[0].second.Output, "hello\n42\n");
}

TEST_F(ServeTest, CorruptEntrySelfHeals) {
  serve::VariantStore Store(Dir.string());
  ASSERT_TRUE(Store.open());

  serve::StoreKey K{0x42, 0x43};
  serve::StoredVariant V;
  V.Text.assign(64, 0x90);
  ASSERT_TRUE(Store.publish(K, V));

  // Truncate the entry: the digest check must refuse to serve it, and
  // the torn file must be unlinked so the next load is a clean miss.
  fs::path Entry = Dir / (K.hex() + ".variant");
  ASSERT_TRUE(fs::exists(Entry));
  fs::resize_file(Entry, fs::file_size(Entry) / 2);

  serve::StoredVariant Out;
  EXPECT_EQ(Store.load(K, Out), serve::LoadStatus::Corrupt);
  EXPECT_FALSE(fs::exists(Entry)) << "corrupt entry must be unlinked";
  EXPECT_EQ(Store.load(K, Out), serve::LoadStatus::Miss);
  EXPECT_EQ(Store.corruptions(), 1u);

  // Bit flip inside the payload: same contract.
  ASSERT_TRUE(Store.publish(K, V));
  {
    std::fstream F(Entry, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.is_open());
    F.seekg(0, std::ios::end);
    std::streamoff Size = F.tellg();
    F.seekp(Size - 4);
    char Byte = 0x7f;
    F.write(&Byte, 1);
  }
  EXPECT_EQ(Store.load(K, Out), serve::LoadStatus::Corrupt);
  EXPECT_EQ(Store.load(K, Out), serve::LoadStatus::Miss);
}

TEST_F(ServeTest, StoreOpenFailsOnUncreatablePath) {
  // /dev/null is a file, so a directory cannot be created beneath it
  // even for root.
  serve::VariantStore Store("/dev/null/pgsd-store");
  std::string Err;
  EXPECT_FALSE(Store.open(&Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Serve loop: cold fills, restart resume, crash recovery
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, ColdRunFillsThenRestartHits) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 6;

  serve::ServeResult Cold = serve::serveVariants(P, O);
  ASSERT_TRUE(Cold.ok()) << Cold.Error;
  EXPECT_EQ(Cold.Served, 6u);
  EXPECT_EQ(Cold.Fills, 6u);
  EXPECT_EQ(Cold.Hits, 0u);
  EXPECT_EQ(Cold.Failed, 0u);
  EXPECT_EQ(Cold.Shed, 0u);
  EXPECT_EQ(Cold.DistinctVariants, 6u);
  EXPECT_EQ(Cold.BaselinePrewarmed, 0u);
  EXPECT_GT(Cold.BaselineCacheFills, 0u);

  // "Restart": a fresh serveVariants call over the same store must
  // resume entirely from cache hits, serve byte-identical artifacts,
  // and prewarm the baseline cache instead of re-running the baseline.
  serve::ServeResult Warm = serve::serveVariants(P, O);
  ASSERT_TRUE(Warm.ok()) << Warm.Error;
  EXPECT_EQ(Warm.Served, 6u);
  EXPECT_EQ(Warm.Hits, 6u);
  EXPECT_EQ(Warm.Fills, 0u);
  EXPECT_EQ(Warm.BaselinePrewarmed, Cold.BaselineCacheFills);
  EXPECT_EQ(Warm.BaselineCacheFills, 0u);
  ASSERT_EQ(Warm.Requests.size(), Cold.Requests.size());
  for (size_t I = 0; I < Cold.Requests.size(); ++I) {
    EXPECT_EQ(Warm.Requests[I].TextDigest, Cold.Requests[I].TextDigest);
    EXPECT_EQ(Warm.Requests[I].TextSize, Cold.Requests[I].TextSize);
    EXPECT_EQ(Warm.Requests[I].SeedUsed, Cold.Requests[I].SeedUsed);
    EXPECT_EQ(Warm.Requests[I].Outcome, serve::RequestOutcome::Hit);
  }
  // A store load must beat diversify + verify + link + publish. The
  // margin is wide (a cold fill takes milliseconds, a hit microseconds),
  // so a cache that is not faster than recompiling is a regression.
  EXPECT_LT(Warm.P50LatencySeconds, Cold.P50LatencySeconds);
}

TEST_F(ServeTest, CrashRecoveryRecompilesCorruptEntry) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 3;

  serve::ServeResult Cold = serve::serveVariants(P, O);
  ASSERT_TRUE(Cold.ok()) << Cold.Error;
  ASSERT_EQ(Cold.Fills, 3u);

  // Simulate a torn write surviving a crash: truncate seed 2's entry.
  fs::path Entry = variantPath(O, /*Seed=*/2);
  ASSERT_TRUE(fs::exists(Entry)) << Entry;
  fs::resize_file(Entry, fs::file_size(Entry) / 2);

  serve::ServeResult Healed = serve::serveVariants(P, O);
  ASSERT_TRUE(Healed.ok()) << Healed.Error;
  EXPECT_EQ(Healed.StoreCorrupt, 1u);
  EXPECT_EQ(Healed.Hits, 2u);
  EXPECT_EQ(Healed.Fills, 1u) << "corrupt entry must be recompiled";
  EXPECT_EQ(Healed.Failed, 0u);
  // The refill is a pure function of the key, so the healed artifact is
  // byte-identical to the one the cold run served.
  ASSERT_EQ(Healed.Requests.size(), 3u);
  EXPECT_EQ(Healed.Requests[1].Seed, 2u);
  EXPECT_EQ(Healed.Requests[1].TextDigest, Cold.Requests[1].TextDigest);

  // And it was re-published: a third run is all hits again.
  serve::ServeResult Third = serve::serveVariants(P, O);
  ASSERT_TRUE(Third.ok()) << Third.Error;
  EXPECT_EQ(Third.Hits, 3u);
  EXPECT_EQ(Third.StoreCorrupt, 0u);
}

TEST_F(ServeTest, BaselinePrewarmServesFreshSeeds) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 2;
  serve::ServeResult First = serve::serveVariants(P, O);
  ASSERT_TRUE(First.ok()) << First.Error;
  ASSERT_GT(First.BaselineCacheFills, 0u);

  // Fresh seeds force fills, but the baseline half of every differential
  // run must come from the prewarmed artifact, not re-execution.
  O.BaseSeed = 1000;
  serve::ServeResult Fresh = serve::serveVariants(P, O);
  ASSERT_TRUE(Fresh.ok()) << Fresh.Error;
  EXPECT_EQ(Fresh.Fills, 2u);
  EXPECT_EQ(Fresh.BaselinePrewarmed, First.BaselineCacheFills);
  EXPECT_EQ(Fresh.BaselineCacheFills, 0u);
  EXPECT_GT(Fresh.BaselineCacheHits, 0u);
}

TEST_F(ServeTest, CustomBatteryIgnoresDefaultBaselineArtifact) {
  // Warm the store with a default-battery run...
  serve::ServeOptions O = baseOptions();
  O.Verify = verify::VerifyOptions();
  O.Requests = 2;
  serve::ServeResult Warm = serve::serveVariants(P, O);
  ASSERT_TRUE(Warm.ok()) << Warm.Error;
  ASSERT_EQ(Warm.BaselineCacheFills, verify::defaultInputBattery().size());

  // ...then serve fresh seeds on a different battery: the stored runs
  // belong to other inputs, so none may be installed, and verification
  // against the real baseline still admits every clean variant.
  O.Verify.InputBattery = {Train};
  O.BaseSeed = 500;
  serve::ServeResult Custom = serve::serveVariants(P, O);
  ASSERT_TRUE(Custom.ok()) << Custom.Error;
  EXPECT_EQ(Custom.BaselinePrewarmed, 0u);
  EXPECT_EQ(Custom.BaselineCacheFills, 1u);
  EXPECT_EQ(Custom.Fills, 2u);
  EXPECT_EQ(Custom.Failed, 0u);
  for (const serve::RequestResult &Req : Custom.Requests)
    EXPECT_EQ(Req.Attempts, 1u) << "seed " << Req.Seed;
}

TEST_F(ServeTest, StoreOpenFailurePropagates) {
  serve::ServeOptions O = baseOptions();
  O.StoreDir = "/dev/null/pgsd-store";
  serve::ServeResult R = serve::serveVariants(P, O);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(R.Requests.empty());
}

//===----------------------------------------------------------------------===//
// Distinctness: the App-Store contract
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, ServesSixtyFourDistinctVerifiedVariants) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 64;

  serve::ServeResult R = serve::serveVariants(P, O);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Served, 64u);
  EXPECT_EQ(R.Failed, 0u);
  EXPECT_EQ(R.Shed, 0u);
  EXPECT_EQ(R.DistinctVariants, 64u)
      << "every served variant must be pairwise distinct";

  // Cross-check DistinctVariants against the per-request digests.
  std::set<std::pair<uint64_t, uint64_t>> Images;
  for (const serve::RequestResult &Q : R.Requests) {
    ASSERT_TRUE(Q.served());
    Images.emplace(Q.TextDigest, Q.TextSize);
  }
  EXPECT_EQ(Images.size(), 64u);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, OverloadShedsDeterministically) {
  // Jobs=1 and QueueDepth=0 give capacity 1; the fill gate holds the
  // lone admitted fill until the serving thread has shed the other
  // three requests (AdmitWait 0 never waits), making the shed count
  // exact without any timing dependence.
  serve::ServeOptions O = baseOptions();
  O.Requests = 4;
  O.Jobs = 1;
  O.QueueDepth = 0;
  O.AdmitWaitSeconds = 0.0;

  std::promise<void> AllShed;
  std::shared_future<void> Release(AllShed.get_future());
  std::atomic<uint64_t> ShedSeen{0};
  O.Observer = [&](const serve::RequestResult &Q) {
    if (Q.Outcome == serve::RequestOutcome::Shed &&
        ShedSeen.fetch_add(1) + 1 == 3)
      AllShed.set_value();
  };
  O.FillGate = [&](uint64_t) { Release.wait(); };

  serve::ServeResult R = serve::serveVariants(P, O);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Fills, 1u);
  EXPECT_EQ(R.Shed, 3u);
  EXPECT_EQ(R.Served, 1u);
  EXPECT_EQ(R.QueueCapacity, 1u);
  EXPECT_EQ(R.QueuePeakDepth, 1u);
  ASSERT_EQ(R.Requests.size(), 4u);
  EXPECT_EQ(R.Requests[0].Outcome, serve::RequestOutcome::Fill);
  for (size_t I = 1; I < 4; ++I)
    EXPECT_EQ(R.Requests[I].Outcome, serve::RequestOutcome::Shed);
}

TEST(AdmissionQueueTest, CapsInFlightAndCounts) {
  support::ThreadPool Pool(2);
  serve::AdmissionQueue Q(Pool, 2);
  EXPECT_EQ(Q.capacity(), 2u);

  std::promise<void> Gate;
  std::shared_future<void> Release(Gate.get_future());
  std::atomic<int> Ran{0};
  auto Blocked = [&] {
    Release.wait();
    ++Ran;
  };

  EXPECT_TRUE(Q.submit(Blocked, 0.0));
  EXPECT_TRUE(Q.submit(Blocked, 0.0));
  EXPECT_EQ(Q.inFlight(), 2u);
  // Full: a zero-budget submit sheds immediately, and the task must
  // never run.
  std::atomic<bool> ShedTaskRan{false};
  EXPECT_FALSE(Q.submit([&] { ShedTaskRan = true; }, 0.0));
  EXPECT_EQ(Q.shed(), 1u);

  Gate.set_value();
  Q.drain();
  Pool.wait();
  EXPECT_EQ(Ran.load(), 2);
  EXPECT_FALSE(ShedTaskRan.load());
  EXPECT_EQ(Q.inFlight(), 0u);
  EXPECT_EQ(Q.peakDepth(), 2u);
  EXPECT_EQ(Q.admitted(), 2u);

  // A freed slot admits again, including via a bounded wait.
  EXPECT_TRUE(Q.submit([] {}, 5.0));
  Q.drain();
  Pool.wait();
  EXPECT_EQ(Q.admitted(), 3u);
}

TEST(AdmissionQueueTest, CapacityClampsToOne) {
  support::ThreadPool Pool(1);
  serve::AdmissionQueue Q(Pool, 0);
  EXPECT_EQ(Q.capacity(), 1u);
  EXPECT_TRUE(Q.submit([] {}, 0.0));
  Q.drain();
  Pool.wait();
}

//===----------------------------------------------------------------------===//
// Baseline cache persistence hooks
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, BaselineCachePrewarmAndPeek) {
  verify::VerifyOptions VOpts;
  VOpts.InputBattery = {Train};
  verify::BaselineCache Cache(P.MIR, VOpts);
  ASSERT_EQ(Cache.battery().size(), 1u);
  EXPECT_EQ(Cache.peek(0), nullptr) << "unfilled entry must not peek";

  mexec::RunResult R;
  R.Checksum = 424242;
  R.ExitCode = 5;
  EXPECT_TRUE(Cache.prewarm(0, R));
  EXPECT_EQ(Cache.prewarmed(), 1u);

  const mexec::RunResult *Peeked = Cache.peek(0);
  ASSERT_NE(Peeked, nullptr);
  EXPECT_EQ(Peeked->Checksum, 424242u);

  // baselineRun must serve the installed entry, not execute.
  const mexec::RunResult &Served = Cache.baselineRun(0);
  EXPECT_EQ(Served.Checksum, 424242u);
  EXPECT_EQ(Served.ExitCode, 5);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.fills(), 0u);

  // Second prewarm loses the once race and must say so.
  mexec::RunResult Other;
  Other.Checksum = 1;
  EXPECT_FALSE(Cache.prewarm(0, Other));
  EXPECT_EQ(Cache.prewarmed(), 1u);
  EXPECT_EQ(Cache.peek(0)->Checksum, 424242u);
}

//===----------------------------------------------------------------------===//
// Statistics: the latency percentile helper
//===----------------------------------------------------------------------===//

TEST(PercentileTest, LinearInterpolation) {
  EXPECT_DOUBLE_EQ(pgsd::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(pgsd::percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(pgsd::percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(pgsd::percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pgsd::percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);

  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(static_cast<double>(I));
  EXPECT_DOUBLE_EQ(pgsd::percentile(V, 50.0), 50.5);
  EXPECT_NEAR(pgsd::percentile(V, 99.0), 99.01, 1e-9);
}

} // namespace
