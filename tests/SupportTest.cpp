//===-- tests/SupportTest.cpp - support library tests ----------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

using namespace pgsd;

TEST(Rng, SplitIsPureAndDoesNotAdvanceParent) {
  Rng Parent(7);
  Rng C1 = Parent.split(3);
  Rng C2 = Parent.split(3);
  // Same stream index twice: bit-identical children.
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(C1.next(), C2.next());
  // split() is const: the parent's own stream is untouched.
  Rng Fresh(7);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Parent.next(), Fresh.next());
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng Parent(7);
  std::set<uint64_t> FirstOutputs;
  for (uint64_t Stream = 0; Stream != 256; ++Stream)
    FirstOutputs.insert(Parent.split(Stream).next());
  // Adjacent stream indices must not collide.
  EXPECT_EQ(FirstOutputs.size(), 256u);
  // Different parents give different streams for the same index.
  EXPECT_NE(Rng(7).split(0).next(), Rng(8).split(0).next());
}

TEST(ThreadPool, RunsEveryTask) {
  support::ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.enqueue([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, IsReusableAfterWait) {
  support::ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int Round = 0; Round != 3; ++Round) {
    for (int I = 0; I != 10; ++I)
      Pool.enqueue([&Count] { ++Count; });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Round + 1) * 10);
  }
}

TEST(ThreadPool, PropagatesFirstTaskException) {
  support::ThreadPool Pool(2);
  std::atomic<int> Completed{0};
  Pool.enqueue([] { throw std::runtime_error("task failed"); });
  for (int I = 0; I != 8; ++I)
    Pool.enqueue([&Completed] { ++Completed; });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // The throwing task did not kill its worker: later tasks all ran, and
  // the pool keeps working after the rethrow.
  EXPECT_EQ(Completed.load(), 8);
  Pool.enqueue([&Completed] { ++Completed; });
  Pool.wait(); // does not rethrow twice
  EXPECT_EQ(Completed.load(), 9);
}

TEST(ThreadPool, CountsSuppressedExceptions) {
  support::ThreadPool Pool(3);
  EXPECT_EQ(Pool.suppressedExceptions(), 0u);
  for (int I = 0; I != 5; ++I)
    Pool.enqueue([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // One exception is rethrown; the other four would previously vanish
  // silently. The counter surfaces them.
  EXPECT_EQ(Pool.suppressedExceptions(), 4u);
  // The count is cumulative across wait() rounds (callers diff it).
  Pool.enqueue([] { throw std::runtime_error("boom"); });
  Pool.enqueue([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  EXPECT_EQ(Pool.suppressedExceptions(), 5u);
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers) {
  support::ThreadPool Pool(4);
  // Four tasks that each wait until all four have started can only
  // finish if they really run on distinct threads.
  std::atomic<int> Started{0};
  for (int I = 0; I != 4; ++I)
    Pool.enqueue([&Started] {
      ++Started;
      while (Started.load() < 4)
        std::this_thread::yield();
    });
  Pool.wait();
  EXPECT_EQ(Started.load(), 4);
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately) {
  support::ThreadPool Pool(2);
  Pool.wait();
  EXPECT_GE(support::ThreadPool::defaultConcurrency(), 1u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  unsigned Same = 0;
  for (int I = 0; I != 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0u);
}

TEST(Rng, NearbySeedsDecorrelated) {
  // SplitMix64 seeding must decorrelate seeds 0 and 1.
  Rng A(0), B(1);
  uint64_t XorAll = 0;
  for (int I = 0; I != 64; ++I)
    XorAll |= A.next() ^ B.next();
  EXPECT_NE(XorAll, 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng R(7);
  for (int I = 0; I != 10000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng R(11);
  double Sum = 0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Sum += R.nextDouble();
  EXPECT_NEAR(Sum / N, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng R(3);
  const int N = 200000;
  int Hits = 0;
  for (int I = 0; I != N; ++I)
    if (R.nextBernoulli(0.3))
      ++Hits;
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng R(5);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(R.nextBernoulli(0.0));
    EXPECT_TRUE(R.nextBernoulli(1.0));
    EXPECT_FALSE(R.nextBernoulli(-0.5));
    EXPECT_TRUE(R.nextBernoulli(1.5));
  }
}

namespace {

/// The form nextBernoulli had before its integer test: clamp, then
/// compare a drawn double.
bool doubleBernoulli(Rng &R, double P) {
  if (P <= 0.0)
    return false;
  if (P >= 1.0)
    return true;
  return R.nextDouble() < P;
}

} // namespace

// The integer test (next() >> 11) < ceil(P * 2^53) is exactly
// nextDouble() < P: the same outcome for every draw, and the same draws
// (none at P <= 0 or P >= 1, one at a NaN), so the stream stays in step.
TEST(Rng, BernoulliThresholdMatchesDoubleCompare) {
  const double Ps[] = {0.0,
                       0x1.0p-60,
                       0x1.0p-53,
                       0.3,
                       std::nextafter(1.0, 0.0),
                       1.0,
                       std::nan(""),
                       -0.1,
                       1.5};
  for (double P : Ps) {
    SCOPED_TRACE(P);
    const Rng::Bernoulli T = Rng::bernoulli(P);
    Rng Ref(0xbe7), ByP(0xbe7), ByT(0xbe7);
    for (int I = 0; I != 100000; ++I) {
      const bool Want = doubleBernoulli(Ref, P);
      ASSERT_EQ(ByP.nextBernoulli(P), Want) << "draw " << I;
      ASSERT_EQ(ByT.nextBernoulli(T), Want) << "draw " << I;
    }
    const uint64_t Next = Ref.next();
    EXPECT_EQ(ByP.next(), Next);
    EXPECT_EQ(ByT.next(), Next);
    // The threshold sits exactly at the double compare's edge: the
    // largest integer below it passes, the threshold itself does not.
    if (T.Draws && T.Below != 0) {
      EXPECT_TRUE(static_cast<double>(T.Below - 1) * 0x1.0p-53 < P);
      EXPECT_FALSE(static_cast<double>(T.Below) * 0x1.0p-53 < P);
    }
  }
  EXPECT_EQ(Rng::bernoulli(0x1.0p-60).Below, 1u);
  EXPECT_EQ(Rng::bernoulli(0x1.0p-53).Below, 1u);
  EXPECT_EQ(Rng::bernoulli(std::nextafter(1.0, 0.0)).Below,
            (uint64_t{1} << 53) - 1);
  EXPECT_FALSE(Rng::bernoulli(0.0).Draws);
  EXPECT_FALSE(Rng::bernoulli(1.0).Draws);
  EXPECT_TRUE(Rng::bernoulli(std::nan("")).Draws);
}

/// nextBelow must stay in range and hit every residue for small bounds.
class RngBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngBoundTest, InRangeAndCoversAll) {
  uint64_t Bound = GetParam();
  Rng R(Bound * 977 + 1);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 2000; ++I) {
    uint64_t V = R.nextBelow(Bound);
    ASSERT_LT(V, Bound);
    Seen.insert(V);
  }
  if (Bound <= 16) {
    EXPECT_EQ(Seen.size(), Bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundTest,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 13, 16, 100,
                                           1000, 1u << 20));

TEST(Rng, NextInRangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 5000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    ASSERT_GE(V, -3);
    ASSERT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ForkIndependentOfParentContinuation) {
  Rng A(123);
  Rng Child = A.fork();
  uint64_t C1 = Child.next();
  // Re-derive: the fork consumed exactly one parent draw.
  Rng B(123);
  Rng Child2 = B.fork();
  EXPECT_EQ(C1, Child2.next());
}

TEST(Statistics, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Statistics, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
  EXPECT_NEAR(geometricMean({4.0, 9.0}), 6.0, 1e-12);
  EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  // Geomean of slowdown ratios is below the arithmetic mean.
  std::vector<double> Ratios = {1.01, 1.25, 1.08};
  EXPECT_LT(geometricMean(Ratios), mean(Ratios));
}

TEST(Statistics, GeometricMeanSkipsNonPositiveAndNonFinite) {
  // Regression: the old implementation guarded V > 0 only with assert(),
  // so a release build fed a zero ratio (a sub-resolution timing)
  // computed log(0) and returned exp(-inf) = 0 -- or NaN with a negative
  // entry -- silently corrupting the whole summary. Bad samples must be
  // skipped, degrading one entry, not the aggregate.
  EXPECT_NEAR(geometricMean({4.0, 0.0, 9.0}), 6.0, 1e-12);
  EXPECT_NEAR(geometricMean({4.0, -2.0, 9.0}), 6.0, 1e-12);
  double Inf = std::numeric_limits<double>::infinity();
  double NaN = std::nan("");
  EXPECT_NEAR(geometricMean({4.0, Inf, 9.0}), 6.0, 1e-12);
  EXPECT_NEAR(geometricMean({4.0, NaN, 9.0}), 6.0, 1e-12);
  // No entry qualifies: documented 0 return, never -inf/NaN.
  EXPECT_DOUBLE_EQ(geometricMean({0.0, -1.0}), 0.0);
  EXPECT_TRUE(std::isfinite(geometricMean({0.0, Inf, NaN})));
}

TEST(Statistics, Median) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  // Lower median for even sizes.
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Statistics, MedianCount) {
  EXPECT_EQ(medianCount({}), 0u);
  EXPECT_EQ(medianCount({7}), 7u);
  EXPECT_EQ(medianCount({1, 1000000, 3}), 3u);
}

TEST(Statistics, SampleStdDev) {
  EXPECT_DOUBLE_EQ(sampleStdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(sampleStdDev({3.0}), 0.0);
  EXPECT_NEAR(sampleStdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(TablePrinter, AlignsColumnsAndRulesHeader) {
  TablePrinter T;
  T.addRow({"name", "value"});
  T.addRow({"x", "123456"});
  T.addRow({"longer-name", "1"});
  std::string Out = T.toString();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("-----"), std::string::npos);
  // The second column starts at the same offset within each data line.
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start < Out.size()) {
    size_t End = Out.find('\n', Start);
    Lines.push_back(Out.substr(Start, End - Start));
    Start = End + 1;
  }
  ASSERT_EQ(Lines.size(), 4u); // header, rule, two data rows
  EXPECT_EQ(Lines[0].find("value"), Lines[2].find("123456"));
  EXPECT_EQ(Lines[0].find("value"), Lines[3].find("1"));
}

TEST(TablePrinter, HandlesRaggedRows) {
  TablePrinter T;
  T.addRow({"a", "b", "c"});
  T.addRow({"only-one"});
  std::string Out = T.toString();
  EXPECT_NE(Out.find("only-one"), std::string::npos);
}

TEST(TablePrinter, FormatHelpers) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatPercent(12.345, 1), "12.3%");
  EXPECT_EQ(formatCount(123456789ull), "123456789");
}
