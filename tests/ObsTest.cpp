//===-- tests/ObsTest.cpp - Telemetry subsystem tests ----------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Pins the obs/ contracts: counter/gauge/histogram semantics, nested
// span accounting, merge associativity (the batch factory merges
// per-seed sinks in arbitrary grouping), the pgsd-metrics-v1 JSON
// schema byte-for-byte, the jsonNumber clamping rules, and the
// zero-recording guarantee while telemetry is disabled. The TSan CI job
// runs the ThreadPool test to prove concurrent registry updates and
// per-thread sink routing are race-free.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Time.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace pgsd;

namespace {

/// Every test runs against a clean, enabled registry and leaves
/// telemetry disabled for whatever test binary section follows.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::Registry::global().reset();
    obs::setEnabled(true);
  }
  void TearDown() override {
    obs::setEnabled(false);
    obs::Registry::global().reset();
  }
};

} // namespace

TEST_F(ObsTest, CountersAccumulateAndGaugesLastWriteWins) {
  obs::counterAdd("c.a");
  obs::counterAdd("c.a", 4);
  obs::counterAdd("c.b", 2);
  obs::gaugeSet("g.x", 1.5);
  obs::gaugeSet("g.x", 2.5);
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  EXPECT_EQ(Snap.Counters.at("c.a"), 5u);
  EXPECT_EQ(Snap.Counters.at("c.b"), 2u);
  EXPECT_DOUBLE_EQ(Snap.Gauges.at("g.x"), 2.5);
}

TEST_F(ObsTest, HistogramBucketsFirstBoundAtLeastValue) {
  const double Bounds[] = {1.0, 2.0, 4.0};
  obs::histogramObserve("h", 0.5, Bounds);  // <= 1  -> bucket 0
  obs::histogramObserve("h", 1.0, Bounds);  // <= 1  -> bucket 0
  obs::histogramObserve("h", 1.01, Bounds); // <= 2  -> bucket 1
  obs::histogramObserve("h", 4.0, Bounds);  // <= 4  -> bucket 2
  obs::histogramObserve("h", 99.0, Bounds); // overflow bucket
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  const obs::HistogramData &H = Snap.Histograms.at("h");
  ASSERT_EQ(H.Counts.size(), 4u); // bounds + overflow
  EXPECT_EQ(H.Counts[0], 2u);
  EXPECT_EQ(H.Counts[1], 1u);
  EXPECT_EQ(H.Counts[2], 1u);
  EXPECT_EQ(H.Counts[3], 1u);
  EXPECT_EQ(H.Total, 5u);
}

TEST_F(ObsTest, NestedSpansEachRecordInclusiveTime) {
  {
    obs::Span Outer("phase.outer");
    {
      obs::Span Inner("phase.inner");
    }
  }
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  ASSERT_EQ(Snap.Phases.count("phase.outer"), 1u);
  ASSERT_EQ(Snap.Phases.count("phase.inner"), 1u);
  const obs::PhaseStats &Outer = Snap.Phases.at("phase.outer");
  const obs::PhaseStats &Inner = Snap.Phases.at("phase.inner");
  EXPECT_EQ(Outer.Count, 1u);
  EXPECT_EQ(Inner.Count, 1u);
  // Inclusive timing: the outer span contains the inner one.
  EXPECT_GE(Outer.WallSeconds, Inner.WallSeconds);
  EXPECT_GE(Outer.WallSeconds, 0.0);
  EXPECT_GE(Outer.CpuSeconds, 0.0);
}

TEST_F(ObsTest, NullSpanNameIsInert) {
  {
    obs::Span S(nullptr);
  }
  EXPECT_TRUE(obs::Registry::global().snapshot().empty());
}

TEST_F(ObsTest, DisabledTelemetryRecordsNothing) {
  obs::setEnabled(false);
  obs::counterAdd("c");
  obs::gaugeSet("g", 1.0);
  const double Bounds[] = {1.0};
  obs::histogramObserve("h", 0.5, Bounds);
  {
    obs::Span S("p");
  }
  EXPECT_TRUE(obs::Registry::global().snapshot().empty());
}

TEST_F(ObsTest, ScopedSinkRoutesCallingThreadOnly) {
  obs::LocalMetrics Sink;
  {
    obs::ScopedSink Route(&Sink);
    obs::counterAdd("routed", 3);
    {
      obs::Span S("routed.phase");
    }
  }
  // After the guard, recording goes back to the registry.
  obs::counterAdd("global", 1);
  EXPECT_EQ(Sink.Counters.at("routed"), 3u);
  EXPECT_EQ(Sink.Phases.at("routed.phase").Count, 1u);
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  EXPECT_EQ(Snap.Counters.count("routed"), 0u);
  EXPECT_EQ(Snap.Counters.at("global"), 1u);
}

TEST_F(ObsTest, ScopedSinkNullptrLeavesRoutingUnchanged) {
  obs::LocalMetrics Sink;
  obs::ScopedSink Route(&Sink);
  {
    obs::ScopedSink Inner(nullptr); // conditional install: no-op
    obs::counterAdd("still.routed");
  }
  EXPECT_EQ(Sink.Counters.at("still.routed"), 1u);
}

TEST_F(ObsTest, MergeIsAssociative) {
  auto Make = [](uint64_t C, double Wall) {
    obs::LocalMetrics M;
    M.addCounter("c", C);
    obs::PhaseStats S;
    S.Count = 1;
    S.WallSeconds = Wall;
    M.addPhase("p", S);
    const double Bounds[] = {1.0, 2.0};
    M.observe("h", Wall, Bounds);
    return M;
  };
  obs::LocalMetrics A = Make(1, 0.5), B = Make(2, 1.5), C = Make(4, 3.0);

  obs::LocalMetrics LeftFirst = A;
  LeftFirst.merge(B);
  LeftFirst.merge(C);

  obs::LocalMetrics RightFirst = B;
  RightFirst.merge(C);
  obs::LocalMetrics A2 = A;
  A2.merge(RightFirst);

  // Equality via canonical serialization.
  EXPECT_EQ(obs::metricsToJson(LeftFirst), obs::metricsToJson(A2));
  EXPECT_EQ(LeftFirst.Counters.at("c"), 7u);
  EXPECT_EQ(LeftFirst.Phases.at("p").Count, 3u);
  EXPECT_EQ(LeftFirst.Histograms.at("h").Total, 3u);
}

TEST_F(ObsTest, JsonSchemaGolden) {
  obs::LocalMetrics M;
  M.addCounter("runs", 3);
  M.setGauge("speedup", 2.5);
  obs::PhaseStats S;
  S.Count = 2;
  S.WallSeconds = 0.5;
  S.CpuSeconds = 0.25;
  M.addPhase("compile", S);
  const double Bounds[] = {10.0, 20.0};
  M.observe("pnop", 15.0, Bounds);
  const char *Expected = "{\n"
                         "  \"schema\": \"pgsd-metrics-v1\",\n"
                         "  \"counters\": {\n"
                         "    \"runs\": 3\n"
                         "  },\n"
                         "  \"gauges\": {\n"
                         "    \"speedup\": 2.5\n"
                         "  },\n"
                         "  \"phases\": {\n"
                         "    \"compile\": {\"count\": 2, "
                         "\"wall_s\": 0.5, \"cpu_s\": 0.25}\n"
                         "  },\n"
                         "  \"histograms\": {\n"
                         "    \"pnop\": {\"upper_bounds\": [10, 20], "
                         "\"counts\": [0, 1, 0], \"total\": 1}\n"
                         "  }\n"
                         "}\n";
  EXPECT_EQ(obs::metricsToJson(M), Expected);
  EXPECT_TRUE(obs::validateJson(Expected));
}

TEST_F(ObsTest, EmptyRegistryStillExportsValidSchema) {
  obs::LocalMetrics Empty;
  std::string Json = obs::metricsToJson(Empty);
  std::string Error;
  EXPECT_TRUE(obs::validateJson(Json, &Error)) << Error;
  EXPECT_NE(Json.find("pgsd-metrics-v1"), std::string::npos);
  EXPECT_NE(Json.find("\"counters\": {}"), std::string::npos);
}

TEST_F(ObsTest, JsonNumberClampsNonFinite) {
  // NaN and inf are not JSON; the exporter documents NaN -> 0 and
  // +/-inf -> +/-DBL_MAX so one bad ratio cannot poison a report file.
  EXPECT_EQ(obs::jsonNumber(std::nan("")), "0");
  std::string PosInf =
      obs::jsonNumber(std::numeric_limits<double>::infinity());
  std::string NegInf =
      obs::jsonNumber(-std::numeric_limits<double>::infinity());
  EXPECT_TRUE(obs::validateJson(PosInf));
  EXPECT_TRUE(obs::validateJson(NegInf));
  EXPECT_EQ(NegInf[0], '-');
}

TEST_F(ObsTest, JsonNumberRoundTripsAndStaysCompact) {
  EXPECT_EQ(obs::jsonNumber(0.0), "0");
  EXPECT_EQ(obs::jsonNumber(2.0), "2");
  EXPECT_EQ(obs::jsonNumber(0.25), "0.25");
  EXPECT_EQ(obs::jsonNumber(-1.5), "-1.5");
  // A value needing full precision still round-trips exactly.
  double Pi = 3.141592653589793;
  EXPECT_EQ(std::stod(obs::jsonNumber(Pi)), Pi);
}

TEST_F(ObsTest, JsonEscapeControlAndQuotes) {
  EXPECT_EQ(obs::jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::jsonEscape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_TRUE(obs::validateJson(obs::jsonString("weird\"\\\t")));
}

TEST_F(ObsTest, ValidateJsonRejectsMalformedDocuments) {
  EXPECT_FALSE(obs::validateJson(""));
  EXPECT_FALSE(obs::validateJson("{"));
  EXPECT_FALSE(obs::validateJson("{\"a\": }"));
  EXPECT_FALSE(obs::validateJson("{\"a\": 1,}"));
  EXPECT_FALSE(obs::validateJson("{\"a\": 1} trailing"));
  EXPECT_FALSE(obs::validateJson("{\"a\": nan}"));
  EXPECT_FALSE(obs::validateJson("{\"a\": 01}"));
  std::string Error;
  EXPECT_FALSE(obs::validateJson("[1, 2", &Error));
  EXPECT_NE(Error.find("byte"), std::string::npos);
  EXPECT_TRUE(obs::validateJson("{\"a\": [1, -2.5e-3, true, null]}"));
}

TEST_F(ObsTest, ConcurrentUpdatesFromThreadPoolWorkers) {
  // Half the tasks hammer the locked registry directly; the other half
  // route through per-task sinks merged afterwards, mirroring exactly
  // what makeVariantsBatch does. TSan runs this test in CI.
  constexpr int NumTasks = 64;
  constexpr int AddsPerTask = 100;
  std::vector<obs::LocalMetrics> Sinks(NumTasks / 2);
  {
    support::ThreadPool Pool(8);
    for (int T = 0; T != NumTasks; ++T) {
      Pool.enqueue([T, &Sinks] {
        obs::ScopedSink Route(T % 2 ? &Sinks[T / 2] : nullptr);
        obs::Span S("concurrent.phase");
        const double Bounds[] = {0.5};
        for (int I = 0; I != AddsPerTask; ++I) {
          obs::counterAdd("concurrent.count");
          obs::histogramObserve("concurrent.h", 0.25, Bounds);
        }
      });
    }
    Pool.wait();
  }
  obs::Registry &Reg = obs::Registry::global();
  for (const obs::LocalMetrics &Sink : Sinks)
    Reg.merge(Sink);
  obs::LocalMetrics Snap = Reg.snapshot();
  EXPECT_EQ(Snap.Counters.at("concurrent.count"),
            static_cast<uint64_t>(NumTasks) * AddsPerTask);
  EXPECT_EQ(Snap.Phases.at("concurrent.phase").Count,
            static_cast<uint64_t>(NumTasks));
  EXPECT_EQ(Snap.Histograms.at("concurrent.h").Total,
            static_cast<uint64_t>(NumTasks) * AddsPerTask);
}

TEST(ObsTime, MonotonicAndCpuClocksBehave) {
  double W0 = support::monotonicSeconds();
  double C0 = support::processCpuSeconds();
  double T0 = support::threadCpuSeconds();
  // Burn a little CPU so the deltas are observable.
  volatile double Sink = 0;
  for (int I = 0; I != 100000; ++I)
    Sink = Sink + static_cast<double>(I) * 1e-9;
  double W1 = support::monotonicSeconds();
  double C1 = support::processCpuSeconds();
  double T1 = support::threadCpuSeconds();
  EXPECT_GE(W1, W0);
  EXPECT_GE(C1, C0);
  EXPECT_GE(T1, T0);
  // elapsedSeconds clamps inverted intervals to zero instead of
  // exporting a negative (the old std::clock() wrap failure mode).
  EXPECT_EQ(support::elapsedSeconds(5.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(support::elapsedSeconds(3.0, 5.0), 2.0);
}
