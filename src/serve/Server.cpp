//===-- serve/Server.cpp - Persistent variant-serving daemon ---------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "obs/Metrics.h"
#include "serve/Admission.h"
#include "serve/VariantStore.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "support/Time.h"
#include "verify/BaselineCache.h"

#include <mutex>
#include <set>
#include <utility>

using namespace pgsd;
using namespace pgsd::serve;

namespace {

/// Request-latency buckets: sub-millisecond warm hits through multi-
/// second cold fills under retry pressure.
constexpr double LatencyBounds[] = {0.0005, 0.001, 0.0025, 0.005, 0.01,
                                    0.025,  0.05,  0.1,    0.25,  0.5,
                                    1.0,    2.5,   5.0,    10.0};

} // namespace

ServeResult serve::serveVariants(const driver::Program &P,
                                 const ServeOptions &O) {
  ServeResult R;
  R.Jobs = O.Jobs == 0 ? support::ThreadPool::defaultConcurrency() : O.Jobs;

  const bool Obs = obs::enabled();
  auto WallStart = support::monotonicSeconds();

  VariantStore Store(O.StoreDir);
  verify::BaselineCache Cache = [&] {
    obs::Span S(Obs ? "serve.setup" : nullptr);
    return verify::BaselineCache(P.MIR, O.Verify);
  }();
  verify::VerifyOptions Verify = O.Verify;
  Verify.Cache = &Cache;
  KeyPrefix BaseKey;
  StoreKey BaselineKey;

  {
    obs::Span S(Obs ? "serve.setup" : nullptr);
    BaseKey = hashKeyPrefix(baseKeyMaterial(P.MIR, O.Link));
    BaselineKey = makeBaselineKey(BaseKey, O.Verify);
    if (!Store.open(&R.Error))
      return R; // Unwritable store: fail loudly at startup, not later.

    // Restore baseline differential runs persisted by a previous
    // process: verification fills after a restart then skip baseline
    // execution entirely. A corrupt artifact self-heals to a miss.
    BaselineArtifact Art;
    if (Store.loadBaseline(BaselineKey, Art) == LoadStatus::Hit)
      for (const auto &[Index, Run] : Art.Runs)
        if (Index < Cache.battery().size())
          Cache.prewarm(Index, Run);
  }

  // Per-request telemetry sinks, merged after the drain (same contract
  // as the batch factory: no registry lock on the fill path).
  std::vector<obs::LocalMetrics> Sinks(Obs ? O.Requests : 0);

  R.Requests.resize(O.Requests);
  std::mutex ErrMutex; // Guards R.Error first-write from fill workers.

  auto Record = [&](size_t I, RequestResult Req) {
    R.Requests[I] = std::move(Req);
    if (O.Observer)
      O.Observer(R.Requests[I]);
  };

  {
    obs::Span Fan(Obs ? "serve.fanout" : nullptr);
    support::ThreadPool Pool(R.Jobs);
    AdmissionQueue Queue(Pool, R.Jobs + O.QueueDepth);

    for (uint64_t I = 0; I != O.Requests; ++I) {
      const uint64_t Seed = O.BaseSeed + I;
      const double Start = support::monotonicSeconds();
      const StoreKey Key = makeVariantKey(BaseKey, O.Pipe, O.Diversity, Seed);

      RequestResult Req;
      Req.Seed = Seed;

      // Hit path runs on the serving thread: a warm request is a disk
      // read plus a digest check, not a compile, so it neither queues
      // nor occupies a fill slot.
      StoredVariant SV;
      LoadStatus S = Store.load(Key, SV);
      if (S == LoadStatus::Hit) {
        Req.Outcome = RequestOutcome::Hit;
        Req.SeedUsed = SV.SeedUsed;
        Req.Attempts = SV.Attempts;
        Req.TextDigest = fnv1a64(SV.Text.data(), SV.Text.size());
        Req.TextSize = SV.Text.size();
        Req.Seconds = support::elapsedSeconds(Start,
                                              support::monotonicSeconds());
        Record(I, std::move(Req));
        continue;
      }
      // Corrupt entries were unlinked by the store; from here the fill
      // path is identical to a plain miss.

      bool Admitted = Queue.submit(
          [&, I, Seed, Key, Start] {
            obs::ScopedSink Route(Obs ? &Sinks[I] : nullptr);
            obs::Span Fill(Obs ? "serve.fill" : nullptr);
            if (O.FillGate)
              O.FillGate(Seed);

            RequestResult FillReq;
            FillReq.Seed = Seed;
            driver::VerifiedVariant V = driver::makeVariantVerified(
                P, O.Pipe, O.Diversity, Seed, Verify, O.Link);
            if (!V.ok()) {
              // Never serve the baseline fallback: the daemon's promise
              // is a *diversified, verified* artifact per request.
              FillReq.Outcome = RequestOutcome::Failed;
              FillReq.Attempts = V.Attempts;
              FillReq.Seconds = support::elapsedSeconds(
                  Start, support::monotonicSeconds());
              Record(I, std::move(FillReq));
              return;
            }

            StoredVariant Out;
            Out.Text = V.V.Image.Text;
            Out.Seed = Seed;
            Out.SeedUsed = V.SeedUsed;
            Out.Attempts = V.Attempts;
            std::string PubErr;
            if (!Store.publish(Key, Out, &PubErr)) {
              // A publish failure is a real I/O error (disk full,
              // permissions): surface it, don't leave a silent gap.
              {
                std::lock_guard<std::mutex> Lock(ErrMutex);
                if (R.Error.empty())
                  R.Error = PubErr;
              }
              FillReq.Outcome = RequestOutcome::Failed;
              FillReq.Attempts = V.Attempts;
              FillReq.Seconds = support::elapsedSeconds(
                  Start, support::monotonicSeconds());
              Record(I, std::move(FillReq));
              return;
            }

            FillReq.Outcome = RequestOutcome::Fill;
            FillReq.SeedUsed = V.SeedUsed;
            FillReq.Attempts = V.Attempts;
            FillReq.TextDigest =
                fnv1a64(Out.Text.data(), Out.Text.size());
            FillReq.TextSize = Out.Text.size();
            FillReq.Seconds = support::elapsedSeconds(
                Start, support::monotonicSeconds());
            Record(I, std::move(FillReq));
          },
          O.AdmitWaitSeconds);

      if (!Admitted) {
        Req.Outcome = RequestOutcome::Shed;
        Req.Seconds =
            support::elapsedSeconds(Start, support::monotonicSeconds());
        Record(I, std::move(Req));
      }
    }

    Queue.drain();
    Pool.wait(); // Propagate the first worker exception, if any.
    R.QueueCapacity = Queue.capacity();
    R.QueuePeakDepth = Queue.peakDepth();
  }

  {
    obs::Span S(Obs ? "serve.persist" : nullptr);

    // Persist every baseline entry this run computed (or restored), so
    // the next process starts with a warm differential cache. Only
    // publish when the artifact would grow -- a pure-hit run rewrites
    // nothing.
    BaselineArtifact Art;
    for (size_t I = 0; I != Cache.battery().size(); ++I)
      if (const mexec::RunResult *Run = Cache.peek(I))
        Art.Runs.emplace_back(static_cast<uint32_t>(I), *Run);
    R.BaselinePrewarmed = Cache.prewarmed();
    if (Art.Runs.size() > R.BaselinePrewarmed) {
      std::string PubErr;
      if (!Store.publishBaseline(BaselineKey, Art, &PubErr) &&
          R.Error.empty())
        R.Error = PubErr;
    }
  }

  R.WallSeconds =
      support::elapsedSeconds(WallStart, support::monotonicSeconds());
  R.BaselineCacheHits = Cache.hits();
  R.BaselineCacheFills = Cache.fills();
  R.DiffIdentical = Cache.identical();
  R.StoreCorrupt = Store.corruptions();

  std::vector<double> ServedLatencies;
  std::set<std::pair<uint64_t, uint64_t>> Distinct;
  for (const RequestResult &Req : R.Requests) {
    switch (Req.Outcome) {
    case RequestOutcome::Hit:
      ++R.Hits;
      break;
    case RequestOutcome::Fill:
      ++R.Fills;
      break;
    case RequestOutcome::Shed:
      ++R.Shed;
      break;
    case RequestOutcome::Failed:
      ++R.Failed;
      break;
    }
    if (Req.served()) {
      ServedLatencies.push_back(Req.Seconds);
      Distinct.emplace(Req.TextDigest, Req.TextSize);
    }
  }
  R.Served = R.Hits + R.Fills;
  R.DistinctVariants = Distinct.size();
  R.P50LatencySeconds = percentile(ServedLatencies, 50.0);
  R.P99LatencySeconds = percentile(ServedLatencies, 99.0);

  if (Obs) {
    obs::Span Fin("serve.finalize");
    obs::Registry &Reg = obs::Registry::global();
    for (const obs::LocalMetrics &Sink : Sinks)
      Reg.merge(Sink);
    // Every serve.* family is exported unconditionally -- zero-valued
    // counters must exist so metrics_check --serve can check invariants
    // over them rather than special-casing absent keys.
    obs::counterAdd("serve.requests", O.Requests);
    obs::counterAdd("serve.served", R.Served);
    obs::counterAdd("serve.cache_hits", R.Hits);
    obs::counterAdd("serve.cache_fills", R.Fills);
    obs::counterAdd("serve.shed", R.Shed);
    obs::counterAdd("serve.failed", R.Failed);
    obs::counterAdd("serve.store_corrupt", R.StoreCorrupt);
    obs::counterAdd("serve.baseline_prewarmed", R.BaselinePrewarmed);
    obs::counterAdd("verify.baseline_cache.hits", R.BaselineCacheHits);
    obs::counterAdd("verify.baseline_cache.fills", R.BaselineCacheFills);
    obs::counterAdd("verify.diff_identical", R.DiffIdentical);
    obs::gaugeSet("serve.jobs", R.Jobs);
    obs::gaugeSet("serve.queue_capacity", R.QueueCapacity);
    obs::gaugeSet("serve.queue_peak_depth", R.QueuePeakDepth);
    obs::gaugeSet("serve.distinct_variants",
                  static_cast<double>(R.DistinctVariants));
    obs::gaugeSet("serve.wall_seconds", R.WallSeconds);
    obs::gaugeSet("serve.p50_latency_seconds", R.P50LatencySeconds);
    obs::gaugeSet("serve.p99_latency_seconds", R.P99LatencySeconds);
    // Histogram total equals serve.served by construction (one
    // observation per served request) -- metrics_check pins this.
    for (double L : ServedLatencies)
      obs::histogramObserve("serve.request_latency_seconds", L,
                            LatencyBounds);
  }
  return R;
}
