//===-- driver/Batch.cpp - Parallel variant factory ------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"

#include "obs/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Time.h"
#include "verify/BaselineCache.h"

using namespace pgsd;
using namespace pgsd::driver;

BatchResult driver::makeVariantsBatch(const Program &P,
                                      const diversity::Pipeline &Pipe,
                                      const diversity::DiversityOptions &Opts,
                                      const std::vector<uint64_t> &Seeds,
                                      const BatchOptions &BOpts) {
  BatchResult R;
  R.Jobs = BOpts.Jobs == 0 ? support::ThreadPool::defaultConcurrency()
                           : BOpts.Jobs;
  R.Variants.resize(Seeds.size());

  // Telemetry: workers accumulate into per-seed LocalMetrics sinks --
  // plain maps, no locks, no atomics on the hot path -- which are folded
  // into the global registry only after the pool drains. Captured once
  // here so a concurrent toggle cannot leave half the seeds with sinks.
  const bool Obs = obs::enabled();
  std::vector<obs::LocalMetrics> Sinks(Obs ? Seeds.size() : 0);

  auto WallStart = support::monotonicSeconds();
  auto CpuStart = support::processCpuSeconds();

  // Every seed verifies against the same baseline on the same battery:
  // one shared read-only cache runs the baseline once per input for the
  // whole batch instead of once per variant attempt, and the process-wide
  // run memo lets a later batch of the same program recall those runs
  // instead of executing them again. Nothing runs until a variant
  // actually executes. Entries fill under per-entry once_flags, so
  // sharing the cache across workers is race-free and -- because each
  // baseline run is a pure function of (baseline, input) -- does not
  // disturb the Jobs-independence determinism contract.
  verify::VerifyOptions Verify = BOpts.Verify;
  verify::BaselineCache Cache = [&] {
    obs::Span S(Obs ? "batch.setup" : nullptr);
    return verify::BaselineCache(P.MIR, BOpts.Verify);
  }();
  Verify.Cache = &Cache;

  // One seed's diversify-verify-link pipeline, routed into its own sink.
  // Telemetry never touches the variant bits, so the Jobs-independence
  // determinism contract is unaffected by whether it is enabled.
  auto RunOne = [&](size_t I) {
    obs::ScopedSink Route(Obs ? &Sinks[I] : nullptr);
    obs::Span S(Obs ? "batch.seed" : nullptr);
    R.Variants[I] =
        makeVariantVerified(P, Pipe, Opts, Seeds[I], Verify, BOpts.Link);
  };

  {
    obs::Span Fan(Obs ? "batch.fanout" : nullptr);
    if (R.Jobs == 1) {
      // Inline serial path: no pool threads, so the throughput bench's
      // Jobs=1 baseline measures the pipeline alone, not thread
      // overhead.
      for (size_t I = 0; I != Seeds.size(); ++I)
        RunOne(I);
    } else {
      support::ThreadPool Pool(R.Jobs);
      for (size_t I = 0; I != Seeds.size(); ++I) {
        // Each task reads the shared immutable Program and writes only
        // its own pre-sized slot; Pool.wait() is the synchronization
        // point that publishes every slot to this thread.
        Pool.enqueue([&RunOne, I] { RunOne(I); });
      }
      try {
        Pool.wait();
      } catch (...) {
        // The first worker exception propagates to the caller exactly
        // like a serial loop's would; any *further* concurrent failures
        // were suppressed by the pool and the BatchResult that would
        // have carried their count is about to be abandoned -- export
        // the count so they leave a trace.
        if (Obs)
          obs::counterAdd("batch.suppressed_exceptions",
                          Pool.suppressedExceptions());
        throw;
      }
      R.SuppressedExceptions = Pool.suppressedExceptions();
    }
  }

  R.BaselineCacheHits = Cache.hits();
  R.BaselineCacheFills = Cache.fills();
  R.DiffIdentical = Cache.identical();

  R.WallSeconds =
      support::elapsedSeconds(WallStart, support::monotonicSeconds());
  // Process CPU time from support::processCpuSeconds(), not
  // std::clock(): clock_t wraps after ~36 minutes on 32-bit ABIs, which
  // corrupted long PGSD_STRESS sweeps. elapsedSeconds additionally
  // clamps at zero so a clock hiccup can never export a negative.
  R.CpuSeconds =
      support::elapsedSeconds(CpuStart, support::processCpuSeconds());

  for (const VerifiedVariant &V : R.Variants) {
    R.TotalAttempts += V.Attempts;
    if (V.ok())
      ++R.Accepted;
    else
      ++R.Rejected;
    if (V.Attempts > 1)
      ++R.Retried;
  }

  if (Obs) {
    obs::Span Fin("batch.finalize");
    obs::Registry &Reg = obs::Registry::global();
    for (const obs::LocalMetrics &Sink : Sinks)
      Reg.merge(Sink);
    // Export the batch bookkeeping itself; BatchTest pins that these
    // equal the BatchResult fields exactly.
    obs::counterAdd("batch.seeds", Seeds.size());
    obs::counterAdd("batch.accepted", R.Accepted);
    obs::counterAdd("batch.rejected", R.Rejected);
    obs::counterAdd("batch.retried", R.Retried);
    obs::counterAdd("batch.attempts_total", R.TotalAttempts);
    obs::counterAdd("batch.suppressed_exceptions", R.SuppressedExceptions);
    obs::counterAdd("verify.baseline_cache.hits", R.BaselineCacheHits);
    obs::counterAdd("verify.baseline_cache.fills", R.BaselineCacheFills);
    obs::counterAdd("verify.diff_identical", R.DiffIdentical);
    obs::gaugeSet("batch.jobs", R.Jobs);
    obs::gaugeSet("batch.wall_seconds", R.WallSeconds);
    obs::gaugeSet("batch.cpu_seconds", R.CpuSeconds);
    obs::gaugeSet("batch.variants_per_second", R.variantsPerSecond());
  }
  return R;
}
