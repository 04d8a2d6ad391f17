//===-- obs/Metrics.h - Pipeline telemetry registry --------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer: named counters, gauges, fixed-bucket
/// histograms, and RAII phase spans capturing wall + CPU time per
/// pipeline stage. The paper's contribution is a measured trade-off
/// (overhead vs. gadget survival, Figure 4 / Table 2), so the pipeline
/// that reproduces it carries its own instrumentation: every stage from
/// the frontend to the batch verifier reports where time goes and what
/// it decided, and pgsdc --metrics exports the aggregate as JSON.
///
/// Cost contract (pinned by ObsTest; the repository benchmark's
/// trace.overhead_pct measures what turning it on costs):
///  * Telemetry is compiled in but *disabled by default*. Every
///    instrumentation site first consults obs::enabled(), a single
///    relaxed atomic load; when disabled, no allocation, no lock, and no
///    further atomic is touched.
///  * Instrumentation granularity is the pipeline *phase* (a compile, a
///    checker pass, a verification family, a batch seed) -- never the
///    interpreter's per-instruction hot loop.
///  * Parallel sections do not serialize on the registry: workers
///    accumulate into per-task LocalMetrics sinks (plain maps, no
///    atomics) installed via ScopedSink, and driver::makeVariantsBatch
///    merges them after ThreadPool::wait(), outside the timed region's
///    hot path.
///
/// Thread-safety: Registry methods lock an internal mutex and may be
/// called from any thread; LocalMetrics is single-thread by design;
/// Span/counterAdd/histogramObserve route to the calling thread's
/// installed sink (lock-free) or, when none is installed, to the global
/// registry (locked).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_OBS_METRICS_H
#define PGSD_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pgsd {
namespace obs {

/// Aggregated timing of one named phase: how many spans closed and their
/// summed wall / thread-CPU seconds. Wall time is per measuring thread,
/// so across a parallel section the sum over workers exceeds elapsed
/// wall clock; it relates to CPU, not latency (metrics.json documents
/// this per phase via Count).
struct PhaseStats {
  uint64_t Count = 0;
  double WallSeconds = 0.0;
  double CpuSeconds = 0.0;

  void merge(const PhaseStats &O) {
    Count += O.Count;
    WallSeconds += O.WallSeconds;
    CpuSeconds += O.CpuSeconds;
  }
};

/// A fixed-bucket histogram: Counts[i] tallies observations with
/// value <= UpperBounds[i] (first matching bucket); Counts.back() is the
/// overflow bucket for values above every bound.
struct HistogramData {
  std::vector<double> UpperBounds;
  std::vector<uint64_t> Counts; ///< UpperBounds.size() + 1 entries.
  uint64_t Total = 0;

  void observe(double Value);
  /// Merges \p O; bounds must match (first writer fixes them).
  void merge(const HistogramData &O);
};

/// One coherent set of metrics: either a thread-local accumulation sink
/// or a snapshot of the global registry. Plain ordered maps -- no locks,
/// no atomics -- so merging is associative and export order is stable.
class LocalMetrics {
public:
  void addCounter(std::string_view Name, uint64_t Delta);
  void setGauge(std::string_view Name, double Value);
  void addPhase(std::string_view Name, const PhaseStats &S);
  void observe(std::string_view Name, double Value,
               std::span<const double> UpperBounds);

  /// Folds \p O into this. Counters and phases add, gauges last-write-
  /// wins, histograms add bucket-wise. Associative and commutative up to
  /// gauge ordering, so the batch factory may merge per-seed sinks in
  /// any grouping (ObsTest pins associativity).
  void merge(const LocalMetrics &O);

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Phases.empty() &&
           Histograms.empty();
  }

  // Ordered so JSON export and golden tests are deterministic.
  std::map<std::string, uint64_t, std::less<>> Counters;
  std::map<std::string, double, std::less<>> Gauges;
  std::map<std::string, PhaseStats, std::less<>> Phases;
  std::map<std::string, HistogramData, std::less<>> Histograms;
};

/// The process-wide metrics registry. Disabled (and empty) by default.
class Registry {
public:
  /// The one global instance every instrumentation site reports to.
  static Registry &global();

  /// Turns collection on or off process-wide. Flipping the flag does not
  /// clear accumulated data (call reset()).
  void setEnabled(bool On);

  /// Thread-safe mutating entry points (each takes the registry mutex).
  void addCounter(std::string_view Name, uint64_t Delta);
  void setGauge(std::string_view Name, double Value);
  void addPhase(std::string_view Name, const PhaseStats &S);
  void observe(std::string_view Name, double Value,
               std::span<const double> UpperBounds);

  /// Folds a worker-side sink into the registry under one lock.
  void merge(const LocalMetrics &Sink);

  /// Copies the current contents (consistent under the lock).
  LocalMetrics snapshot() const;

  /// Drops all accumulated data; the enabled flag is untouched.
  void reset();

private:
  mutable std::mutex Mutex;
  LocalMetrics Data;
};

/// True when telemetry collection is on: one relaxed atomic load, the
/// only cost any instrumentation site pays when telemetry is off.
bool enabled();

/// Shorthand for Registry::global().setEnabled().
void setEnabled(bool On);

/// Installs \p Sink as the calling thread's metrics destination for the
/// lifetime of the guard: spans, counters, and histogram observations on
/// this thread accumulate into it lock-free instead of locking the
/// global registry. Passing nullptr leaves routing unchanged (so callers
/// can make installation conditional without branching at every site).
/// Nests: the previous sink is restored on destruction.
class ScopedSink {
public:
  explicit ScopedSink(LocalMetrics *Sink);
  ~ScopedSink();
  ScopedSink(const ScopedSink &) = delete;
  ScopedSink &operator=(const ScopedSink &) = delete;

private:
  LocalMetrics *Prev = nullptr;
  bool Installed = false;
};

/// Adds \p Delta to counter \p Name (thread sink or global registry).
/// No-op when telemetry is disabled.
void counterAdd(std::string_view Name, uint64_t Delta = 1);

/// Sets gauge \p Name (last write wins). No-op when disabled.
void gaugeSet(std::string_view Name, double Value);

/// Records \p Value into fixed-bucket histogram \p Name. The first
/// observation fixes the bucket bounds. No-op when disabled.
void histogramObserve(std::string_view Name, double Value,
                      std::span<const double> UpperBounds);

/// RAII phase span: measures wall (steady_clock) and thread-CPU time
/// from construction to destruction and records them under \p Name.
/// A null \p Name, or telemetry being disabled at construction, makes
/// the span inert (destructor does nothing; no clock is read). Spans
/// nest freely; each records its own inclusive time.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name = nullptr; ///< Null when inert.
  double Wall0 = 0.0;
  double Cpu0 = 0.0;
};

} // namespace obs
} // namespace pgsd

#endif // PGSD_OBS_METRICS_H
