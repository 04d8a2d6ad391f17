//===-- perfbench/src/Harness.h - Benchmark measurement harness --*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement machinery shared by the four benchmark workloads:
///
///  - HostRef, the memory-bound host-speed reference slice that every
///    timed unit of work is interleaved with, and RefClock, which turns
///    raw work time into reference-normalized time (README.md explains
///    why timings on a shared host need it);
///  - Tracer, the in-memory span recorder of the traced run;
///  - Report, the metric list printed as the benchmark's last line;
///  - the seeded input generator and the program set-up step.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_PERFBENCH_HARNESS_H
#define PGSD_PERFBENCH_HARNESS_H

#include "driver/Driver.h"
#include "obs/Metrics.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pgsd {
namespace perfbench {

//===-- Host-speed reference -----------------------------------------------===//

/// A fixed slice of memory-bound work: independent random
/// read-modify-writes over a table larger than the whole last-level
/// cache. Its duration tracks the memory-system contention that makes
/// the interpreter-heavy workloads swing on a shared host (README.md
/// has the measurements behind this choice).
class HostRef {
public:
  static constexpr size_t TableWords = size_t(128) << 20 >> 3; ///< 128 MiB.
  static constexpr unsigned Steps = 1u << 17;
  /// The slice time that defines one reference second: a value in
  /// reference units equals seconds on a host that runs the slice this
  /// fast.
  static constexpr double NominalSeconds = 0.004;

  HostRef();

  /// Runs one slice and returns its wall time in seconds.
  double slice();

private:
  std::vector<uint64_t> Table;
  uint64_t Cursor = 0x2545f4914f6cdd1dull;
};

/// Raw work time plus the reference slices interleaved with it. Each
/// timed unit is normalized by the slice that follows it, so drifts in
/// host speed over seconds are tracked unit by unit.
struct RefClock {
  double Raw = 0.0;        ///< Summed wall time of the timed work.
  double Normalized = 0.0; ///< Summed reference-normalized time.
  double SliceSum = 0.0;   ///< Summed wall time of the slices.
  uint64_t Slices = 0;
  /// Nominal / measured slice time after the last unit: turns a raw
  /// duration inside that unit into reference units.
  double LastScale = 1.0;

  /// Times \p Work, then runs one reference slice outside the timing.
  void measure(HostRef &Ref, const std::function<void()> &Work);

  double meanSliceSeconds() const {
    return Slices ? SliceSum / static_cast<double>(Slices) : 0.0;
  }
};

//===-- Tracing ------------------------------------------------------------===//

/// In-memory span recorder for the benchmark's own calls into the
/// project's public API. Inert (no clock reads) when constructed off.
class Tracer {
public:
  struct SpanRec {
    const char *Name = nullptr;
    uint64_t Op = 0;      ///< Spans of one op share this id.
    int64_t Parent = -1;  ///< Index of the enclosing span, -1 at root.
    double Start = 0.0;
    double End = 0.0;
  };

  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T = nullptr; ///< Null when tracing is off.
    size_t Index = 0;
  };

  explicit Tracer(bool On) : Enabled(On) {}

  bool on() const { return Enabled; }
  /// Starts a new op: later root spans carry a fresh id.
  void beginOp() { ++CurrentOp; }

  /// Per span name: total and self seconds (duration minus the part of
  /// the interval covered by child spans), and the span count.
  struct Totals {
    uint64_t Count = 0;
    double Seconds = 0.0;
    double SelfSeconds = 0.0;
  };
  std::map<std::string, Totals> totals() const;

  /// Writes the spans as Chrome trace-event JSON, with the imported obs
  /// phases and counters under "pgsdObs". False on an I/O error.
  bool write(const std::string &Path, const obs::LocalMetrics &Imported) const;

private:
  bool Enabled = false;
  uint64_t CurrentOp = 0;
  std::vector<SpanRec> Spans;
  std::vector<size_t> Open;
};

//===-- Report -------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What one benchmark invocation prints as its last line. A run whose
/// output checks fail never gets here (checkFailed exits), so a printed
/// report is always correct.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  std::string json() const;
};

//===-- Inputs and set-up --------------------------------------------------===//

/// Deterministic 64-bit stream (SplitMix64): the only source of the
/// generated inputs, so one --seed always gives the same inputs.
class SeedStream {
public:
  explicit SeedStream(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  /// A child stream for a named purpose, independent of draw order.
  SeedStream child(uint64_t Tag) const;

private:
  uint64_t State;
};

/// A compiled, train-profiled program plus its reference-engine
/// baseline runs (the independent oracle of the output checks).
struct BenchProgram {
  const workloads::Workload *W = nullptr;
  driver::Program P;
  codegen::Image BaseImage;
  mexec::RunResult RefTrain; ///< Baseline on the train input, Reference.
  mexec::RunResult RefRef;   ///< Baseline on the ref input, Reference.
};

/// Everything a workload needs while it runs.
struct Context {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Corrupt;  ///< Test seam: "checksum", "survivors", "digest".
  std::string WorkDir;  ///< Scratch directory inside the checkout.
  std::string TraceFile; ///< Where the traced run writes its spans.
  HostRef *Ref = nullptr;
  Tracer *T = nullptr;
};

/// Set-up: compiles and train-profiles every program of the suite, in a
/// seeded order, \p Reps times, each time interleaving reference slices
/// per program. \p Extra runs per program inside the timed set-up (the
/// serve store prefill). Returns the programs of the last repetition;
/// \p NormSeconds / \p RawSeconds get the median repetition.
std::vector<BenchProgram>
setUpPrograms(Context &C, unsigned Reps, double &NormSeconds,
              double &RawSeconds,
              const std::function<void(BenchProgram &)> &Extra = nullptr);

/// Runs the reference-engine baselines of \p B (outside any timing).
void runOracleBaselines(BenchProgram &B);

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// Fails the run: prints \p Why to stderr. Output-check mismatches are
/// never counted as operational failures.
[[noreturn]] void checkFailed(const std::string &Why);

/// The paper's Figure 4 configuration set, in column order.
struct PaperConfig {
  const char *Label;
  diversity::DiversityOptions Opts;
};
std::vector<PaperConfig> paperConfigs();

} // namespace perfbench
} // namespace pgsd

#endif // PGSD_PERFBENCH_HARNESS_H
