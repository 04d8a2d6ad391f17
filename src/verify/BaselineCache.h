//===-- verify/BaselineCache.h - Shared baseline run cache ------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoizes the baseline half of differential execution. A batch of N
/// variant seeds (driver::makeVariantsBatch) verifies every variant
/// against the *same* baseline on the *same* input battery, so without a
/// cache the baseline runs N x (1 + retries) times per input. One
/// BaselineCache resolves the battery once and computes each input's
/// baseline RunResult on first use only, so a batch whose variants never
/// execute (every NOP-only variant is settled by mir::equalModuloNops)
/// runs nothing for its battery.
///
/// Each entry fills through mexec::runMemoized, the process-wide run
/// memo (mexec/RunMemo.h): repeat verification of one program within a
/// process (later batches, serve requests, nvx respawns) recalls the
/// baseline's runs instead of executing them again. That memo's key is
/// exact: a hit needs mir::equalModuloNops with the stored module and an
/// equal input, MaxSteps and MaxCallDepth.
///
/// Thread-safety: entries fill under a per-entry std::once_flag, so
/// ThreadPool workers can share one const BaselineCache without
/// coordination; whoever asks first computes, everyone else blocks until
/// the result is published and then reads it read-only. Hit/fill
/// counters are atomic and surface in driver::BatchResult.
///
/// Beside the runs, the cache keeps two static facts about the baseline,
/// each computed at most once on its own baseline module, never taken
/// from anywhere else:
///  - analysisClean(): the six-checker analysis finds nothing. A
///    variant equal to a clean baseline modulo NOPs is admitted without
///    its own analysis or proof (verifyVariant).
///  - livenessProved(): its RegLiveness verdict, which the equivalence
///    prover needs before it may try a callee-saved renaming.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_VERIFY_BASELINECACHE_H
#define PGSD_VERIFY_BASELINECACHE_H

#include "mexec/Interp.h"
#include "verify/Verifier.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pgsd {
namespace verify {

/// Baseline RunResults for one (baseline module, VerifyOptions) pair,
/// computed lazily and shared read-only across verification calls.
/// Non-copyable; the referenced baseline module must outlive the cache.
class BaselineCache {
public:
  /// Resolves the battery from \p Opts (falling back to
  /// defaultInputBattery()). Nothing runs until a request needs it.
  BaselineCache(const mir::MModule &Baseline, const VerifyOptions &Opts);
  ~BaselineCache();

  BaselineCache(const BaselineCache &) = delete;
  BaselineCache &operator=(const BaselineCache &) = delete;

  /// The resolved input battery (satellite contract: built once per
  /// VerifyOptions resolution, handed around by reference).
  const std::vector<std::vector<int32_t>> &battery() const {
    return Battery;
  }

  /// The baseline RunResult for battery()[Index], computed on first
  /// request (CollectOutput set, MaxSteps from the VerifyOptions the
  /// cache was built with). Safe to call concurrently.
  const mexec::RunResult &baselineRun(size_t Index) const;

  /// Persistence hooks (serve::VariantStore round trip).
  ///
  /// prewarm() installs \p R as entry \p Index without executing the
  /// baseline -- the restart path of a persistent daemon: baseline runs
  /// recorded by a previous process are re-published into the fresh
  /// cache, so verification fills after the restart skip baseline
  /// execution entirely. Races benignly with concurrent baselineRun()
  /// fills (whoever gets the once_flag wins; both compute the same pure
  /// function). Returns true when this call installed the entry.
  bool prewarm(size_t Index, const mexec::RunResult &R);

  /// The already-computed entry for \p Index, or nullptr when it has
  /// not filled yet -- the export half of persistence: a daemon
  /// snapshots exactly the entries it actually computed, without
  /// forcing the rest of the battery to execute. Safe to call
  /// concurrently with fills.
  const mexec::RunResult *peek(size_t Index) const;

  /// Requests served from an already-filled entry.
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }

  /// Requests that computed the entry (at most battery().size()).
  uint64_t fills() const { return Fills.load(std::memory_order_relaxed); }

  /// Entries installed by prewarm() rather than computed.
  uint64_t prewarmed() const {
    return Prewarmed.load(std::memory_order_relaxed);
  }

  /// Counts one verification attempt that differential execution settled
  /// by mir::equalModuloNops, consulting no entry. Safe to call
  /// concurrently.
  void noteIdentical() const {
    Identical.fetch_add(1, std::memory_order_relaxed);
  }

  /// Attempts settled by mir::equalModuloNops (noteIdentical()).
  uint64_t identical() const {
    return Identical.load(std::memory_order_relaxed);
  }

  /// True when analysis::analyzeModule with all six checkers finds
  /// nothing on the baseline module: computed on first request (at most
  /// once per cache). Safe to call concurrently.
  bool analysisClean() const;

  /// True when analysis::analyzeModule with only the RegLiveness checker
  /// finds nothing on the baseline module: computed on first request (at
  /// most once per cache). Safe to call concurrently.
  bool livenessProved() const;

  /// The baseline module the cache was built from.
  const mir::MModule &baseline() const { return *Baseline; }

private:
  const mir::MModule *Baseline;
  uint64_t MaxSteps;
  std::vector<std::vector<int32_t>> Battery;
  /// The baseline's six-checker verdict, once computed.
  mutable std::once_flag AnalysisOnce;
  mutable bool Clean = false;
  /// The baseline's liveness verdict, once computed.
  mutable std::once_flag LivenessOnce;
  mutable bool Liveness = false;
  struct Entry; // Holds a std::once_flag: non-movable, hence the array.
  std::unique_ptr<Entry[]> Entries;
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Fills{0};
  mutable std::atomic<uint64_t> Identical{0};
  std::atomic<uint64_t> Prewarmed{0};
};

/// Appends a byte-exact serialization of (\p Battery, \p MaxSteps) to
/// \p Out: the battery half of the serve store's content key over
/// baseline runs. Distinct pairs never serialize to the same bytes.
void appendBatteryMaterial(std::string &Out,
                           const std::vector<std::vector<int32_t>> &Battery,
                           uint64_t MaxSteps);

} // namespace verify
} // namespace pgsd

#endif // PGSD_VERIFY_BASELINECACHE_H
