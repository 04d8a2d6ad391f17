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
/// BaselineCache resolves the battery once, compiles the baseline once,
/// and computes each input's baseline RunResult on first use only.
///
/// Laziness: construction only resolves the battery. The memo lookup
/// below and the baseline compile wait for the first request that needs
/// them, so a batch whose variants never execute (every NOP-only variant
/// is settled by mir::equalModuloNops) prints, compiles and runs nothing
/// for its battery. The two steps are timed as the obs phases
/// verify.baseline_memo_lookup and verify.baseline_compile.
///
/// Thread-safety: entries fill under a per-entry std::once_flag, so
/// ThreadPool workers can share one const BaselineCache without
/// coordination; whoever asks first computes, everyone else blocks until
/// the result is published and then reads it read-only. The memo lookup
/// and the compile run under once_flags of their own. Hit/fill counters
/// are atomic and surface in driver::BatchResult.
///
/// Battery memo: a cache built with Memo::Shared also takes part in a
/// process-wide, content-addressed memo of *complete* baseline
/// batteries, so repeat verification of one program within a process
/// (later batches, nvx respawns) pays its baseline battery once instead
/// of once per call. The key is the exact material the runs depend on
/// -- the full mir::print of the baseline, the resolved battery and
/// MaxSteps -- and a hit needs byte-equal material (no
/// hash is trusted). A hit recalls the stored runs instead of executing
/// (or compiling) the baseline; the fill that completes a cache's
/// battery stores its runs. At most MemoCapacity batteries are kept,
/// oldest evicted first. The lookup happens on the first baselineRun(),
/// prewarm() or recall().
///
/// Beside the runs, the cache keeps two static facts about the baseline,
/// each computed at most once on its own baseline module, never taken
/// from anywhere else:
///  - analysisClean(): the six-checker analysis finds nothing. A
///    variant equal to a clean baseline modulo NOPs is admitted without
///    its own analysis or proof (verifyVariant).
///  - livenessProved(): its RegLiveness verdict, which the equivalence
///    prover needs before it may try a callee-saved renaming.
/// The memo carries neither: both are asked before any variant
/// executes, and one RegLiveness run costs about an eighth of the
/// mir::print a memo lookup needs (0.5 vs 4.0 ms on 483.xalancbmk, the
/// largest workload).
///
/// The memo is one mutex-guarded table; recalled runs are immutable and
/// shared by reference, so readers never take the lock.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_VERIFY_BASELINECACHE_H
#define PGSD_VERIFY_BASELINECACHE_H

#include "mexec/Interp.h"
#include "mexec/Precompiled.h"
#include "verify/Verifier.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace pgsd {
namespace verify {

/// Baseline RunResults for one (baseline module, VerifyOptions) pair,
/// computed lazily and shared read-only across verification calls.
/// Non-copyable; the referenced baseline module must outlive the cache.
class BaselineCache {
public:
  /// Whether a cache takes part in the process-wide battery memo.
  enum class Memo : uint8_t {
    Off,    ///< Private: every entry executes or is prewarmed.
    Shared, ///< Recall a stored battery; store this one once complete.
  };

  /// Batteries the process-wide memo keeps (oldest evicted first).
  static constexpr size_t MemoCapacity = 64;

  /// Resolves the battery from \p Opts (falling back to
  /// defaultInputBattery()). Nothing else happens until a request needs
  /// it: with Memo::Shared the first request looks the battery up in the
  /// memo (a hit executes nothing), and the first baseline run compiles
  /// the baseline once for every entry fill.
  BaselineCache(const mir::MModule &Baseline, const VerifyOptions &Opts,
                Memo M = Memo::Off);
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
  /// function). Returns true when this call installed the entry -- never
  /// on a memo hit, where every entry is already installed.
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

  /// Entries recalled from the process-wide memo: battery().size() when
  /// the memo has been consulted and held this battery, else 0. Never
  /// consults the memo itself.
  uint64_t reused() const;

  /// Consults the process-wide memo now (Memo::Shared, once per cache),
  /// as the first baselineRun() would, and returns reused().
  uint64_t recall() const;

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

  /// A complete battery as the memo stores it: one run per input.
  using Stored = std::vector<mexec::RunResult>;

private:
  /// The recalled battery, consulting the memo on first call; null on a
  /// miss and under Memo::Off.
  const Stored *recalled() const;

  /// The recalled battery when the memo has been consulted and hit, else
  /// null. Never consults the memo.
  const Stored *recalledIfConsulted() const;

  /// Counts one more installed entry; the one that completes the
  /// battery stores it in the memo (Memo::Shared only).
  void settle() const;

  const mir::MModule *Baseline;
  uint64_t MaxSteps;
  Memo Mode;
  std::vector<std::vector<int32_t>> Battery;
  /// The memo lookup: key material and the recalled battery on a hit
  /// (every entry, immutable), published by Consulted.
  mutable std::once_flag MemoOnce;
  mutable std::string MemoKey;
  mutable std::shared_ptr<const Stored> Recalled;
  mutable std::atomic<bool> Consulted{false};
  /// The baseline's six-checker verdict, once computed.
  mutable std::once_flag AnalysisOnce;
  mutable bool Clean = false;
  /// The baseline's liveness verdict, once computed.
  mutable std::once_flag LivenessOnce;
  mutable bool Liveness = false;
  /// Compiled baseline stream, built by the first entry fill.
  mutable std::once_flag CompileOnce;
  mutable std::optional<mexec::Precompiled> Compiled;
  struct Entry; // Holds a std::once_flag: non-movable, hence the array.
  std::unique_ptr<Entry[]> Entries;
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Fills{0};
  mutable std::atomic<uint64_t> Identical{0};
  std::atomic<uint64_t> Prewarmed{0};
  /// Entries filled or prewarmed so far.
  mutable std::atomic<size_t> Settled{0};
};

/// Appends a byte-exact serialization of (\p Battery, \p MaxSteps) to
/// \p Out: the battery half of every content key over baseline runs
/// (the battery memo above and the serve store's baseline artifact).
/// Distinct pairs never serialize to the same bytes.
void appendBatteryMaterial(std::string &Out,
                           const std::vector<std::vector<int32_t>> &Battery,
                           uint64_t MaxSteps);

} // namespace verify
} // namespace pgsd

#endif // PGSD_VERIFY_BASELINECACHE_H
